"""Staged corpus filtering with pluggable scorers and per-stage accounting.

Stage order: rule-based, language detection, semantic similarity, quality
estimation. Keep-iff-score >= threshold for the three scored stages; one
threshold (default 0.6) governs all three. Output is always an
order-preserving sub-list of the input; the only mutation anywhere is HTML
stripping in stage 1, and it is counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import queue
import re
import subprocess
import threading
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .corpus import ParallelRecord, dedup_key, record_to_json
from .langid import LangIdModel
from .model import OverLongError, check_range

STAGE_RULE = "rule_based"
STAGE_LANG = "language_detection"
STAGE_SEMANTIC = "semantic"
STAGE_QE = "quality_estimation"
STAGES = (STAGE_RULE, STAGE_LANG, STAGE_SEMANTIC, STAGE_QE)

_TAG_RE = re.compile(r"<[^>]*>")


# the rule-based stage drops a record with a side shorter than MIN_CHARS or
# longer than MAX_CHARS characters, or one side over MAX_LENGTH_RATIO times
# as long as the other
MIN_CHARS = 3
MAX_CHARS = 200
MAX_LENGTH_RATIO = 2.0


@dataclass(frozen=True)
class FilterConfig:
    threshold: float = 0.6
    skip_languages: dict = field(default_factory=dict)   # stage -> set of codes
    stages_enabled: dict = field(default_factory=dict)   # stage -> bool

    def __post_init__(self):
        check_range(self, "threshold")
        for stage in (*self.skip_languages, *self.stages_enabled):
            if stage not in STAGES:
                raise ValueError(f"unknown stage {stage!r}")
        for stage, codes in self.skip_languages.items():
            if (not isinstance(codes, (list, tuple, set, frozenset))
                    or not all(isinstance(c, str) for c in codes)):
                raise ValueError(f"skip_languages[{stage!r}] must be a collection "
                                 f"of language codes, got {codes!r}")
        for stage, on in self.stages_enabled.items():
            if not isinstance(on, bool):
                raise ValueError(f"stages_enabled[{stage!r}] must be true or false, "
                                 f"got {on!r}")

    def skips(self, stage: str) -> frozenset:
        return frozenset(self.skip_languages.get(stage, ()))

    def enabled(self, stage: str) -> bool:
        return self.stages_enabled.get(stage, True)

    def fingerprint(self) -> str:
        blob = json.dumps({
            "min_chars": MIN_CHARS, "max_chars": MAX_CHARS,
            "max_length_ratio": MAX_LENGTH_RATIO, "threshold": self.threshold,
            "skip_languages": {k: sorted(v) for k, v in sorted(self.skip_languages.items())},
            "stages_enabled": dict(sorted(self.stages_enabled.items())),
            "cosine_mapping": "(1+cos)/2",
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class StageReport:
    stage: str
    n_in: int = 0
    n_kept: int = 0
    drop_reasons: dict = field(default_factory=dict)
    warnings: dict = field(default_factory=dict)
    modified: int = 0
    samples: list = field(default_factory=list)

    def drop(self, record: ParallelRecord, reason: str):
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        if len(self.samples) < 5:
            self.samples.append({
                "reason": reason, "direction": record.direction,
                "src": record.src[:60], "tgt": record.tgt[:60],
            })

    def warn(self, kind: str):
        self.warnings[kind] = self.warnings.get(kind, 0) + 1

    def validate(self):
        dropped = sum(self.drop_reasons.values())
        if self.n_in != self.n_kept + dropped:
            raise AssertionError(
                f"{self.stage}: counts do not telescope "
                f"({self.n_in} != {self.n_kept} + {dropped})")


@dataclass
class FilterReport:
    stages: list[StageReport]
    config_fingerprint: str

    @property
    def n_in(self) -> int:
        return self.stages[0].n_in if self.stages else 0

    @property
    def n_out(self) -> int:
        return self.stages[-1].n_kept if self.stages else 0

    def validate(self):
        for s in self.stages:
            s.validate()
        for prev, cur in zip(self.stages, self.stages[1:]):
            if cur.n_in != prev.n_kept:
                raise AssertionError("stage boundaries do not telescope")

    def to_json(self) -> str:
        return json.dumps(asdict(self) | {"n_in": self.n_in, "n_out": self.n_out},
                          indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Scorer surfaces
# ---------------------------------------------------------------------------


def _check_score(value: float, who: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{who} returned out-of-range score {value}")
    return float(value)


class NaiveBayesLanguageScorer:
    """Posterior of one expected language under a LangIdModel."""

    def __init__(self, model: LangIdModel, lang: str):
        self.name = f"langid-nb:{lang}"
        self.model = model
        self.lang = lang

    def score_text(self, text: str) -> float:
        return _check_score(self.model.score(text, self.lang), self.name)


def langid_scorers(model: LangIdModel) -> dict[str, NaiveBayesLanguageScorer]:
    return {lang: NaiveBayesLanguageScorer(model, lang) for lang in model.languages}


PIVOT_EMBED_DIM = 256
# Source-token budget of one semantic-stage decode batch. Batches are spread
# over the CPUs; larger ones cost less per row (filter's ~300 distinct
# non-pivot texts make 2).
SEMANTIC_TOKEN_BUDGET = 4096


class PivotTranslationEmbedder:
    """Embeds a sentence as the hashed word-bigram profile (PIVOT_EMBED_DIM
    buckets) of its greedy translation into a fixed pivot language under a
    trained model. Both sides of an aligned pair map to (nearly) the same
    pivot sentence, so cosine similarity separates aligned pairs from
    mismatched ones. Word bigrams (over boundary-padded tokens) keep
    unrelated same-language sentences nearly orthogonal, which character
    n-grams do not. A sentence of a bidirectional corpus is a source and a
    target; embed_batch translates each distinct (text, language) once."""

    def __init__(self, model, pivot_lang: str, max_len: int = 64):
        if pivot_lang not in model.vocab.language_tags:
            raise ValueError(f"pivot language {pivot_lang!r} unknown to the model")
        self.name = f"pivot-embed:{pivot_lang}"
        self.model = model
        self.pivot_lang = pivot_lang
        self.max_len = max_len

    def supports(self, lang: str) -> bool:
        return lang in self.model.vocab.language_tags

    def _profile(self, text: str) -> np.ndarray:
        vec = np.zeros(PIVOT_EMBED_DIM, dtype=np.float64)
        tokens = ["<s>", *text.split(), "</s>"]
        for a, b in zip(tokens, tokens[1:]):
            h = int(hashlib.blake2b(f"{a}\x1f{b}".encode(), digest_size=4).hexdigest(), 16)
            vec[h % PIVOT_EMBED_DIM] += 1.0
        return vec

    def embed_batch(self, texts: list[str], langs: list[str]) -> list[np.ndarray]:
        """One profile per text. Each distinct (text, lang) not in the pivot
        language is decoded once, at beam 1, in SEMANTIC_TOKEN_BUDGET batches
        by decode_corpus, and every position holding it gets that one
        translation. A translation depends on its batch only through the
        batch's padded source width, which the distinct texts and their
        first-seen order fix. An over-long text is named at its first
        position."""
        from .bench import DecodeConfig, decode_corpus

        if len(texts) != len(langs):
            raise ValueError(f"embed_batch got {len(texts)} texts but "
                             f"{len(langs)} languages")
        keys = list(zip(texts, langs))
        # pivot-language text is its own pivot translation; a bidirectional
        # corpus holds every other text twice, and it is decoded once
        todo = list(dict.fromkeys(k for k in keys if k[1] != self.pivot_lang))
        hyps = {}
        if todo:
            # no source the model can encode is over the budget
            budget = max(SEMANTIC_TOKEN_BUDGET, self.model.config.max_positions)
            try:
                run = decode_corpus(
                    self.model, [ParallelRecord(lang, self.pivot_lang, text, "")
                                 for text, lang in todo],
                    DecodeConfig(beam_size=1, batch_token_budget=budget,
                                 max_output_length=self.max_len))
            except OverLongError as e:
                e.index = keys.index(todo[e.index])   # first position in texts
                raise
            hyps = dict(zip(todo, run.hypotheses))
        return [self._profile(hyps.get(k, k[0])) for k in keys]


class ForcedLogProbQualityScorer:
    """Reference-free quality score: the model's length-normalized forced
    log-probability of tgt given src, squashed to [0, 1] by a logistic with
    midpoint/scale in mean-logprob units."""

    def __init__(self, model, midpoint: float = -1.5, scale: float = 0.5):
        self.name = "forced-logprob-qe"
        self.model = model
        self.midpoint = midpoint
        self.scale = scale

    def supports(self, src_lang: str, tgt_lang: str) -> bool:
        tags = self.model.vocab.language_tags
        return src_lang in tags and tgt_lang in tags

    def score_batch(self, records) -> list[float]:
        from .decode import forced_token_logprobs

        lp = forced_token_logprobs(self.model, records)
        return [1.0 / (1.0 + np.exp(-(v - self.midpoint) / self.scale)) for v in lp]


CLOSE_TIMEOUT_S = 10.0
READ_TIMEOUT_S = 60.0


class ScorerTimeoutError(TimeoutError):
    """An external scorer sent no score within READ_TIMEOUT_S of being sent
    a record; the scorer has been killed."""


class ScorerExitedError(RuntimeError):
    """An external scorer exited, or closed its output, before scoring every
    record; the scorer has been reaped."""


class SubprocessScorer:
    """External scorer over a line protocol: one JSON record per line in, one
    decimal score in [0, 1] per line out, strict one-in-one-out ordering.
    Each record is written and its score read before the next is written, so
    neither pipe can fill up and deadlock the two processes. A score that
    does not arrive within READ_TIMEOUT_S kills and reaps the scorer and
    raises ScorerTimeoutError; a scorer that exits early is reaped and
    raises ScorerExitedError."""

    def __init__(self, command: list[str], name: str = "subprocess"):
        self.name = name
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            bufsize=1)
        # a reader thread hands over output lines, so a read can time out
        # whatever the pipe's buffering; "" marks the end of the output
        self._lines: queue.Queue[str] = queue.Queue()
        threading.Thread(target=self._read_lines, daemon=True).start()

    def _read_lines(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def supports(self, src_lang: str, tgt_lang: str) -> bool:
        return True

    def score_batch(self, records) -> list[float]:
        assert self._proc.stdin and self._proc.stdout
        scores = []
        for i, record in enumerate(records):
            try:
                self._proc.stdin.write(record_to_json(record) + "\n")
                self._proc.stdin.flush()
            except BrokenPipeError:
                raise self._exited(i) from None
            try:
                line = self._lines.get(timeout=READ_TIMEOUT_S)
            except queue.Empty:
                self._proc.kill()
                self._proc.wait()
                raise ScorerTimeoutError(
                    f"{self.name}: no score for record {i} within "
                    f"{READ_TIMEOUT_S} s; scorer killed") from None
            if not line:
                raise self._exited(i)
            try:
                value = float(line.strip())
            except ValueError:
                raise ValueError(f"{self.name}: non-numeric score {line.strip()!r} "
                                 f"for record {i}") from None
            scores.append(_check_score(value, self.name))
        return scores

    def _exited(self, i: int) -> ScorerExitedError:
        """Reap a scorer that stopped answering at record i, killing it if
        it is still running after CLOSE_TIMEOUT_S."""
        try:
            code = self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            code = self._proc.wait()
        return ScorerExitedError(
            f"{self.name}: scorer exited with code {code} before scoring record {i}")

    def close(self):
        """Close the scorer's input and wait for it to exit; a scorer still
        running after CLOSE_TIMEOUT_S is killed and reaped, and the timeout
        re-raised."""
        if self._proc.stdin:
            # input a scorer that has already exited never read is dropped
            with contextlib.suppress(BrokenPipeError):
                self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class ScorerSet:
    """Scorers consumed by the pipeline stages; any of them may be None when
    the corresponding stage is disabled."""

    langid: dict | None = None       # lang code -> LanguageScorer
    embedder: object | None = None   # supports(lang), embed_batch(texts, langs)
    qe: object | None = None         # supports(src_lang, tgt_lang), score_batch(records)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _strip_html(text: str) -> tuple[str, bool]:
    if "<" not in text or not _TAG_RE.search(text):
        return text, False
    return _TAG_RE.sub("", text).strip(), True


def rule_based_filter(records):
    """Strip HTML, then drop empty / out-of-length / misaligned-ratio /
    duplicate records, preserving the surviving order."""
    report = StageReport(stage=STAGE_RULE, n_in=len(records))
    kept = []
    seen = set()
    for r in records:
        src, src_changed = _strip_html(r.src)
        tgt, tgt_changed = _strip_html(r.tgt)
        if src_changed or tgt_changed:
            report.modified += 1
            r = replace(r, src=src, tgt=tgt)
        if not r.src.strip() or not r.tgt.strip():
            report.drop(r, "empty")
            continue
        ls, lt = len(r.src), len(r.tgt)
        if min(ls, lt) < MIN_CHARS:
            report.drop(r, "min_length")
            continue
        if max(ls, lt) > MAX_CHARS:
            report.drop(r, "max_length")
            continue
        if max(ls, lt) / min(ls, lt) > MAX_LENGTH_RATIO:
            report.drop(r, "length_ratio")
            continue
        key = dedup_key(r)
        if key in seen:
            report.drop(r, "duplicate")
            continue
        seen.add(key)
        kept.append(r)
    report.n_kept = len(kept)
    report.validate()
    return kept, report


def language_detection_filter(records, scorer_by_lang: dict, cfg: FilterConfig):
    """Keep a record iff both sides score at least the threshold under their
    expected language's detector; skip-listed languages bypass their side."""
    report = StageReport(stage=STAGE_LANG, n_in=len(records))
    skips = cfg.skips(STAGE_LANG)
    kept = []
    for r in records:
        ok = True
        for side, lang, reason in ((r.src, r.src_lang, "src_language"),
                                   (r.tgt, r.tgt_lang, "tgt_language")):
            if lang in skips:
                continue
            scorer = scorer_by_lang.get(lang)
            if scorer is None:
                raise ValueError(
                    f"no language scorer for {lang!r} and it is not skip-listed")
            if scorer.score_text(side) < cfg.threshold:
                report.drop(r, reason)
                ok = False
                break
        if ok:
            kept.append(r)
    report.n_kept = len(kept)
    report.validate()
    return kept, report


def _cosine(a: np.ndarray, b: np.ndarray, report: StageReport) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        report.warn("zero_vector")
        return -1.0  # maps to score 0.0
    return float(np.dot(a, b) / (na * nb))


def _threshold_stage(records, cfg: FilterConfig, stage: str, reason: str, who: str,
                     supports, score_batch, to_scores, width: int = 1):
    """The body the semantic and QE stages share. A record with a
    skip-listed language, or one `supports(src_lang, tgt_lang)` rejects,
    bypasses the stage with a `skipped_language` warning. The rest go to one
    `score_batch(records)` call, which must return `width` results per
    record, in order; `to_scores(results, report)` turns them into one score
    per record, and a record is kept iff its score reaches the threshold.
    An OverLongError from score_batch indexes its results; it is re-raised
    with the stage's name and the record's position in records."""
    report = StageReport(stage=stage, n_in=len(records))
    skips = cfg.skips(stage)

    scored = []  # positions in records
    for i, r in enumerate(records):
        if (r.src_lang in skips or r.tgt_lang in skips
                or not supports(r.src_lang, r.tgt_lang)):
            report.warn("skipped_language")
        else:
            scored.append(i)

    try:
        results = score_batch([records[i] for i in scored]) if scored else []
    except OverLongError as e:
        k = scored[e.index // width]
        raise OverLongError(f"{stage} stage, record {k}: {e}", k) from e
    if len(results) != width * len(scored):
        raise ValueError(f"{who} returned {len(results)} results "
                         f"for {width * len(scored)} inputs")
    scores = dict(zip(scored, to_scores(results, report)))

    kept = []
    for i, r in enumerate(records):
        if i not in scores or scores[i] >= cfg.threshold:
            kept.append(r)
        else:
            report.drop(r, reason)
    report.n_kept = len(kept)
    report.validate()
    return kept, report


def semantic_filter(records, embedder, cfg: FilterConfig):
    """Keep a record iff (1 + cosine(embed(src), embed(tgt))) / 2 reaches the
    threshold. Pairs with an unsupported or skip-listed language bypass."""

    def embed_pairs(batch):
        return embedder.embed_batch(
            [text for r in batch for text in (r.src, r.tgt)],
            [lang for r in batch for lang in (r.src_lang, r.tgt_lang)])

    who = getattr(embedder, "name", "embedder")
    return _threshold_stage(
        records, cfg, STAGE_SEMANTIC, "semantic", who,
        lambda s, t: embedder.supports(s) and embedder.supports(t), embed_pairs,
        lambda vecs, report: [(1.0 + _cosine(a, b, report)) / 2.0
                              for a, b in zip(vecs[::2], vecs[1::2])],
        width=2)


def quality_estimation_filter(records, qe, cfg: FilterConfig):
    """Keep a record iff the reference-free quality score reaches the
    threshold; skip-listed or unsupported language pairs bypass."""
    who = getattr(qe, "name", "qe")
    return _threshold_stage(
        records, cfg, STAGE_QE, "quality", who, qe.supports, qe.score_batch,
        lambda values, report: [_check_score(v, who) for v in values])


def run_pipeline(records, cfg: FilterConfig, scorers: ScorerSet,
                 timings: dict | None = None):
    """All enabled stages in order; returns (kept, FilterReport). Given a
    timings dict, each enabled stage's seconds on time.monotonic go into
    timings["filter_<stage>_seconds"]; the report never holds a timing. A
    stage enabled without its scorer fails before any stage runs."""
    for stage, scorer, missing in (
            (STAGE_LANG, scorers.langid, "language detection enabled but no "
                                         "langid scorers given"),
            (STAGE_SEMANTIC, scorers.embedder, "semantic stage enabled but no "
                                               "embedder given"),
            (STAGE_QE, scorers.qe, "quality estimation enabled but no QE "
                                   "scorer given")):
        if cfg.enabled(stage) and scorer is None:
            raise ValueError(missing)
    run_stage = {
        STAGE_RULE: rule_based_filter,
        STAGE_LANG: lambda recs: language_detection_filter(recs, scorers.langid, cfg),
        STAGE_SEMANTIC: lambda recs: semantic_filter(recs, scorers.embedder, cfg),
        STAGE_QE: lambda recs: quality_estimation_filter(recs, scorers.qe, cfg),
    }
    stages: list[StageReport] = []
    current = list(records)
    for stage in STAGES:
        if not cfg.enabled(stage):
            continue
        start = time.monotonic() if timings is not None else 0.0
        current, rep = run_stage[stage](current)
        if timings is not None:
            timings[f"filter_{stage}_seconds"] = time.monotonic() - start
        stages.append(rep)

    report = FilterReport(stages=stages, config_fingerprint=cfg.fingerprint())
    report.validate()
    return current, report
