"""Evaluation reports, run manifests, JSON/CSV emission, and publish, the
one writer through which every artifact reaches disk.

JSON is the lossless canonical form; CSV serializes numbers with 6
significant digits and has a documented, stable column order. The COMET
column is structurally absent from EvalRow; comet_note records why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import secrets
from dataclasses import asdict, dataclass, field

EVAL_CSV_COLUMNS = [
    "kind", "direction", "model_id", "bleu", "chrf_pp",
    "throughput_tokens_per_sec", "total_seconds", "output_tokens",
    "beam_size", "batch_token_budget",
]


@dataclass
class EvalRow:
    direction: str
    model_id: str
    bleu: float
    chrf_pp: float
    throughput_tokens_per_sec: float
    total_seconds: float
    output_tokens: int
    beam_size: int
    batch_token_budget: int
    comet_note: str = "not computed (no neural scorer in this toolkit)"


@dataclass
class EvalReport:
    rows: list[EvalRow] = field(default_factory=list)

    def aggregates(self) -> list[dict]:
        """Mean rows per target-language group plus an overall mean."""
        groups: dict[str, list[EvalRow]] = {}
        for r in self.rows:
            tgt = r.direction.split("-", 1)[1]
            groups.setdefault(f"*-{tgt}", []).append(r)
        if self.rows:
            groups["overall"] = list(self.rows)

        out = []
        for name in sorted(groups):
            members = groups[name]
            n = len(members)
            out.append({
                "group": name,
                "n_rows": n,
                "bleu": sum(r.bleu for r in members) / n,
                "chrf_pp": sum(r.chrf_pp for r in members) / n,
                "throughput_tokens_per_sec":
                    sum(r.throughput_tokens_per_sec for r in members) / n,
                "total_seconds": sum(r.total_seconds for r in members) / n,
            })
        return out

    def to_json(self) -> str:
        return json.dumps({
            "rows": [asdict(r) for r in self.rows],
            "aggregates": self.aggregates(),
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        obj = json.loads(text)
        return cls(rows=[EvalRow(**r) for r in obj["rows"]])

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(EVAL_CSV_COLUMNS) + "\n")
        for r in self.rows:
            out.write(",".join([
                "row", r.direction, r.model_id, _g6(r.bleu), _g6(r.chrf_pp),
                _g6(r.throughput_tokens_per_sec), _g6(r.total_seconds),
                str(r.output_tokens), str(r.beam_size), str(r.batch_token_budget),
            ]) + "\n")
        for agg in self.aggregates():
            out.write(",".join([
                "aggregate", agg["group"], "", _g6(agg["bleu"]), _g6(agg["chrf_pp"]),
                _g6(agg["throughput_tokens_per_sec"]), _g6(agg["total_seconds"]),
                "", "", "",
            ]) + "\n")
        return out.getvalue()


def _g6(x: float) -> str:
    return format(float(x), ".6g")


def quality_efficiency_csv(labeled_reports) -> str:
    """Chart data: one (model label, chrF++, tokens/s) line per report,
    taken from the overall aggregate."""
    out = io.StringIO()
    out.write("model,chrf_pp,throughput_tokens_per_sec\n")
    for label, report in labeled_reports:
        overall = [a for a in report.aggregates() if a["group"] == "overall"]
        if not overall:
            continue
        a = overall[0]
        out.write(f"{label},{_g6(a['chrf_pp'])},{_g6(a['throughput_tokens_per_sec'])}\n")
    return out.getvalue()


def publish(files: dict) -> list[str]:
    """Write a {path: bytes | str} set of files; str is encoded as UTF-8.

    Every file is written to a temporary sibling first (missing parent
    directories are created) and the temporaries are renamed into place only
    once all of them are written, so a failed write publishes nothing. On any
    failure every temporary not yet renamed is removed. Returns the paths in
    the order given."""
    staged: list[tuple[str, str]] = []  # (tmp, final)
    renamed = 0
    try:
        for path, data in files.items():
            path = os.fspath(path)
            directory = os.path.dirname(path) or "."
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f".staged-{secrets.token_hex(8)}")
            # 0o666 lets the umask set the mode, as open() would
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as f:
                f.write(_as_bytes(data))
        for tmp, path in staged:
            os.replace(tmp, path)
            renamed += 1
    except BaseException:
        for tmp, _ in staged[renamed:]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    return [path for _, path in staged]


def _as_bytes(data) -> bytes:
    return data.encode() if isinstance(data, str) else data


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None
    inputs: dict = field(default_factory=dict)    # path -> sha256
    outputs: dict = field(default_factory=dict)   # path -> sha256
    timings: dict = field(default_factory=dict)   # label -> seconds
    toolkit_version: str = ""

    @property
    def run_id(self) -> str:
        blob = json.dumps({
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "inputs": dict(sorted(self.inputs.items())),
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def add_input(self, path):
        self.inputs[os.fspath(path)] = sha256_file(path)

    def add_output(self, path, data):
        """Record an output path with the sha256 of the bytes (or UTF-8
        text) to be published there."""
        self.outputs[os.fspath(path)] = hashlib.sha256(_as_bytes(data)).hexdigest()

    def to_json(self) -> str:
        obj = {
            "run_id": self.run_id,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": dict(sorted(self.outputs.items())),
            "timings": self.timings,
            "toolkit_version": self.toolkit_version,
        }
        return json.dumps(obj, indent=2, sort_keys=True)
