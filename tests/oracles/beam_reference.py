"""Reference beam search: the per-sample loop decode._beam_loop ran before
it picked beams with array ops and stopped samples early. It decodes every
sample until each of its beams has emitted eos or reached max_len, and
sorts each sample's candidates by (-score, token tuple) in Python. The
tests require decode.beam_search_over_stepper to return equal BeamResults.
"""

import math

import numpy as np

from minimt.decode import BeamResult, _final_key, _normalized
from minimt.tensor import log_softmax


def _beam_loop(stepper, n_samples: int, vocab_size: int, eos_id: int,
               beam_size: int, max_len: int) -> list[BeamResult]:
    """beam_search_over_stepper, for any beam size, one sample at a time."""
    k = beam_size
    r = n_samples * k

    cum = np.full((n_samples, k), -np.inf, dtype=np.float64)
    cum[:, 0] = 0.0
    tokens: list[tuple[int, ...]] = [() for _ in range(r)]
    alive = np.zeros((n_samples, k), dtype=bool)
    alive[:, 0] = True
    finished: list[list[tuple[tuple, float, float]]] = [[] for _ in range(n_samples)]

    # row i * k + slot of the stepper is that slot of sample live[i]
    live = np.arange(n_samples)
    logits = stepper.prime_logits()
    for g in range(max_len):
        logp = log_softmax(logits.astype(np.float64))
        cand = cum[live, :, None] + logp.reshape(len(live), k, vocab_size)
        cand[~alive[live]] = -np.inf

        # dead slots default to row 0 of their own sample so cache gathers stay valid
        parent_rows = np.repeat(np.arange(len(live)) * k, k).reshape(len(live), k)
        next_ids = np.zeros((len(live), k), dtype=np.int64)
        new_cum = np.full((n_samples, k), -np.inf, dtype=np.float64)
        new_alive = np.zeros((n_samples, k), dtype=bool)
        new_tokens: list[tuple[int, ...]] = [() for _ in range(r)]

        for i, s in enumerate(live.tolist()):
            flat = cand[i].ravel()
            finite = np.isfinite(flat)
            n_finite = int(finite.sum())
            if n_finite == 0:
                continue
            kk = min(k, n_finite)
            part = np.argpartition(-flat, kk - 1)[:kk]
            threshold = flat[part].min()
            pool = np.flatnonzero(flat >= threshold)
            pool = sorted(
                pool.tolist(),
                key=lambda f: (-flat[f], tokens[s * k + f // vocab_size] + (f % vocab_size,)),
            )[:kk]
            slot = 0
            for f in pool:
                j, tok = divmod(f, vocab_size)
                seq = tokens[s * k + j] + (tok,)
                if tok == eos_id:
                    lp = float(flat[f])
                    finished[s].append((seq, lp, _normalized(lp, len(seq))))
                else:
                    parent_rows[i, slot] = i * k + j
                    next_ids[i, slot] = tok
                    new_cum[s, slot] = flat[f]
                    new_alive[s, slot] = True
                    new_tokens[s * k + slot] = seq
                    slot += 1

        cum, alive, tokens = new_cum, new_alive, new_tokens
        keep = alive[live].any(axis=1)
        live = live[keep]
        if g == max_len - 1 or not len(live):
            break
        stepper.reorder(parent_rows[keep].ravel())
        logits = stepper.advance(next_ids[keep].ravel(), g)

    results = []
    for s in range(n_samples):
        if finished[s]:
            seq, lp, score = min(finished[s], key=lambda e: _final_key(e[0], e[2]))
            results.append(BeamResult(seq[:-1], lp, score, True))
        else:
            best = None
            for j in range(k):
                if not alive[s, j]:
                    continue
                seq = tokens[s * k + j]
                lp = float(cum[s, j])
                score = _normalized(lp, len(seq))
                cand_res = (seq, lp, score)
                if best is None or _final_key(cand_res[0], cand_res[2]) < _final_key(best[0], best[2]):
                    best = cand_res
            if best is None:
                results.append(BeamResult((), -math.inf, -math.inf, False))
            else:
                results.append(BeamResult(best[0], best[1], best[2], False))
    return results
