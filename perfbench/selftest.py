"""Self-test of the benchmark, at a tiny size (about a minute):

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, emits every metric BENCHMARK.json
   names, with its unit, and passes its own output checks; tracing leaves
   no wrapper behind.
2. Every output check fails when handed a deliberately corrupted output.

Exits non-zero on the first failed expectation.
"""

import json
import math
import tempfile
from pathlib import Path

import bootstrap

bootstrap.pin_threads()
minimt = bootstrap.import_minimt()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from minimt import bench, decode  # noqa: E402

SEED = 7


def expect(condition: bool, what: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def metrics_emitted(scratch: Path):
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(set(s["name"] for s in spec["workloads"]) == set(workloads.NAMES),
           "BENCHMARK.json names the benchmark's workloads")
    expect({k: u for k, (u, _) in workloads.E2E.items()} == wanted[False],
           "end-to-end metrics and units match BENCHMARK.json")
    expect({k: u for k, (u, _) in tracing.PER_LAYER.items()} == wanted[True],
           "per-layer metrics and units match BENCHMARK.json")
    originals = (decode.translate_batch, bench.decode_corpus,
                 decode._ModelStepper.advance)
    for name in workloads.NAMES:
        for traced in (False, True):
            m = workloads.measure(name, SEED, 0.01, traced, 0.0,
                                  workloads.TINY, scratch)
            label = f"{name} trace={int(traced)}"
            expect(not m.failures, f"{label}: output checks pass {m.failures}")
            expect(set(m.metrics) == set(wanted[traced]),
                   f"{label}: emits every metric of BENCHMARK.json")
            expect(all(math.isfinite(v) for v in m.metrics.values()),
                   f"{label}: every metric is a finite number")
            if not traced:
                expect(all(v > 0 for v in m.metrics.values()),
                       f"{label}: no end-to-end metric reads 0")
    expect((decode.translate_batch, bench.decode_corpus,
            decode._ModelStepper.advance) == originals,
           "tracing restores every patched name")


def corrupted_outputs_fail(scratch: Path):
    sizes = workloads.TINY

    t = workloads.Translate(sizes)
    t.setup(SEED)
    hyps = t.op().out[1][0]
    args = (t.model, t.records, hyps, workloads.MAX_LEN, workloads.BATCH_TOKENS)
    expect(not checks.greedy_matches_forced(*args), "translate: true beam-1 output passes")
    i, j = next((i, j) for i in range(len(hyps)) for j in range(i)
                if hyps[i] != hyps[j])
    swapped = list(hyps)
    swapped[i], swapped[j] = hyps[j], hyps[i]
    expect(bool(checks.greedy_matches_forced(t.model, t.records, swapped,
                                             workloads.MAX_LEN, workloads.BATCH_TOKENS)),
           "translate: swapped hypotheses fail the teacher-forced argmax check")
    edited = list(hyps)
    edited[0] = edited[0][:-1]
    expect(bool(checks.greedy_matches_forced(t.model, t.records, edited,
                                             workloads.MAX_LEN, workloads.BATCH_TOKENS)),
           "translate: a truncated hypothesis fails the check")

    p = workloads.Prune(sizes, scratch)
    p.setup(SEED)
    report = minimt.PruneReport.from_json(p.op().out["report"])
    pruned, first, second = p.last
    chrf = report.iterations[-1].chosen["chrf"]
    expect(not checks.prune_consistent(p.model, pruned, report, chrf),
           "prune: true pruned model passes")
    tampered = pruned.clone()
    tampered.params["dec.0.ffn.w1"][0, 0] += 1.0
    expect(bool(checks.prune_consistent(p.model, tampered, report, chrf)),
           "prune: a tampered pruned model fails the fingerprint check")
    expect(bool(checks.prune_consistent(p.model, pruned, report, chrf + 1e-9)),
           "prune: a chrF++ other than the last chosen one fails")
    flipped = second[:-1] + bytes([second[-1] ^ 1])
    expect(not checks.bytes_identical(first, second, "fp16") and
           bool(checks.bytes_identical(first, flipped, "fp16")),
           "prune: a changed fp16 checkpoint byte fails the round-trip check")

    f = workloads.Filter(sizes)
    f.setup(SEED)
    out = f.op().out
    kept, rep = out["kept"], out["report"]
    expect(not checks.filter_output_valid(f.records, kept, rep), "filter: true output passes")
    expect(bool(checks.filter_output_valid(f.records, kept[::-1], rep)),
           "filter: a reordered output fails the sub-list check")
    rep.stages[0].n_kept += 1
    expect(bool(checks.filter_output_valid(f.records, kept, rep)),
           "filter: a report whose counts do not telescope fails validate()")

    expect(bool(checks.losses_finite([2.5, float("nan")])),
           "train: a non-finite loss fails")
    expect(bool(checks.repeats_exactly([2.5, 2.5000001], "dev loss")),
           "train: a dev loss that differs between repetitions fails")


def main():
    out = bootstrap.ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        metrics_emitted(Path(tmp))
        corrupted_outputs_fail(Path(tmp))
    print("selftest passed")


if __name__ == "__main__":
    main()
