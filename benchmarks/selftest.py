"""Fast self-test of the benchmark itself (a few seconds).

    python3 benchmarks/selftest.py

- every workload at a tiny size: its jobs run and all its checks pass;
- a deliberately perturbed output makes each workload's checker fail;
- traced self times sum to the traced wall time, wrapped calls nest
  (``hash_codeword`` inside ``binding_success``, ``contains`` inside
  ``hash_codeword``) and the wrappers are gone afterwards;
- ``BENCHMARK.json`` lists exactly the workloads and metrics run.py reports;
- in a directory holding only ``BENCHMARK.json`` and ``benchmarks/``,
  run.py exits non-zero without printing a result.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from usnc import gf2, protocol  # noqa: E402

TINY = {
    "honest-mc": workloads.HonestMc(n=256, k=8, target_d=64, hash_m=4,
                                    p=0.1, eps=0.05),
    "binding-exact": workloads.BindingExact(n=8, weights=(2, 6),
                                            spreads=(0.5, 0.25),
                                            mc_trials=2000),
    "desk-oracles": workloads.DeskOracles(dist_n=24, dist_k=10, clipped_n=8,
                                          hiding_n=5, inter_n=8),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def all_pass(checks) -> bool:
    per_job, run_level = checks
    return all(ok for job in per_job for _, ok, _ in job) \
        and all(ok for _, ok, _ in run_level)


def run_jobs(wl, inst, count: int):
    return [wl.job(inst, i)[0] for i in range(count)]


def test_tiny_workloads() -> None:
    for name, wl in TINY.items():
        inst = wl.build(seed=1)
        outputs = run_jobs(wl, inst, 2)
        per_job, _ = checks = wl.check(inst, outputs)
        expect(all_pass(checks), "%s: tiny run passes its checks" % name)
        expect(all(len(job) == wl.outcomes_per_job for job in per_job),
               "%s: %d outcomes per job" % (name, wl.outcomes_per_job))


def test_perturbed_outputs_fail() -> None:
    wl = TINY["honest-mc"]
    inst = wl.build(seed=1)
    est = run_jobs(wl, inst, 1)[0]
    bad = dataclasses.replace(est, reject_rate=est.reject_rate + 0.2)
    expect(not all_pass(wl.check(inst, [bad])),
           "honest-mc: a shifted reject rate fails the checks")

    wl = TINY["binding-exact"]
    inst = wl.build(seed=1)
    outputs = run_jobs(wl, inst, len(inst["strategies"]))
    over = dataclasses.replace(outputs[0], success=outputs[0].bound + 0.1)
    expect(not all_pass(wl.check(inst, [over])),
           "binding-exact: success above the bound fails")
    beyond = [r for r in outputs if r.sigma > wl.p + 2 * wl.eps]
    expect(bool(beyond), "binding-exact: grid has sigma > p + 2 eps")
    nonzero = dataclasses.replace(beyond[0], success=1e-9)
    expect(not all_pass(wl.check(inst, [nonzero])),
           "binding-exact: nonzero success beyond p + 2 eps fails")
    top = max(outputs, key=lambda r: r.success)
    off = dataclasses.replace(top, success=top.success * 0.5)
    expect(not all_pass(wl.check(inst, [off])),
           "binding-exact: exact value off the Monte Carlo estimate fails")

    wl = TINY["desk-oracles"]
    inst = wl.build(seed=1)
    out = dict(run_jobs(wl, inst, 1)[0])
    out["min_distance"] += 1
    expect(not all_pass(wl.check(inst, [out])),
           "desk-oracles: a wrong minimum distance fails")


def test_tracing() -> None:
    originals = (gf2.LinearCode.contains, protocol.preimage_sample)
    for name in ("honest-mc", "binding-exact"):
        wl = TINY[name]
        tracer = tracing.Tracer()
        with tracer.installed():
            with tracer.span("bench.setup"):
                inst = wl.build(seed=2)
            done = [run.run_job(wl, inst, i, tracer) for i in range(2)]
        tot = tracer.totals()
        self_sum = sum(row["self_s"] for row in tot["by_name"].values())
        expect(None not in done, "%s: traced jobs complete" % name)
        expect(abs(self_sum - tot["wall_s"]) <= 1e-6,
               "%s: self times sum to traced wall (%.9f vs %.9f s)"
               % (name, self_sum, tot["wall_s"]))
        values, _ = tracing.per_layer_metrics(tracer, 0.0, 0.0)
        expect(set(values) == set(tracing.PER_LAYER_METRICS),
               "%s: every per-layer metric reported" % name)
        if name == "binding-exact":
            expect(tracer.child_calls("gf2.contains",
                                      "hashing.hash_codeword") > 0,
                   "contains spans nest inside hash_codeword spans")
            expect(tracer.child_calls("hashing.hash_codeword",
                                      "adversary.binding_exact") > 0,
                   "hash_codeword spans nest inside binding spans")
        else:
            expect(tracer.child_calls("gf2.rank", "hashing.sample_seed")
                   >= values["hashing.sample_seed.calls"] > 0,
                   "rank checks nest inside sample_seed spans")
    expect((gf2.LinearCode.contains, protocol.preimage_sample) == originals,
           "wrappers removed after the traced phase")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]]
           == list(workloads.WORKLOADS), "workload names match")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == run.END_TO_END_UNITS, "end-to-end metrics and units match")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
           == tracing.PER_LAYER_METRICS, "per-layer metrics match")


def test_bare_directory_fails() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "honest-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "bare directory: exit %d, no result line" % proc.returncode)


def main() -> int:
    test_tiny_workloads()
    test_perturbed_outputs_fail()
    test_tracing()
    test_benchmark_json()
    test_bare_directory_fails()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
