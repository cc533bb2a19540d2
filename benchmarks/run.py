"""Benchmark of the usnc desk laboratory.

    python3 benchmarks/run.py --workload honest-mc --seed 1 --seconds 20 --trace 0

Runs one workload in this process as a closed loop (one client, one thread:
each job starts when the previous one has returned) for ``--seconds`` of
wall-clock time, then checks every job's output outside the timed phase.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median wall time of fresh processes that each import
  ``usnc.cli`` and build the workload's instance (what every CLI call pays);
- ``wall_ref``: median wall time of one job (a block of honest trials, one
  binding strategy, or one pass over the oracle list) divided by the median
  wall time of ``reference_kernel``, which runs before every job;
- ``peak_rss_mb``: peak resident memory of this process after the timed
  phase, from ``getrusage``.

The speed of a shared host drifts by half or more over minutes, so raw job
times of two runs differ more than most regressions would. The reference
kernel is fixed numpy and Python work that never calls usnc; dividing by
its time cancels most of that drift, while a change to usnc moves only the
job time. The raw figures are printed and recorded as well: ``wall_s``,
``reference_s``, and the per-job rate of the workload's unit of work
(``trials_per_s``, ``atoms_per_s`` or ``jobs_per_s``). Each is printed with
its quartiles, its sample count, and the highest percentile that still has
ten samples above it.

``--trace 1`` rebuilds the instance under the wrappers of ``tracing.py``,
then runs a fixed number of job pairs: each job once untraced and once
traced. It reports the per-layer metrics of the traced part, with the
tracing overhead taken from the pairs, and writes the spans to
``benchmarks/out/``. The work is fixed, so counts repeat exactly for a
seed; ``--seconds`` does not apply.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every run also
writes a record with provenance, spreads and check details to
``benchmarks/out/``. Timings are wall-clock (``time.perf_counter``), so
they include whatever else the host is running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread per process: numerical libraries must not start worker pools,
# so this runs before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

PREDICTED_TOP_LAYER = {"honest-mc": ("hashing",),
                       "binding-exact": ("adversary",),
                       "desk-oracles": ("gf2", "oracle")}

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
UNITS = {"setup_s": "s", "wall_s": "s", "reference_s": "s",
         "peak_rss_mb": "MB"}


def _summary(values) -> dict:
    """Median, quartiles and count of a sample, plus its highest percentile
    with at least ten samples above it (None below 11 samples)."""
    vals = sorted(values)
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive") \
        if len(vals) >= 2 else (vals[0],) * 3
    tail = None
    if len(vals) >= 11:
        rank = len(vals) - 11
        tail = {"percentile": 100.0 * (rank + 1) / len(vals),
                "value": vals[rank]}
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "tail": tail, "n": len(vals)}


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import scipy
    import usnc
    return {"nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "usnc": usnc.__version__,
            "git_commit": _git_commit(),
            "timing": "wall-clock perf_counter; the host may run other load"}


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh processes importing usnc.cli and building."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import usnc.cli; "
            "import workloads; workloads.WORKLOADS[%r].build(%d)"
            % (str(SRC), str(BENCH_DIR), workload, seed))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def run_job(wl, inst, i: int, tracer=None):
    """One job: (wall time, item count, output), or None if it raised."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out, n_items = wl.job(inst, i)
        else:
            with tracer.span("bench.job"):
                out, n_items = wl.job(inst, i)
    except Exception:  # a failed job is counted, the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None
    return time.perf_counter() - t0, n_items, out


def reference_kernel() -> int:
    """Fixed work in numpy and plain Python that never calls usnc.

    Its mix resembles the jobs': numpy generator construction, small-array
    ufuncs inside a Python loop, and one vectorized popcount over 2^20
    words. Timing it next to every job measures the host's current speed.
    """
    acc = 0
    words = np.random.default_rng(0).integers(0, 2 ** 63, size=(16, 64),
                                              dtype=np.uint64)
    for i in range(200):
        rng = np.random.default_rng([7, i])
        m = rng.integers(0, 2, size=(8, 16), dtype=np.uint8)
        x = (rng.random(4096) < 0.1).astype(np.uint8)
        acc += int(np.count_nonzero(np.packbits(x, bitorder="little")))
        sel = np.flatnonzero(m[i % 8])
        acc += int(np.bitwise_count(
            np.bitwise_xor.reduce(words[sel], axis=0)).sum())
        for j in range(16):
            acc ^= (j * i) & 0xFF
    big = np.arange(1 << 20, dtype=np.uint32)
    return acc + int(np.bitwise_count(big ^ np.uint32(acc & 0xFFFF)).max())


def timed_loop(wl, inst, seconds: float):
    """Run the reference kernel and a job, back to back, for ``seconds``.

    Returns (per-job wall times, per-job item counts, outputs of the jobs
    that returned, number of jobs that raised, reference kernel times).
    """
    times, items, outputs, raised, ref_times = [], [], [], 0, []
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        reference_kernel()
        ref_times.append(time.perf_counter() - t0)
        done = run_job(wl, inst, i)
        i += 1
        if done is None:
            raised += 1
            continue
        times.append(done[0])
        items.append(done[1])
        outputs.append(done[2])
    return times, items, outputs, raised, ref_times


def run_checks(wl, inst, outputs, raised: int):
    """(attempted, failed, run-level ok, list of failure descriptions)."""
    per_job, run_level = wl.check(inst, outputs)
    attempted = (len(outputs) + raised) * wl.outcomes_per_job
    failed = raised * wl.outcomes_per_job
    problems = ["job raised"] * raised
    for outcomes in per_job:
        for label, ok, detail in outcomes:
            if not ok:
                failed += 1
                problems.append("%s: %s" % (label, detail))
    run_ok = True
    for label, ok, detail in run_level:
        print("check %-28s %s  %s" % (label, "PASS" if ok else "FAIL", detail))
        if not ok:
            run_ok = False
            problems.append("%s: %s" % (label, detail))
    return attempted, failed, run_ok, problems


def end_to_end(args, wl):
    setup = measure_setup(args.workload, args.seed, SETUP_REPEATS)
    inst = wl.build(args.seed)
    times, items, outputs, raised, ref_times = timed_loop(wl, inst,
                                                          args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, run_ok, problems = run_checks(wl, inst, outputs, raised)
    if not times:
        raise RuntimeError("no job completed in the timed phase")
    stats = {"setup_s": _summary(setup),
             "wall_s": _summary(times),
             "reference_s": _summary(ref_times),
             wl.rate_name: _summary([n / t for n, t in zip(items, times)]),
             "peak_rss_mb": _summary([rss_mb])}
    wall_ref = stats["wall_s"]["median"] / stats["reference_s"]["median"]
    metrics = {"setup_s": (stats["setup_s"]["median"], "s"),
               "wall_ref": (wall_ref, "ref"),
               "peak_rss_mb": (stats["peak_rss_mb"]["median"], "MB")}
    print("closed loop, 1 client, 1 thread; %d jobs, %d %s in %.2f s"
          % (len(times), sum(items), wl.item, sum(times)))
    for name, s in stats.items():
        tail = "" if s["tail"] is None else ", p%.0f %.6g" % (
            s["tail"]["percentile"], s["tail"]["value"])
        print("%-12s %12.6g %-4s median of %d (q1 %.6g, q3 %.6g%s)"
              % (name, s["median"], UNITS.get(name, "1/s"), s["n"], s["q1"],
                 s["q3"], tail))
    print("%-12s %12.6g %-4s median wall_s / median reference_s"
          % ("wall_ref", wall_ref, "ref"))
    print("%-12s %12.6g %-4s %d of %d checked outcomes failed"
          % ("fail_frac", failed / max(attempted, 1), "", failed, attempted))
    record = {"stats": stats, "wall_ref": wall_ref,
              "fail_frac": failed / max(attempted, 1),
              "setup_samples_s": setup, "job_times_s": times,
              "reference_times_s": ref_times}
    return metrics, attempted, failed, run_ok, problems, record


def traced(args, wl):
    import tracing
    inst = wl.build(args.seed)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            inst_t = wl.build(args.seed)
    # pairs of the same job, untraced then traced, so that slow drifts of
    # host speed cancel in the overhead ratio
    ratios, outputs, raised = [], [], 0
    for i in range(wl.trace_jobs):
        plain = run_job(wl, inst, i)
        with tracer.installed():
            traced_job = run_job(wl, inst_t, i, tracer)
        for done in (plain, traced_job):
            if done is None:
                raised += 1
            else:
                outputs.append(done[2])
        if plain is not None and traced_job is not None:
            ratios.append(traced_job[0] / plain[0])
    if not ratios:
        raise RuntimeError("no job pair completed in the traced phase")
    overhead = statistics.median(ratios) - 1.0
    reject_ratio = wl.reject_ratio(outputs) \
        if hasattr(wl, "reject_ratio") else 0.0
    values, table = tracing.per_layer_metrics(tracer, reject_ratio, overhead)
    metrics = {name: (value, tracing.PER_LAYER_METRICS[name][0])
               for name, value in values.items()}
    attempted, failed, run_ok, problems = run_checks(wl, inst, outputs,
                                                     raised)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("spans-%s-seed%d.npz" % (args.workload, args.seed))
    np.savez(spans_path, **tracer.arrays())
    layer_self = {k: v for k, v in table["layer_self_s"].items()
                  if k in tracing.LAYERS}
    top = max(layer_self, key=layer_self.get)
    predicted = PREDICTED_TOP_LAYER[args.workload]
    verdict = "matches" if top in predicted else "MISMATCH with"
    print("traced wall %.4f s over %d spans; %d job pairs, median traced/"
          "untraced time ratio - 1 = %.3g"
          % (table["wall_s"], table["spans"], len(ratios), overhead))
    for layer in sorted(table["layer_self_s"], key=table["layer_self_s"].get,
                        reverse=True):
        s = table["layer_self_s"][layer]
        print("layer %-10s self %10.4f s  share %.4f"
              % (layer, s, s / table["wall_s"]))
    print("top layer by self time: %s, which %s the prediction %s"
          % (top, verdict, " or ".join(predicted)))
    record = {"traced_wall_s": table["wall_s"], "spans": table["spans"],
              "by_name": table["by_name"], "top_layer": top,
              "predicted_top_layer": list(predicted),
              "top_layer_matches": top in predicted,
              "spans_file": str(spans_path.relative_to(ROOT)),
              "traced_over_untraced": ratios}
    return metrics, attempted, failed, run_ok, problems, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(PREDICTED_TOP_LAYER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "usnc" / "__init__.py").is_file():
        print("error: %s not found; run from a checkout of the repository"
              % (SRC / "usnc"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    phase = traced if args.trace else end_to_end
    metrics, attempted, failed, run_ok, problems, record = phase(args, wl)
    for line in problems[:20]:
        print("FAILED " + line)
    result = {"correct": run_ok and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "provenance": prov, "problems": problems,
                   "result": result})
    (OUT_DIR / ("run-%s-seed%d-trace%d.json"
                % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
