"""Run the benchmark once per seed and report each metric's spread.

    python3 benchmarks/spread.py --workload honest-mc --seeds 1-10 --seconds 15

Runs ``run.py`` sequentially (one process at a time), then prints, per
metric, the median of the per-run values and the quartile spread
(q3 - q1) / median with quartiles from ``statistics.quantiles(n=4)``.
``--out FILE`` writes every run's result, its run record from
``benchmarks/out/`` and the summary as JSON, so two commits can be
compared on the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
OUT_DIR = RUN.parent / "out"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["record"] = json.loads((OUT_DIR / (
            "run-%s-seed%d-trace%d.json"
            % (args.workload, seed, args.trace))).read_text())
        runs.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)
    summary = {}
    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            summary[name] = spread([r["metrics"][name]["value"]
                                    for r in runs])
            s = summary[name]
            print("%-14s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"]))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "trace": args.trace, "runs": runs, "summary": summary},
            indent=1, sort_keys=True))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
