"""Steadiness of the benchmark: run each workload several times, one seed each.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

For every end-to-end metric of BENCHMARK.json it prints the median of the
runs and the spread, the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound. A spread above a third of the bound is flagged; `setup_s` is
exempt from the spread rule and is compared across sets of runs only. The
failed share of operations must be the same in every run. Runs happen one
after the other; the mean wall time of a run gives the time that all of the
4 + 22 x (workloads) runs of a full comparison would take.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    steady = True
    elapsed = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        elapsed += [r["elapsed_s"] for r in results]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct={correct}, failed shares={sorted(shares)}")
        steady &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            flag = "ok" if name == "setup_s" or share <= bound / 3 else "WIDE"
            steady &= flag == "ok"
            print(f"  {name:14s} median {median:12.6g} {metric['unit']:5s} spread {share:7.2%}"
                  f"  bound {bound:.0%}  {flag}   values "
                  + " ".join(f"{v:.5g}" for v in values))
    runs = 4 + 22 * len(spec["workloads"])
    print(f"mean run {statistics.mean(elapsed):.1f} s; {runs} runs take about "
          f"{runs * statistics.mean(elapsed):.0f} s")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
