#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workload hz-basic --seeds 1-10 \
        [--seconds 15] [--trace 0]

Runs run.py once per seed and prints, per metric, the median, the
interquartile distance over the median (statistics.quantiles, n=4) and
that spread as a share of the metric's bound in BENCHMARK.json. A bound
is met with margin when the spread stays below a third of it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import metrics as m  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{result['correct']} failed {result['failed']}/"
              f"{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<28} {'median':>12} {'spread':>8} {'bound':>6} "
          f"{'share':>6}")
    for name, vs in values.items():
        spread = m.relative_spread(vs) if len(vs) >= 2 else 0.0
        bound = bounds.get(name)
        share = spread / bound if bound else float("nan")
        print(f"{name:<28} {m.median(vs):>12.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '-':>6} {share:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
