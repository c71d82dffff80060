"""Seed-to-seed spread of the end-to-end metrics.

    python3 bench/spread.py --workload first-peak --seeds 1-10 [--seconds 25] [--json FILE]

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  A benchmark is
steady when every spread except that of setup_s stays below a third of
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--json", default=None, help="also write the summary here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    summary: dict = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()[-1]
            result = json.loads(out)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result {out}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "steady" if spread < bound / 3 else "within bound" if spread <= bound
                else "TOO WIDE")
            print(f"{workload:11s} {name:15s} median {med:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {spread:6.3f}  bound {bound}  {verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
