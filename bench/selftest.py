"""Self-test of the benchmark on a tiny load (about a minute).

    python3 bench/selftest.py

For every workload it runs bench/run.py --quick twice untraced and once
traced, and checks that the result line has exactly the agreed keys,
that every metric of BENCHMARK.json is present with its unit, that no
request failed (the reference requests of reference.json included),
and that the two untraced runs produced the same output digest.  It
also checks that the benchmark refuses to run without altchain's
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def quick(workload: str, trace: int) -> tuple[dict, dict]:
    code, lines = run(["--workload", workload, "--seed", "1", "--trace", str(trace),
                       "--quick"])
    if code != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace {trace}: exit {code}, output {lines}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(workload: str, trace: int, detail: dict, result: dict,
                 expected: dict[str, str]) -> None:
    where = f"{workload} trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        f"{where}: {detail['errors']}")
    assert detail["error_rate"] == {"value": 0.0, "unit": metrics.UNGATED["error_rate"]}, where
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{where}: metrics {sorted(set(got) ^ set(expected))} differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} = {m['value']!r}"


def main() -> int:
    for workload in workloads.WORKLOADS:
        first, second = quick(workload, 0), quick(workload, 0)
        for detail, result in (first, second):
            check_result(workload, 0, detail, result, metrics.END_TO_END)
            assert detail["peak_rss_mb"]["value"] > 0, workload
        assert first[0]["output_digest"] == second[0]["output_digest"], (
            f"{workload}: reruns differ")
        detail, result = quick(workload, 1)
        check_result(workload, 1, detail, result, metrics.PER_LAYER)
        print(f"{workload:11s} ok  digest {first[0]['output_digest'][:16]}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    code, lines = run(["--workload", "fixed-time", "--seed", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not lines, f"ran without sources: exit {code}, output {lines}"
    print("no sources  refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
