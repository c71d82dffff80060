"""altchain benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload fixed-time --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; altchain is imported from ./src.
With --trace 0 the run times a closed loop of requests for --seconds
and prints the end-to-end metrics; with --trace 1 it replays a fixed
prefix of the same request stream untraced and traced, and prints the
per-layer metrics.  --quick swaps the time budget for a few requests.
The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it the full detail: context, error rate, tail
percentile and sample count, output digest and design shares.  The
exit code is 0 only when a result was printed.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads
from launch import setup_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Launches behind the reported (median) set-up time: two before the
# timed phase, the worker's own (not for cli), one every SETUP_EVERY_S
# seconds during the timed phase (the worker stops its clock for them)
# and two after it, so that the median spans the run rather than the
# machine's speed during a few seconds of it.  One more untimed launch
# comes first: a user who starts altchain again finds its files in the
# page cache.
SETUP_LAUNCHES_EACH_SIDE = 2
SETUP_EVERY_S = 4.0
# Tail percentile per workload: the highest whole percentile that still
# leaves at least ten samples beyond it on a 30-second run 20% slower
# than those of the baseline machine (NOTES.md).
TAIL_PERCENTILE = {"fixed-time": 90, "first-peak": 60, "cli": 60}
IMPORT_LAUNCHES = 3
WORKER_TIMEOUT_S = 170.0


def python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch_wall(argv: list[str], env: dict[str, str]) -> float:
    """Wall time of a short-lived interpreter that must exit 0."""
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - start


def run_worker(args: list[str], env: dict[str, str]) -> tuple[float, dict | None]:
    """Start worker.py; (seconds until it printed "ready", its result or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args], env=env,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(args, env) -> tuple[dict, dict]:
    side = 1 if args.quick else SETUP_LAUNCHES_EACH_SIDE
    setup_time(args.workload, args.seed, env)
    setups = [setup_time(args.workload, args.seed, env) for _ in range(side)]
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "timed",
                   "--seconds", str(args.seconds)]
    if args.quick:
        worker_args += ["--count", str(workloads.QUICK_COUNT[args.workload])]
    else:
        worker_args += ["--setup-every", str(SETUP_EVERY_S)]
    setup, res = run_worker(worker_args, env)
    if args.workload != "cli":
        setups.append(setup)
    setups += res["setup_samples_s"]
    setups += [setup_time(args.workload, args.seed, env) for _ in range(side)]

    lat = res["latencies"]
    q = TAIL_PERCENTILE[args.workload]
    tail = percentile(lat, q) if len(lat) > 1 else lat[0]
    values = {
        "throughput_rps": len(lat) / res["wall_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "setup_s": statistics.median(setups),
    }
    detail = {
        "metrics": {k: {"value": v, "unit": metrics.END_TO_END[k]} for k, v in values.items()},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": metrics.UNGATED["peak_rss_mb"]},
        "tail_percentile": q,
        "samples": len(lat),
        "samples_beyond_tail": sum(v > tail for v in lat),
        "setup_samples_s": setups,
        "wall_s": res["wall_s"],
    }
    return res, detail


def import_metrics(env: dict[str, str], launches: int) -> dict[str, float]:
    """Interpreter start and the import of altchain, from -X importtime."""
    interp = [launch_wall([sys.executable, "-c", "pass"], env) for _ in range(launches)]
    cumulative: dict[str, list[float]] = {"altchain": [], "scipy.sparse": []}
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import altchain"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=WORKER_TIMEOUT_S)
        seen = set()
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            name = fields[-1].strip()
            if len(fields) == 3 and name in cumulative and name not in seen:
                seen.add(name)
                cumulative[name].append(int(fields[1].strip()) * 1e-6)
    return {
        "import.interpreter_s": statistics.median(interp),
        "import.altchain_s": statistics.median(cumulative["altchain"] or [0.0]),
        "import.scipy_sparse_s": statistics.median(cumulative["scipy.sparse"] or [0.0]),
    }


def traced_run(args, env) -> tuple[dict, dict]:
    count = (workloads.QUICK_COUNT if args.quick else workloads.TRACE_COUNT)[args.workload]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    _, res = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                         "--mode", "traced", "--count", str(count),
                         "--spans", str(spans_path)], env)
    layers = {**res["layers"], **import_metrics(env, 1 if args.quick else IMPORT_LAUNCHES)}
    if args.workload == "cli":
        res["design"]["import_share_of_subprocess_p50"] = (
            layers["import.interpreter_s"] + layers["import.altchain_s"]
        ) / res["design"]["subprocess_p50_s"]
    return res, {
        # A layer this workload does not reach reads 0.
        "metrics": {k: {"value": layers.get(k, 0.0), "unit": u}
                    for k, u in metrics.PER_LAYER.items()},
        "design": res["design"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def context(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ALTCHAIN_WORKERS": os.environ.get(
            "ALTCHAIN_WORKERS", f"unset (default os.cpu_count() = {os.cpu_count()})"),
        "commit": None,
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        info["commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                        text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True).stdout
        info["dirty"] = bool(status.strip())
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few requests instead of a time budget (self-test, CI)")
    args = parser.parse_args(argv)

    if not (SRC / "altchain" / "__init__.py").is_file():
        print(f"error: no altchain sources under {SRC}", file=sys.stderr)
        return 2
    res, detail = (traced_run if args.trace else timed_run)(args, python_env())

    attempted, failed = res["attempted"], res["failed"]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "quick": args.quick,
        "error_rate": {"value": failed / attempted, "unit": metrics.UNGATED["error_rate"]},
        "output_digest": res["output_digest"],
        "errors": res["errors"],
        **detail,
        "context": context(args.seed),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
