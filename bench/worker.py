"""One workload in a fresh interpreter: the single client of a closed loop.

run.py starts this script with altchain's sources on PYTHONPATH.  It
imports what the workload needs, runs the fixed warm-up request, prints
"ready" (which ends the set-up that run.py times) and then, by --mode:

  setup   exits;
  timed   sends requests one after another until --seconds have passed,
          or exactly --count requests when --count is given; with
          --setup-every it also launches a set-up process that often,
          with the clock stopped;
  traced  replays the first --count requests untraced, then again with
          the span wrappers installed.

The correctness checks run after the timed phase, never inside it.
After them a timed run repeats the reference requests and compares
their results with reference.json.
The last line of stdout is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import metrics
import spans
import workloads
from launch import SetupSampler

CLI_TIMEOUT_S = 120.0
REFERENCE = Path(__file__).resolve().parent / "reference.json"


class Record(NamedTuple):
    request: dict
    latency: float
    output: str  # rendered rows, or the cli's stdout
    error: str   # empty when the request succeeded and passed its check
    rows: list   # in-process results, for the check after the timed phase


def _in_process(request: dict) -> tuple[str, str, list]:
    try:
        rows = workloads.execute(request)
    except Exception as exc:  # a failed request is counted, not fatal
        return "", f"{type(exc).__name__}: {exc}", []
    return workloads.render(rows), "", rows


def _cli_subprocess(request: dict) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "altchain.cli", *request["argv"]],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def _cli_in_process(request: dict) -> tuple[int, str]:
    """altchain.cli.main(argv) in this process."""
    from altchain import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(request["argv"])
    return code, out.getvalue()


def run_requests(workload: str, requests: Iterable[dict], seconds: float | None = None,
                 in_process_cli: bool = False, tracer: spans.Tracer | None = None,
                 pause: Callable[[], float] | None = None) -> tuple[list[Record], float]:
    """Closed loop: each request is sent when the previous one returned.

    Sends requests until `seconds` have passed (all of them when None).
    `pause`, called between requests, returns the seconds it took; they
    are left off the clock.  Returns the records and the wall time from
    the first send to the last completion.  Checks are left to `check`.
    """
    records: list[Record] = []
    paused = 0.0
    start = time.perf_counter()
    for i, request in enumerate(requests):
        if records and seconds is not None and time.perf_counter() - start - paused >= seconds:
            break
        if records and pause is not None:
            paused += pause()
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        rows: list = []
        if workload != "cli":
            output, error, rows = _in_process(request)
        elif in_process_cli:
            code, output = _cli_in_process(request)
            error = workloads.check_cli(request, code, output)
        else:
            code, output = _cli_subprocess(request)
            error = workloads.check_cli(request, code, output)
        records.append(Record(request, time.perf_counter() - t0, output, error, rows))
    return records, time.perf_counter() - start - paused


def check(records: list[Record], references: list | None = None) -> list[Record]:
    """Apply the numeric oracle to in-process results (cli ones are checked inline).

    `references` holds, per record, the reference rows to compare with.
    """
    references = references or [None] * len(records)
    return [
        rec._replace(error=workloads.check_result(rec.request, rec.rows, ref))
        if rec.rows and not rec.error else rec
        for rec, ref in zip(records, references)
    ]


def reference_records(workload: str) -> list[Record]:
    """The reference requests of reference.json, run and checked against it."""
    stored = json.loads(REFERENCE.read_text()).get(workload, [])
    records, _ = run_requests(workload, [entry["request"] for entry in stored])
    return check(records, [entry["rows"] for entry in stored])


def digest(records: list[Record]) -> str:
    sha = hashlib.sha256()
    for rec in records:
        sha.update(rec.output.encode())
    return sha.hexdigest()


def summary(records: list[Record]) -> dict:
    errors = [f"{json.dumps(r.request)}: {r.error}" for r in records if r.error]
    return {
        "attempted": len(records),
        "failed": len(errors),
        "errors": errors[:5],
        "output_digest": digest(records),
    }


def timed(workload: str, seed: int, seconds: float, count: int | None,
          setup_every: float | None) -> dict:
    requests = workloads.stream(workload, seed)
    if count is not None:
        requests, seconds = itertools.islice(requests, count), None
    sampler = SetupSampler(workload, seed, setup_every) if setup_every else None
    records, wall = run_requests(workload, requests, seconds, pause=sampler)
    # Read before the reference requests run, which are not part of the
    # timed phase; the set-up children are smaller than the cli requests.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    records = check(records)
    return {
        **summary(records + reference_records(workload)),
        "wall_s": wall,
        "latencies": [r.latency for r in records],
        "setup_samples_s": sampler.samples if sampler else [],
        "peak_rss_mb": peak_rss_mb,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _cli_layers(base: list[Record], base_wall: float, sub_wall: float) -> dict[str, float]:
    layers = {f"cli.{command}.inproc_s":
              _median([r.latency for r in base if r.request["command"] == command])
              for command in metrics.CLI_COMMANDS}
    layers["cli.startup_share"] = 1.0 - base_wall / sub_wall
    return layers


def verify_check_times() -> dict[str, float]:
    """verify.<check>.busy_s: each check of altchain verify run on its own.

    One pass over verify.CHECKS; only the checks BENCHMARK.json names
    are reported.
    """
    from altchain import verify

    times = {}
    for name, _ in verify.CHECKS:
        metric = f"verify.{name}.busy_s"
        if metric in metrics.PER_LAYER:
            start = time.perf_counter()
            verify.run_all(stream=io.StringIO(), checks=[name])
            times[metric] = time.perf_counter() - start
    return times


def traced(workload: str, seed: int, count: int, spans_path: str) -> dict:
    requests = workloads.take(workload, seed, count)
    layers: dict[str, float] = {}
    design: dict[str, float] = {}
    if workload == "cli":
        sub, sub_wall = run_requests(workload, requests)
        base, base_wall = run_requests(workload, requests, in_process_cli=True)
        layers = {**_cli_layers(base, base_wall, sub_wall), **verify_check_times()}
        design["subprocess_p50_s"] = _median([r.latency for r in sub])
        untraced = sub + base
    else:
        untraced, base_wall = run_requests(workload, requests)

    tracer = spans.Tracer()
    with tracer.installed():
        traced_records, traced_wall = run_requests(
            workload, requests, in_process_cli=True, tracer=tracer)
    tracer.write(spans_path)
    layers.update(spans.layer_metrics(tracer.spans))
    layers["trace.overhead_frac"] = traced_wall / base_wall - 1.0
    return {
        **summary(check(untraced) + check(traced_records)),
        "layers": layers,
        "design": {**design, **spans.design_shares(tracer.spans),
                   "span_count": len(tracer.spans)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--setup-every", type=float, default=None,
                        help="timed mode: seconds between set-up launches")
    parser.add_argument("--spans", default=os.devnull, help="span file of the traced mode")
    args = parser.parse_args()

    if args.workload != "cli":
        import altchain  # noqa: F401
    elif args.mode == "traced":
        import altchain.cli  # noqa: F401
    if args.workload in workloads.WARMUP:
        workloads.execute(workloads.WARMUP[args.workload])
    print("ready", flush=True)

    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = timed(args.workload, args.seed, args.seconds, args.count, args.setup_every)
    else:
        result = traced(args.workload, args.seed, args.count, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
