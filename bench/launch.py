"""Set-up launches: how long a fresh process of a workload takes to be ready.

run.py launches a few before and after the timed phase, and worker.py
a few during it, with its clock stopped, so that the reported median
spans the whole run.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170.0


def setup_time(workload: str, seed: int, env: dict[str, str] | None = None) -> float:
    """Seconds until a fresh process of this workload is ready.

    In-process workloads: worker.py --mode setup until it prints "ready"
    (interpreter, import, warm-up request).  cli: a fresh interpreter
    that imports altchain.cli, until it has exited.
    """
    if workload == "cli":
        argv = [sys.executable, "-c", "import altchain.cli"]
    else:
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--mode", "setup"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=TIMEOUT_S)
        if workload == "cli":
            elapsed = time.perf_counter() - start
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or (workload != "cli" and ready.strip() != "ready"):
        raise RuntimeError(f"set-up launch of {workload} failed with exit code "
                           f"{proc.returncode}")
    return elapsed


class SetupSampler:
    """Set-up launches spread over a timed phase, outside its clock.

    Called between two requests, it launches one set-up process when
    `every` seconds have passed since the last one, and returns the
    seconds it took (0 otherwise), which the caller leaves off its
    clock.
    """

    def __init__(self, workload: str, seed: int, every: float) -> None:
        self.workload, self.seed, self.every = workload, seed, every
        self.samples: list[float] = []
        self._next = time.perf_counter() + every

    def __call__(self) -> float:
        start = time.perf_counter()
        if start < self._next:
            return 0.0
        self.samples.append(setup_time(self.workload, self.seed))
        end = time.perf_counter()
        self._next = end + self.every
        return end - start
