"""Write reference.json: the results of the reference requests on this tree.

    python3 bench/reference.py

Run it on the commit that later changes are measured against (the
parent of the benchmark).  For each in-process workload it runs the
reference requests (workloads.reference_requests), checks them with
the numeric oracle and records each result row
(n, delta_h, t_h, p_h, pi_over_lambda_min).  A timed run repeats the
same requests and fails every one whose p_h falls below its reference
by more than workloads.REFERENCE_TOL: a faster search must not find a
worse peak.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        entries = []
        for request in workloads.reference_requests(workload):
            rows = workloads.execute(request)
            error = workloads.check_result(request, rows)
            if error:
                print(f"{workload} {request}: {error}", file=sys.stderr)
                return 1
            entries.append({"request": request, "rows": [list(row) for row in rows]})
        if entries:
            reference[workload] = entries
    lines = [f" {json.dumps(workload)}: [\n" + ",\n".join(f"  {json.dumps(e)}" for e in entries)
             + "\n ]" for workload, entries in reference.items()]
    (BENCH / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
