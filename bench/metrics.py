"""Names and units of every metric the benchmark reports.

BENCHMARK.json at the repository root is the one list of the bounded
end-to-end metrics and of the per-layer metrics; this module reads it.
Only what BENCHMARK.json does not hold is kept here.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# The result line of every --trace 0 run carries these; BENCHMARK.json
# bounds them.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# The result line of every --trace 1 run carries these.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed in the detail line only.  error_rate reads 0 on a healthy
# tree, and a bound relative to 0 means nothing (the result's
# attempted/failed carry it); peak_rss_mb flips between two levels from
# run to run on first-peak (NOTES.md), a spread no 25% bound absorbs.
UNGATED = {
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}

# The cli workload sends one of each per round.
CLI_COMMANDS = ("eigs", "curve", "ideal4", "bound", "table1", "verify")
