"""README command output against committed golden files.

tests/golden/ holds the stdout of each README command (eigs excepted: its
residual column is rounding noise that may differ across CPUs).  Headers
and non-float cells must match exactly, floats within 1e-11 relative or
1e-14 absolute, so a refactor that promises unchanged output is checked
here, and a deliberate change of output shows up as a golden-file diff.
tests/golden/pinned/ holds rows the README commands do not reach, compared
byte for byte.
"""

import json
import math
from pathlib import Path

import pytest

from altchain.cli import main

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "curve.csv": ["curve", "--n", "4", "--delta", "2.272", "--tmax", "12", "--samples", "2000"],
    "optimize.csv": ["optimize", "--n", "4", "--delta-min", "2.0", "--delta-max", "3.0"],
    "fixed-time.csv": [
        "fixed-time", "--n", "8", "--time", "60", "--delta-min", "2.0", "--delta-max", "3.0",
    ],
    "table1.csv": ["table1", "--delta", "2.380", "--n", "4,6,8,10,12,14,16"],
    "ideal4.csv": ["ideal4", "--max-product", "60"],
    "bound.json": ["bound", "--n", "5", "--delta", "2.0", "--format", "json"],
}

# the fine scan on long windows (N = 18..30 at 2.38, optimize windows of the
# long stride), the ratio polish on both sides of search._LOOK_AHEAD_SITES
# (fixed-time at N = 5, 9, 14 and at 33, 64) and the scans at ratio 8, where
# the kernels come closest to dynamics.rounding_bound
PINNED_COMMANDS = {
    "table1-2.38-n18-28.csv": ["table1", "--delta", "2.38", "--n", "18,20,22,24,26,28"],
    "table1-2.38-n30.csv": ["table1", "--delta", "2.38", "--n", "30"],
    "table1-8-n6-12.csv": ["table1", "--delta", "8", "--n", "6,8,10,12"],
    "optimize-n16-2-3.csv": ["optimize", "--n", "16", "--delta-min", "2", "--delta-max", "3"],
    "optimize-n16-4-4.5.csv": ["optimize", "--n", "16", "--delta-min", "4", "--delta-max", "4.5"],
    "optimize-n10-7.9-8.1.csv": ["optimize", "--n", "10", "--delta-min", "7.9", "--delta-max", "8.1"],
    "fixed-time-n5.csv": [
        "fixed-time", "--n", "5", "--time", "37.5", "--delta-min", "1.7", "--delta-max", "2.1",
    ],
    "fixed-time-n9.csv": [
        "fixed-time", "--n", "9", "--time", "60", "--delta-min", "2.0", "--delta-max", "2.3",
    ],
    "fixed-time-n14.csv": [
        "fixed-time", "--n", "14", "--time", "80", "--delta-min", "2.9", "--delta-max", "3.2",
    ],
    "fixed-time-n33.csv": [
        "fixed-time", "--n", "33", "--time", "40", "--delta-min", "1.5", "--delta-max", "3",
    ],
    "fixed-time-n64.csv": [
        "fixed-time", "--n", "64", "--time", "120", "--delta-min", "2", "--delta-max", "3",
    ],
}


def _same_cell(got, want) -> bool:
    """Exact for ints and text, within 1e-11 relative or 1e-14 absolute for floats."""
    if isinstance(got, str) and isinstance(want, str):
        try:
            got, want = int(got), int(want)
        except ValueError:
            try:
                got, want = float(got), float(want)
            except ValueError:
                return got == want
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-14)
    return got == want


def _table(text: str, name: str) -> tuple[list[str], list[list]]:
    """Header and rows of a rendered CSV or JSON table."""
    if name.endswith(".json"):
        rows = json.loads(text)
        return list(rows[0]), [list(row.values()) for row in rows]
    lines = text.split("\n")
    assert lines[-1] == "", "output must end with a newline"
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_readme_output_matches_golden(name, capsys):
    assert main(GOLDEN_COMMANDS[name]) == 0
    got_header, got_rows = _table(capsys.readouterr().out, name)
    want_header, want_rows = _table((GOLDEN / name).read_text(encoding="utf-8"), name)
    assert got_header == want_header
    assert len(got_rows) == len(want_rows)
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        assert len(got) == len(want), f"row {i + 1}"
        bad = [(g, w) for g, w in zip(got, want) if not _same_cell(g, w)]
        assert not bad, f"row {i + 1}: {bad}"


@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_pinned_output_is_byte_identical(name, capsys):
    assert main(PINNED_COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / "pinned" / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "got,want,same",
    [
        ("4", "4", True),
        ("4", "5", False),
        ("numeric", "numeric", True),
        ("1.00000000001", "1.00000000001", True),
        ("1.000000000001", "1.000000000002", True),  # 1e-12 relative
        ("1.0000000001", "1.0000000002", False),  # 1e-10 relative
        ("1e-15", "2e-15", True),  # below the absolute floor
        (0.5, 0.5 + 1e-9, False),
        (2, 2, True),
        (None, None, True),
    ],
)
def test_cell_comparison(got, want, same):
    assert _same_cell(got, want) is same
