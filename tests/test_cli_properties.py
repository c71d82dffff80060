"""Property tests over the numeric flags of `eigs`, `curve` and `fixed-time`.

Every input either exits 0 with finite values (probabilities in
[0, 1]) or exits 1 or 3 with a message on stderr and nothing on stdout.
"""

import contextlib
import io
import math

from hypothesis import given, settings, strategies as st

from altchain.cli import main

EXTREMES = ["inf", "-inf", "nan", "0", "-0", "-1", "1e300", "-1e300", "5e-324"]


def numbers(lo: float, hi: float):
    return st.one_of(st.sampled_from(EXTREMES), st.floats(lo, hi).map(repr))


def counts(lo: int, hi: int):
    return st.one_of(st.sampled_from(["0", "-2", "1e300", "nan"]), st.integers(lo, hi).map(str))


def run(argv: list[str]) -> tuple[int, list[list[str]]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        assert code in (1, 3), (argv, code, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error:", "numeric failure:")), err.getvalue()
        return code, []
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    return code, rows


@settings(deadline=None, max_examples=60)
@given(n=counts(2, 64), delta=numbers(1e-3, 50.0))
def test_eigs_outcomes(n, delta):
    code, rows = run(["eigs", "--n", n, "--delta", delta])
    if code != 0:
        return
    assert len(rows) == int(n)
    for _, lam, provenance, residual, diff in rows:
        assert provenance == "numeric"
        assert all(math.isfinite(float(v)) for v in (lam, residual, diff))
    # the printed +-lambda pairs agree to the printed precision
    levels = [float(row[1]) for row in rows]
    assert levels == [-lam for lam in reversed(levels)]


@settings(deadline=None, max_examples=60)
@given(
    n=counts(2, 64),
    delta=numbers(1e-3, 50.0),
    tmax=numbers(1e-3, 1e4),
    samples=counts(1, 400),
    node=counts(1, 70),
)
def test_curve_outcomes(n, delta, tmax, samples, node):
    code, rows = run(
        ["curve", "--n", n, "--delta", delta, "--tmax", tmax, "--samples", samples,
         "--node", node]
    )
    if code != 0:
        # a node beyond the chain is invalid input, never a numeric failure
        if node.isdigit() and n.isdigit() and int(node) > int(n) >= 2:
            assert code == 1
        return
    assert len(rows) == int(samples)
    for t, p in rows:
        assert math.isfinite(float(t))
        assert 0.0 <= float(p) <= 1.0


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 12).map(str),
    time=numbers(1e-3, 1e4),
    delta_min=numbers(1e-3, 20.0),
    delta_max=numbers(1e-3, 20.0),
)
def test_fixed_time_outcomes(n, time, delta_min, delta_max):
    code, rows = run(
        ["fixed-time", "--n", n, "--time", time, "--delta-min", delta_min,
         "--delta-max", delta_max]
    )
    if code != 0:
        return
    [(n_out, t, delta_h, p_h)] = rows
    assert n_out == n
    # the ratio is printed to 12 digits, and so are the range ends here
    lo, hi = (float(format(float(v), ".12g")) for v in (delta_min, delta_max))
    assert lo <= float(delta_h) <= hi
    assert math.isfinite(float(t))
    assert 0.0 <= float(p_h) <= 1.0
