"""Property tests over the numeric flags of every command but `verify`.

Every input either exits 0 with finite values (probabilities in
[0, 1]) or exits 1 or 3 with a message on stderr and nothing on stdout.
The one exception is a `table1` row that the sweep refuses: it prints
as NaN, and a warning on stderr names its N.
"""

import contextlib
import io
import logging
import math

from hypothesis import example, given, settings, strategies as st

from altchain.cli import main

EXTREMES = ["inf", "-inf", "nan", "0", "-0", "-1", "1e300", "-1e300", "5e-324"]
# integer flags that parse to no int, or to one beyond every cap
HUGE_COUNTS = ["inf", "-inf", "1e300", "99999999999999999999", "-99999999999999999999"]
# the provenance column of each `eigs --method`
PROVENANCE = {"numeric": "numeric", "even": "analytic-even", "odd": "analytic-odd"}


def assert_huge_refused(code: int, err: str) -> None:
    """A chain length from HUGE_COUNTS never runs, and ends without a traceback.

    Another flag may be refused first (exit 1).  A length above the site
    cap is refused before any N-sized array is allocated, with exit 3.
    """
    assert code != 0 and "Traceback" not in err, err
    if "above the cap" in err:
        assert code == 3
    else:
        assert code == 1


def numbers(lo: float, hi: float):
    return st.one_of(st.sampled_from(EXTREMES), st.floats(lo, hi).map(repr))


def counts(lo: int, hi: int):
    return st.one_of(st.sampled_from(["0", "-2", "1e300", "nan"]), st.integers(lo, hi).map(str))


def ratio_range(step: float):
    """(--delta-min, --delta-max): an extreme upper end, or at most 50 grid steps above."""

    def bounds(lo: str, width: float | str) -> tuple[str, str]:
        return lo, width if isinstance(width, str) else repr(float(lo) + width)

    # finite values first: one_of leans towards its first branch
    return st.tuples(
        st.one_of(st.floats(2.0, 4.0).map(repr), st.sampled_from(EXTREMES)),
        st.one_of(st.floats(0.0, 50 * step), st.sampled_from(EXTREMES)),
    ).map(lambda pair: bounds(*pair))


def run(argv: list[str]) -> tuple[int, list[list[str]], str]:
    out, err = io.StringIO(), io.StringIO()
    # the warnings the cli logs to stderr; pytest holds the root logger,
    # so they reach err through a handler of their own
    handler = logging.StreamHandler(err)
    logging.getLogger("altchain.cli").addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        logging.getLogger("altchain.cli").removeHandler(handler)
    if code != 0:
        assert code in (1, 3), (argv, code, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error:", "numeric failure:")), err.getvalue()
        return code, [], err.getvalue()
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    return code, rows, err.getvalue()


def assert_inside(delta_h: str, delta_min: str, delta_max: str) -> None:
    # the ratio is printed to 12 digits, and so are the range ends here
    lo, hi = (float(format(float(v), ".12g")) for v in (delta_min, delta_max))
    assert lo <= float(delta_h) <= hi


@settings(deadline=None, max_examples=60)
@given(
    n=st.one_of(counts(2, 400), st.sampled_from(HUGE_COUNTS)),
    delta=numbers(1e-3, 1e3),
    method=st.sampled_from(sorted(PROVENANCE)),
)
@example(n="99999999999999999999", delta="2.0", method="numeric")
# delta^(N+1) overflows: the odd closed form refuses its zero mode
@example(n="301", delta="1e3", method="odd")
def test_eigs_outcomes(n, delta, method):
    # the closed forms refuse what they cannot hold: a chain of the other
    # parity or below the even threshold (exit 1), an overflowing
    # normalisation (exit 3)
    code, rows, err = run(["eigs", f"--n={n}", "--delta", delta, "--method", method])
    if n in HUGE_COUNTS:
        assert_huge_refused(code, err)
    if code != 0:
        return
    assert len(rows) == int(n)
    for _, lam, provenance, residual, diff in rows:
        assert provenance == PROVENANCE[method]
        assert all(math.isfinite(float(v)) for v in (lam, residual, diff))
    # the printed +-lambda pairs agree to the printed precision
    levels = [float(row[1]) for row in rows]
    assert levels == [-lam for lam in reversed(levels)]


@settings(deadline=None, max_examples=60)
@given(
    n=st.one_of(counts(2, 64), st.sampled_from(HUGE_COUNTS)),
    delta=numbers(1e-3, 50.0),
    tmax=numbers(1e-3, 1e4),
    samples=counts(1, 400),
    node=counts(1, 70),
)
@example(n="99999999999999999999", delta="2.0", tmax="5.0", samples="3", node="1")
def test_curve_outcomes(n, delta, tmax, samples, node):
    code, rows, err = run(
        ["curve", f"--n={n}", "--delta", delta, "--tmax", tmax, "--samples", samples,
         "--node", node]
    )
    if n in HUGE_COUNTS:
        assert_huge_refused(code, err)
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
    code, rows, _ = run(
        ["fixed-time", "--n", n, "--time", time, "--delta-min", delta_min,
         "--delta-max", delta_max]
    )
    if code != 0:
        return
    [(n_out, t, delta_h, p_h)] = rows
    assert n_out == n
    assert_inside(delta_h, delta_min, delta_max)
    assert math.isfinite(float(t))
    assert 0.0 <= float(p_h) <= 1.0


@settings(deadline=None, max_examples=60)
# n in 2..8, mostly even: an odd chain only exits 1
@given(
    n=st.one_of(st.integers(1, 4).map(lambda k: 2 * k), st.integers(2, 8)).map(str),
    ratios=ratio_range(0.002),
)
def test_optimize_outcomes(n, ratios):
    delta_min, delta_max = ratios
    # "--flag=value", so that argparse takes "-1" as a value, not a flag
    code, rows, _ = run(
        ["optimize", "--n", n, f"--delta-min={delta_min}", f"--delta-max={delta_max}"]
    )
    if code != 0:
        return
    [(n_out, delta_h, t_h, p_h, estimate)] = rows
    assert n_out == n
    assert_inside(delta_h, delta_min, delta_max)
    assert all(math.isfinite(float(v)) for v in (t_h, estimate))
    assert 0.0 <= float(p_h) <= 1.0


@settings(deadline=None, max_examples=60)
@given(
    delta=numbers(1e-3, 20.0),
    lengths=st.lists(
        st.one_of(st.integers(2, 8), st.sampled_from(HUGE_COUNTS)), min_size=1, max_size=4
    ),
)
@example(delta="2.0", lengths=[4, "99999999999999999999"])
def test_table1_outcomes(delta, lengths):
    code, rows, err = run(["table1", f"--delta={delta}", f"--n={','.join(map(str, lengths))}"])
    if any(v in HUGE_COUNTS for v in lengths):
        assert_huge_refused(code, err)
    if code != 0:
        return
    assert [int(row[0]) for row in rows] == sorted(set(lengths))
    for n, _, t_h, p_h, estimate in rows:
        values = [float(v) for v in (t_h, p_h, estimate)]
        if any(math.isnan(v) for v in values):
            # a refused row: all NaN, and a warning that names its N
            assert all(math.isnan(v) for v in values)
            assert f"N={n} skipped" in err
        else:
            assert all(math.isfinite(v) for v in values)
            assert 0.0 <= values[1] <= 1.0


@settings(deadline=None, max_examples=40)
@given(max_product=st.one_of(st.sampled_from(HUGE_COUNTS), counts(1, 3000)))
def test_ideal4_outcomes(max_product):
    code, rows, _ = run(["ideal4", f"--max-product={max_product}"])
    if code != 0:
        return
    assert rows[0][:2] == ["3", "1"]
    for a, b, delta_bar, t_bar, probability in rows:
        assert int(a) * int(b) <= int(max_product)
        assert all(math.isfinite(float(v)) for v in (delta_bar, t_bar, probability))
        assert 0.0 <= float(probability) <= 1.0


@settings(deadline=None, max_examples=60)
@given(n=st.one_of(st.sampled_from(HUGE_COUNTS), counts(1, 201)), delta=numbers(1e-3, 50.0))
def test_bound_outcomes(n, delta):
    code, rows, _ = run(["bound", f"--n={n}", f"--delta={delta}"])
    if code != 0:
        return
    assert len(rows) == (int(n) - 1) // 2
    for row in rows:
        # every column after n, delta and j is a probability or a cap on one
        assert math.isfinite(float(row[1]))
        assert all(0.0 <= float(v) <= 1.0 for v in row[3:])
