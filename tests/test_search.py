"""Peak search, ratio optimisation, sweeps."""

import math

import numpy as np
import pytest

from altchain import (
    ChainSpec,
    HorizonError,
    ValidationError,
    eigensystem_for,
    first_peak,
    fixed_time_optimize,
    optimize_delta,
    paired_transfer_probability,
    sample_curve,
    spectra,
    table1_sweep,
    transfer_probability,
)
from altchain import search as search_mod

# frozen search outputs, produced on the closed-form eigensystems and
# reproduced by the SVD engine within the tolerances asserted
FIRST_PEAK_N4 = (8.30319227754957, 0.9999853752983222)
FIRST_PEAK_N6 = (21.428215279877328, 0.9969859762438591)
FIRST_PEAK_N8 = (58.96618165786005, 0.9886551620968724)
# odd chains at ratio 2.380, the rows of table1_sweep(2.38, [5, 7, 9]) as
# the complex-exponential scan found them
FIRST_PEAK_N5 = (1.9730960117242953, 0.020364436159806276)
FIRST_PEAK_N7 = (2.2486934683406923, 0.0005631763083313536)
FIRST_PEAK_N9 = (2.434845321779752, 5.9844511561467556e-06)


@pytest.mark.parametrize(
    "n,delta,expected",
    [
        (4, 2.272, FIRST_PEAK_N4),
        (6, 2.373, FIRST_PEAK_N6),
        (8, 2.557, FIRST_PEAK_N8),
        (5, 2.38, FIRST_PEAK_N5),
        (7, 2.38, FIRST_PEAK_N7),
        (9, 2.38, FIRST_PEAK_N9),
    ],
)
def test_first_peak_frozen(n, delta, expected):
    triad = first_peak(ChainSpec(n, delta))
    assert triad.delta_h == delta
    assert triad.t_h == pytest.approx(expected[0], abs=1e-6)
    assert triad.p_h == pytest.approx(expected[1], abs=1e-9)


# 40-digit references (mpmath eigensystem of each chain at ratio 2.38):
# the root of dP/dt at the first peak of an even chain, and the window
# end 1.3*pi/lambda_min of an odd chain whose P still rises there;
# N = 28 and 30 scan 3.9e7 and 8.7e7 samples
SLOPE_ROOTS = {
    4: 8.084485963697805253,
    8: 57.65363980974370850,
    12: 265.6304953460517005,
    16: 1882.200950450927978,
    28: 298238.0670597304338,
    30: 672835.9414809142796,
}
WINDOW_ENDS = {5: 1.973096016057523056, 19: 2.793529555228875849, 23: 2.840964068606737887}


@pytest.mark.parametrize("n", sorted(SLOPE_ROOTS))
def test_first_peak_time_is_the_slope_root(n):
    assert first_peak(ChainSpec(n, 2.38)).t_h == pytest.approx(SLOPE_ROOTS[n], rel=1e-12)


@pytest.mark.parametrize("n", sorted(WINDOW_ENDS))
def test_odd_first_peak_keeps_the_window_end(n):
    triad = first_peak(ChainSpec(n, 2.38))
    assert triad.t_h == pytest.approx(WINDOW_ENDS[n], rel=1e-12)
    assert triad.t_h == pytest.approx(1.3 * triad.lambda_min_estimate, rel=1e-15)


@pytest.mark.parametrize(
    "n,delta", [(4, 2.38), (5, 2.38), (16, 2.38), (19, 2.38), (23, 2.38), (14, 2.3245)]
)
def test_first_peak_never_below_best_sample(n, delta):
    # the scan grid of first_peak, rebuilt from its documented rule
    triad = first_peak(ChainSpec(n, delta))
    lam, ends = (x[0] for x in spectra(n, np.array([delta])))
    window = 1.3 * math.pi / lam[n // 2 - 1]
    count = math.ceil(window / min(0.01, math.pi / (50 * lam[0])))
    times = np.arange(1, count + 1) * (window / count)
    assert triad.p_h >= paired_transfer_probability(lam, ends, times).max()


def test_first_peak_refuses_windows_beyond_the_horizon():
    # N=32 at ratio 2.38: t * lambda_max * eps = 1.65e-9 at the window end
    with pytest.raises(HorizonError, match="phase error"):
        first_peak(ChainSpec(32, 2.38))
    rows = table1_sweep(2.38, [4, 32])
    assert rows[0].note == "" and rows[0].p_h1 > 0.99
    assert "phase error" in rows[1].note
    assert all(math.isnan(v) for v in (rows[1].t_h1, rows[1].p_h1, rows[1].estimate))


@pytest.mark.parametrize(
    "tied,expected",
    [((3, 4), 3), ((6, 7), 6), ((7, 8), 7), ((20, 5), 5), ((13, 14), 13)],
)
def test_time_scan_ties_take_earliest(monkeypatch, tied, expected):
    # blocks of 4 samples and chunks of 7: the pairs straddle a block
    # boundary (3, 4), a chunk boundary (6, 7), both (7, 8), or lie apart
    import altchain.dynamics

    real = search_mod.paired_grid_probability

    def tied_grid(lam, ends, step, start, stop):
        probs = real(lam, ends, step, start, stop)
        return np.where(np.isin(np.arange(start - 1, stop - 1), tied), 2.0, probs)

    monkeypatch.setattr(altchain.dynamics, "_ANGLE_BLOCK", 4)
    monkeypatch.setattr(search_mod, "_TIME_CHUNK", 7)
    monkeypatch.setattr(search_mod, "paired_grid_probability", tied_grid)
    lam, ends = (x[0] for x in spectra(6, np.array([2.38])))
    assert search_mod._best_sample(lam, ends, 0.01, 30) == (expected, 2.0)


def test_ratio_grid_takes_one_stacked_solve(monkeypatch):
    calls = []
    real = search_mod._masked_spectra

    def recording(n_sites, deltas):
        calls.append(len(deltas))
        return real(n_sites, deltas)

    monkeypatch.setattr(search_mod, "_masked_spectra", recording)
    optimize_delta(8, 2.3, 2.4)
    # the grid, then the polish: eight golden-section steps, four per stack
    assert calls[0] == 51 and len(calls) == 3 and min(calls[1:]) > 1
    grid = 2.3 + 0.002 * np.arange(51)
    stacked = [
        search_mod._spectrum_peak(lam, ends, float(delta))
        for lam, ends, delta in zip(*spectra(8, grid), grid)
    ]
    assert stacked == [first_peak(ChainSpec(8, float(delta))) for delta in grid]


def test_searches_assemble_no_eigensystem(monkeypatch):
    import altchain.spectral

    def refuse(matrix):
        raise AssertionError("a search assembled a site-ordered eigensystem")

    monkeypatch.setattr(altchain.spectral, "eigensystem_numeric", refuse)
    assert optimize_delta(4, 2.2, 2.3).p_h > 0.99
    assert fixed_time_optimize(8, 60.0, 2.4, 2.6).p_h > 0.9
    assert [row.n_sites for row in table1_sweep(2.38, [4, 5])] == [4, 5]


def test_first_peak_estimate_quality():
    for n, delta in [(4, 2.272), (6, 2.373), (8, 2.557)]:
        triad = first_peak(ChainSpec(n, delta))
        rel = abs(triad.t_h - triad.lambda_min_estimate) / triad.t_h
        assert rel <= 0.10


def test_optimize_recovers_ideal_ratio():
    # the best four-site ratio in [2, 3] is the perfect-transfer point
    triad = optimize_delta(4, 2.0, 3.0)
    assert triad.delta_h == pytest.approx(6.0 / math.sqrt(7.0), abs=2e-4)
    assert triad.p_h >= 1.0 - 1e-8
    assert triad.t_h == pytest.approx(math.pi * math.sqrt(7.0), abs=1e-3)


def test_optimize_needs_even_chain():
    with pytest.raises(ValidationError):
        optimize_delta(5, 2.0, 3.0)


def test_optimize_needs_reachable_regime():
    # whole range at or below the closed-form threshold for four sites
    with pytest.raises(ValidationError):
        optimize_delta(4, 1.1, 1.4)


def test_optimize_rejects_empty_range():
    with pytest.raises(ValidationError):
        optimize_delta(4, 2.5, 2.0)


def test_fixed_time_matches_free_peak():
    free = first_peak(ChainSpec(4, 2.272))
    pinned = fixed_time_optimize(4, free.t_h, 2.2, 2.35)
    assert pinned.t_h == free.t_h
    assert pinned.p_h >= free.p_h - 1e-6
    assert pinned.delta_h == pytest.approx(2.272, abs=0.01)


def test_fixed_time_tiny_window_transfers_nothing():
    triad = fixed_time_optimize(4, 1e-6, 2.0, 3.0)
    assert triad.p_h <= 1e-6


def test_fixed_time_rejects_nonpositive_time():
    with pytest.raises(ValidationError):
        fixed_time_optimize(4, 0.0, 2.0, 3.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", ["t", "lo", "hi"])
def test_fixed_time_rejects_non_finite(slot, value):
    args = {"t": 60.0, "lo": 2.0, "hi": 3.0}
    args[slot] = value
    with pytest.raises(ValidationError):
        fixed_time_optimize(8, args["t"], args["lo"], args["hi"])


def test_optimize_rejects_infinite_range():
    with pytest.raises(ValidationError):
        optimize_delta(4, 2.0, math.inf)


def _per_ratio_fixed_time(n, t, lo, hi):
    """The fixed-time search as one eigensystem per grid ratio."""
    count = int(math.floor((hi - lo) / 0.001 + 1e-9))
    grid = lo + 0.001 * np.arange(count + 1)
    if grid[-1] < hi - 1e-12:
        grid = np.append(grid, hi)
    else:
        grid[-1] = hi

    def arrival(delta):
        return float(transfer_probability(eigensystem_for(ChainSpec(n, float(delta))), t))

    best = int(np.argmax([arrival(d) for d in grid]))
    a = max(lo, float(grid[best]) - 0.001)
    b = min(hi, float(grid[best]) + 0.001)
    return search_mod._golden_max(arrival, a, b, 1e-6)


@pytest.mark.parametrize(
    "n,t,lo,hi",
    [
        (8, 60.0, 2.0, 3.0),  # the README example
        (7, 23.5, 1.6, 2.2),  # odd chain
        (14, 51.0, 2.2, 2.5),  # the longest chain of the fixed-time benchmark
    ],
)
def test_fixed_time_matches_per_ratio_search(n, t, lo, hi):
    triad = fixed_time_optimize(n, t, lo, hi)
    delta_h, p_h = _per_ratio_fixed_time(n, t, lo, hi)
    assert format(triad.delta_h, ".12g") == format(delta_h, ".12g")
    assert format(triad.p_h, ".12g") == format(p_h, ".12g")
    if (n, t, lo, hi) == (8, 60.0, 2.0, 3.0):
        assert format(triad.delta_h, ".12g") == "2.51001270251"
        assert format(triad.p_h, ".12g") == "0.973031036118"


@pytest.mark.parametrize("ratios_per_chunk", [1, 7])
def test_fixed_time_chunking_changes_nothing(monkeypatch, ratios_per_chunk):
    whole = fixed_time_optimize(6, 25.0, 2.0, 2.4)  # 401 ratios, one chunk
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", ratios_per_chunk * 6 * 6)
    assert fixed_time_optimize(6, 25.0, 2.0, 2.4) == whole


@pytest.mark.parametrize("tied,expected", [((6, 7), 6), ((3, 10), 3), ((13, 14), 13)])
def test_fixed_time_grid_ties_take_earliest(monkeypatch, tied, expected):
    grid = 2.0 + 0.001 * np.arange(20)
    high = grid[list(tied)]

    def fake_spectra(n_sites, deltas):
        # one unit-weight mode at zero frequency: P is the squared weight
        ends = np.where(np.isin(deltas, high), 0.9, 0.5)[:, None]
        return np.zeros_like(ends), ends, np.ones(deltas.size, dtype=bool)

    def arrival(lam, ends, ratios):
        return paired_transfer_probability(lam, ends, 1.0)

    monkeypatch.setattr(search_mod, "_masked_spectra", fake_spectra)
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", 7 * 2 * 2)  # 7 ratios per chunk
    # the polish evaluates only off-grid ratios (P = 0.25), so the grid winner stands
    delta, p, _ = search_mod._ratio_search(2, grid[0], grid[-1], 0.001, 1e-6, arrival)
    assert (delta, p) == (grid[expected], pytest.approx(0.81))


# a winner at an end of the range, which the golden-section polish never
# evaluates: the search returns that grid end exactly
@pytest.mark.parametrize("n,lo,hi,end", [(8, 2.3, 2.4, 2.4), (4, 2.0, 2.2, 2.2), (6, 2.5, 2.6, 2.5)])
def test_optimize_keeps_range_end_winner(n, lo, hi, end):
    triad = optimize_delta(n, lo, hi)
    assert triad == first_peak(ChainSpec(n, end))
    if n == 8:
        assert triad.p_h == 0.9638224684806402


# p_h pinned to the bit; the ids leave it out, so a re-pin keeps the test's name
@pytest.mark.parametrize(
    "lo,hi,end,p_h",
    [
        pytest.param(2.40, 2.45, 2.45, 0.6756179163499816, id="2.4-2.45-2.45"),
        pytest.param(2.56, 2.60, 2.56, 0.7699166500418393, id="2.56-2.6-2.56"),
    ],
)
def test_fixed_time_keeps_range_end_winner(lo, hi, end, p_h):
    triad = fixed_time_optimize(8, 60.0, lo, hi)
    assert triad.delta_h == end
    assert triad.p_h == p_h


@pytest.mark.parametrize(
    "lo,hi,step,expected",
    [
        (2.0, 2.0005, 0.001, [2.0, 2.0005]),  # shorter than one step: hi appended
        (2.40, 2.45, 0.001, 2.40 + 0.001 * np.arange(51)),  # last step a few ulp short
        (2.3, 2.4, 0.002, 2.3 + 0.002 * np.arange(51)),
    ],
)
def test_ratio_grid_ends_on_hi(lo, hi, step, expected):
    grid = search_mod._ratio_grid(lo, hi, step)
    assert grid[0] == lo and grid[-1] == hi
    assert np.allclose(grid, expected, rtol=0.0, atol=1e-12)
    assert np.all(np.diff(grid) > 0.0)


@pytest.mark.parametrize("n,lo,hi", [(4, 2.0, 3.0), (6, 2.3, 2.45), (8, 2.3, 2.4), (8, 2.5, 2.6)])
def test_optimize_never_below_its_grid(n, lo, hi):
    grid = search_mod._ratio_grid(lo, hi, 0.002)
    best = max(first_peak(ChainSpec(n, float(delta))).p_h for delta in grid)
    assert optimize_delta(n, lo, hi).p_h >= best


@pytest.mark.parametrize(
    "n,t,lo,hi",
    [
        (8, 60.0, 2.0, 3.0),
        (8, 60.0, 2.40, 2.45),
        (7, 23.5, 1.6, 2.2),
        (6, 25.0, 2.0, 2.4),
        (8, 20.0, 2.0, 2.0005),  # shorter than one step: the grid is the two ends
    ],
)
def test_fixed_time_never_below_its_grid(n, t, lo, hi):
    grid = search_mod._ratio_grid(lo, hi, 0.001)
    best = float(paired_transfer_probability(*spectra(n, grid), t).max())
    assert fixed_time_optimize(n, t, lo, hi).p_h >= best


def test_sweep_rows_sorted_and_complete():
    rows = table1_sweep(2.38, [8, 4, 6])
    assert [row.n_sites for row in rows] == [4, 6, 8]
    assert all(row.note == "" for row in rows)
    assert rows[0].t_h1 == pytest.approx(8.084, abs=0.01)
    assert rows[1].t_h1 == pytest.approx(21.378, abs=0.01)


def test_sweep_rejects_empty_list():
    with pytest.raises(ValidationError):
        table1_sweep(2.38, [])


def test_sweep_deduplicates_lengths():
    rows = table1_sweep(2.38, [4, 4, 6])
    assert [row.n_sites for row in rows] == [4, 6]


def test_sweep_reaches_the_longest_chains():
    # N = 1023 at ratio 8: its bond product 8^511 overflows a float.  The
    # row's time scale is exact; its P is rounding noise, as the true P
    # stays below 1e-3000 on the window.  N = 1024: s_min underflows to 0,
    # an unbounded peak window that the phase horizon refuses
    odd, even = table1_sweep(8.0, [1023, 1024])
    assert odd.note == "" and odd.estimate == 0.44879757117005803
    assert 0.0 < odd.t_h1 <= 1.3 * odd.estimate and 0.0 <= odd.p_h1 < 1e-30
    assert math.isnan(even.p_h1) and "phase error" in even.note


def test_sweep_flags_unreachable_rows(monkeypatch):
    import altchain.search as search_mod
    from altchain import HorizonError

    real = search_mod.first_peak

    def poisoned(spec):
        if spec.n_sites == 6:
            raise HorizonError("degenerate spectrum")
        return real(spec)

    monkeypatch.setattr(search_mod, "first_peak", poisoned)
    rows = search_mod.table1_sweep(2.38, [4, 6, 8])
    assert rows[0].note == "" and rows[2].note == ""
    assert "degenerate" in rows[1].note
    assert math.isnan(rows[1].t_h1) and math.isnan(rows[1].p_h1)


def test_sweep_flags_refused_spectra():
    # at ratio 1e-14 the levels of N = 5 and 8 coincide in floating point
    rows = table1_sweep(1e-14, [4, 5, 8])
    assert rows[0].note == "" and 0.0 <= rows[0].p_h1 <= 1.0
    for row in rows[1:]:
        assert f"N={row.n_sites}, delta=1e-14" in row.note
        assert math.isnan(row.t_h1) and math.isnan(row.p_h1)


def test_ratio_search_passes_over_refused_ratios():
    # the grid is 5e-324, 0.001, ..., 0.01: the first ratio's levels
    # coincide, so it scores -inf and the search runs as it does on the
    # other ten ratios
    triad = fixed_time_optimize(8, 60.0, 5e-324, 0.01)
    assert repr(triad) == repr(fixed_time_optimize(8, 60.0, 0.001, 0.01))


def test_refused_ratio_leaves_one_solve(monkeypatch):
    def arrival(lam, ends, ratios):
        return paired_transfer_probability(lam, ends, 60.0)

    alone = search_mod._ratio_scores(5, np.array([2.38]), arrival)
    calls = []
    real = np.linalg.svd

    def counting(stack, compute_uv=True):
        calls.append(stack.shape)
        return real(stack, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "svd", counting)
    scores = search_mod._ratio_scores(5, np.array([2.38, 1e-14]), arrival)
    assert calls == [(2, 3, 3)]
    assert scores.tolist() == [alone[0], -math.inf]


def _sequential_ratio_search(n, lo, hi, step, tol, score):
    """The ratio search with a polish that solves one ratio at a time."""
    grid = search_mod._ratio_grid(lo, hi, step)
    scores = search_mod._ratio_scores(n, grid, score)
    best = int(np.argmax(scores))
    winner, p_best = float(grid[best]), float(scores[best])
    delta, p = search_mod._golden_max(
        lambda d: float(search_mod._ratio_scores(n, np.array([d]), score)[0]),
        max(lo, winner - step), min(hi, winner + step), tol,
    )
    return (delta, p) if p > p_best else (winner, p_best)


def _arrival(t):
    return lambda lam, ends, ratios: paired_transfer_probability(lam, ends, t)


def _peaks(lam, ends, ratios):
    return np.array([search_mod._spectrum_peak(*row).p_h for row in zip(lam, ends, ratios)])


def _refusing(score, lo, hi):
    """score, with -inf for every ratio in (lo, hi)."""
    return lambda lam, ends, ratios: np.where(
        (ratios > lo) & (ratios < hi), -math.inf, score(lam, ends, ratios)
    )


@pytest.mark.parametrize(
    "n,lo,hi,step,tol,score",
    [
        pytest.param(8, 2.0, 3.0, 0.001, 1e-6, _arrival(60.0), id="even"),
        pytest.param(7, 1.6, 2.2, 0.001, 1e-6, _arrival(23.5), id="odd"),
        pytest.param(14, 2.2, 2.5, 0.001, 1e-6, _arrival(51.0), id="longest-benchmark-chain"),
        pytest.param(8, 2.3, 2.4, 0.002, 1e-4, _peaks, id="first-peak"),
        pytest.param(
            8, 2.0, 3.0, 0.001, 1e-6, _refusing(_arrival(60.0), 2.5098, 2.5102),
            id="refused-in-bracket",
        ),
        pytest.param(8, 2.40, 2.45, 0.001, 1e-6, _arrival(60.0), id="range-end-winner"),
        # either side of _LOOK_AHEAD_SITES, and a long chain
        pytest.param(32, 2.3, 2.35, 0.001, 1e-6, _arrival(20.0), id="longest-look-ahead-chain"),
        pytest.param(33, 2.3, 2.35, 0.001, 1e-6, _arrival(20.0), id="one-ratio-at-a-time"),
        pytest.param(128, 2.3, 2.31, 0.001, 1e-6, _arrival(5.0), id="long-chain"),
    ],
)
def test_batched_polish_equals_sequential(n, lo, hi, step, tol, score):
    delta, p, (lam, ends) = search_mod._ratio_search(n, lo, hi, step, tol, score)
    assert (delta, p) == _sequential_ratio_search(n, lo, hi, step, tol, score)
    # the returned spectrum is that of the returned ratio, to the bit
    lam_1, ends_1 = spectra(n, np.array([delta]))
    assert lam.tobytes() == lam_1[0].tobytes() and ends.tobytes() == ends_1[0].tobytes()


def test_batched_polish_with_refused_spectra(monkeypatch):
    # the spectral verdict refuses every ratio in a band inside the
    # polish bracket of the README search; both searches pass over it alike
    real = search_mod._masked_spectra

    def refusing(n_sites, deltas):
        lam, ends, ok = real(n_sites, deltas)
        return lam, ends, ok & ~((deltas > 2.5095) & (deltas < 2.5101))

    monkeypatch.setattr(search_mod, "_masked_spectra", refusing)
    args = (8, 2.0, 3.0, 0.001, 1e-6, _arrival(60.0))
    assert search_mod._ratio_search(*args)[:2] == _sequential_ratio_search(*args)


def _svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(stack, compute_uv=True):
        calls.append((stack.shape[0], compute_uv))
        return real(stack, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_fixed_time_polish_solves_ahead(monkeypatch):
    # the grid, then four stacks of ratios for sixteen golden-section
    # steps; the winner's spectrum is not solved again
    calls = _svd_calls(monkeypatch)
    fixed_time_optimize(8, 60.0, 2.0, 3.0)
    assert len(calls) <= 5 and not any(uv for _, uv in calls)


@pytest.mark.parametrize("n", [33, 128])
def test_long_chain_polish_solves_no_ratio_ahead(monkeypatch, n):
    # above _LOOK_AHEAD_SITES a ratio costs more to solve than a call:
    # after the grid the polish solves its first two points with the grid
    # winner, then one ratio at a time, the last with the final midpoint
    calls = _svd_calls(monkeypatch)
    fixed_time_optimize(n, 5.0, 2.3, 2.31)
    sizes = [size for size, _ in calls]
    assert sizes == [11, 3] + [1] * (len(sizes) - 3) + [2]


def test_optimize_passes_over_unreachable_ratios(monkeypatch):
    # every ratio above the cut has its peak window out of reach; the
    # search returns the best ratio below it instead of stopping
    cut = 2.5
    real = search_mod._spectrum_peak

    def poisoned(lam, ends, delta):
        if delta > cut:
            raise HorizonError("peak window out of reach")
        return real(lam, ends, delta)

    monkeypatch.setattr(search_mod, "_spectrum_peak", poisoned)
    triad = optimize_delta(8, 2.3, 2.6)
    grid = search_mod._ratio_grid(2.3, 2.6, 0.002)
    below = [first_peak(ChainSpec(8, float(delta))).p_h for delta in grid[grid <= cut]]
    assert triad.delta_h <= cut and triad.p_h >= max(below)
    assert triad == first_peak(ChainSpec(8, triad.delta_h))


def test_fixed_time_with_underflowed_lambda_min():
    # at N = 128, ratio 1e6 lambda_min underflows to 0: the arrival P is
    # still defined, and the time scale pi / lambda_min is unbounded
    triad = fixed_time_optimize(128, 0.001, 1e6, 1e6 + 0.001)
    assert 0.0 <= triad.p_h <= 1.0 and triad.lambda_min_estimate == math.inf


def test_optimize_rerun_identical():
    first = optimize_delta(4, 2.25, 2.29)
    rerun = optimize_delta(4, 2.25, 2.29)
    assert repr(first) == repr(rerun)


def test_ideal_ratio_dwell_contains_arrival():
    # below the even closed-form threshold (N+2)/N
    spec = ChainSpec(4, 2.0 / math.sqrt(3.0))
    curve = sample_curve(eigensystem_for(spec), 12.0, 6001)
    dwell = curve.times[curve.probabilities >= 0.999]
    assert dwell.size > 0
    assert dwell[0] <= math.pi * math.sqrt(3.0) <= dwell[-1]


def _no_skip(lam, ends):
    """series_derivative_bounds with an unbounded curvature: every grid ratio is polished."""
    return (np.full(lam.shape[:-1], math.inf),) * 2


def _poison_above(monkeypatch, cut):
    """Refuse, by a HorizonError of _spectrum_peak, every ratio above cut."""
    real = search_mod._spectrum_peak

    def poisoned(lam, ends, delta):
        if delta > cut:
            raise HorizonError("peak window out of reach")
        return real(lam, ends, delta)

    monkeypatch.setattr(search_mod, "_spectrum_peak", poisoned)


@pytest.mark.parametrize(
    "n,lo,hi,ratios_per_stack,cut",
    [
        # the best sample lies at 3.014, the best p_h at 2.268
        pytest.param(4, 2.0, 3.2, None, None, id="best-sample-loses"),
        # 2.42 samples below 2.422 and polishes above it
        pytest.param(12, 2.41, 2.422, None, None, id="12-samples-out-of-order"),
        pytest.param(6, 2.3, 2.45, None, None, id="6"),
        pytest.param(10, 2.2, 2.5, None, None, id="10"),
        pytest.param(8, 2.3, 2.4, None, None, id="range-end-winner"),
        pytest.param(6, 2.5, 2.6, None, None, id="range-start-winner"),
        pytest.param(8, 2.3, 2.6, None, 2.5, id="refused-above-2.5"),
        pytest.param(8, 2.4, 2.7, 7, None, id="stacks-of-7"),
        pytest.param(6, 2.0, 3.0, 16, 2.4, id="stacks-of-16-refused-above-2.4"),
    ],
)
def test_skipped_grid_ratios_change_no_output(monkeypatch, n, lo, hi, ratios_per_stack, cut):
    if ratios_per_stack is not None:
        monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", ratios_per_stack * n * n)
    if cut is not None:
        _poison_above(monkeypatch, cut)
    skipping = repr(optimize_delta(n, lo, hi))
    monkeypatch.setattr(search_mod, "series_derivative_bounds", _no_skip)
    assert repr(optimize_delta(n, lo, hi)) == skipping


def test_optimize_polishes_a_handful_of_grid_ratios(monkeypatch):
    polished = []
    real = search_mod._peak_polish

    def counting(lam, ends, delta, scan):
        polished.append(delta)
        return real(lam, ends, delta, scan)

    monkeypatch.setattr(search_mod, "_peak_polish", counting)
    optimize_delta(8, 2.0, 3.0)
    grid = search_mod._ratio_grid(2.0, 3.0, 0.002).tolist()
    assert len(grid) == 501 and len(set(polished) & set(grid)) <= 8


@pytest.mark.parametrize("n", [4, 5, 8, 9, 12, 16])
def test_polish_rises_within_the_certified_bound(n):
    # the polished p_h exceeds the best scanned sample by no more than the
    # rise a skipped grid ratio is allowed
    ratios = np.linspace(1.6, 3.2, 17)
    lam, ends = spectra(n, ratios)
    s1, s2 = search_mod.series_derivative_bounds(lam, ends)
    for i, delta in enumerate(ratios):
        scan = search_mod._peak_scan(lam[i], ends[i])
        rise = (s1[i] ** 2 + s2[i]) * scan.step**2 + search_mod._SKIP_MARGIN
        p_h = search_mod._spectrum_peak(lam[i], ends[i], float(delta)).p_h
        assert scan.p_best - 1e-12 <= p_h <= scan.p_best + rise


@pytest.mark.parametrize("n,lo,hi", [(4, 1.6, 3.2), (8, 2.0, 3.0), (12, 2.41, 2.43), (7, 2.0, 2.5)])
def test_first_peak_scores_keep_the_best_of_polishing_every_ratio(n, lo, hi):
    # a skipped ratio scores below the stack's best p_h; the polished ones
    # score their p_h, so the best score and its first index are unchanged
    grid = search_mod._ratio_grid(lo, hi, 0.002)
    lam, ends = spectra(n, grid)
    scores = search_mod._first_peak_scores(lam, ends, grid, [])
    p_h = np.array([search_mod._spectrum_peak(*row).p_h for row in zip(lam, ends, grid)])
    best = int(np.argmax(p_h))
    assert int(np.argmax(scores)) == best and scores[best] == p_h[best]
    assert np.all((scores == p_h) | (scores < p_h[best]))
