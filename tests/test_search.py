"""Peak search, ratio optimisation, sweeps."""

import math

import numpy as np
import pytest

from altchain import (
    ChainSpec,
    HorizonError,
    NumericError,
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
from altchain.dynamics import rounding_bound, series_bounds
from altchain.roots import bisect

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


def _scan(lam, ends):
    """The fine scan of one chain's first-peak window alone; a refusal is raised."""
    (window,) = search_mod._peak_windows(lam[None], ends[None])
    if isinstance(window, NumericError):
        raise window
    return search_mod._window_scan(lam, ends, window)


def _peak(lam, ends, delta):
    """first_peak of the chain whose levels and end products are given: a stack of one."""
    refusals, triads = [], {}
    search_mod._first_peak_scores(lam[None], ends[None], np.array([delta]), refusals, triads)
    if refusals:
        raise refusals[0]
    return triads[float(delta)]


@pytest.mark.parametrize(
    "tied,expected",
    [((3, 4), 3), ((6, 7), 6), ((7, 8), 7), ((20, 5), 5), ((13, 14), 13)],
)
def test_time_scan_ties_take_earliest(monkeypatch, tied, expected):
    # coarse intervals of 4 samples, one interval per fine batch (a cap of
    # 4 * 6 entries on N = 6): the pairs straddle an interval boundary
    # (3, 4) and (7, 8), share an interval (6, 7) and (13, 14), or lie
    # apart (20, 5); the later tie's interval has the highest bound, so it
    # is evaluated first, and the earlier tie still wins; the intervals
    # whose bound lies below the ties are not evaluated
    real = search_mod.paired_transfer_probability
    step = 0.01

    def tied_samples(lam, ends, times):
        probs = real(lam, ends, times)
        return np.where(np.isin(np.rint(times / step) - 1, tied), 2.0, probs)

    monkeypatch.setattr(search_mod, "paired_transfer_probability", tied_samples)
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", 24)
    lam, ends = (x[0] for x in spectra(6, np.array([2.38])))
    intervals = np.arange(8)
    bounds = np.select([intervals == max(tied) // 4, intervals == min(tied) // 4], [3.5, 3.0], 1.5)
    window = search_mod._PeakWindow(30 * step, step, 30, 4, intervals, bounds, -math.inf, 3.5, 0.0)
    scan = search_mod._window_scan(lam, ends, window)
    assert (scan.best, scan.p_best) == (expected, 2.0)
    assert scan.evaluated <= 12  # batches of one interval; those below 2.0 are left out


@pytest.mark.parametrize(
    "tied,expected",
    [((3, 4), 3), ((7, 8), 7), ((9, 10), 9), ((13, 14), 13), ((25, 5), 5)],
)
def test_odd_piece_scan_ties_take_earliest(monkeypatch, tied, expected):
    # an odd window through the coarse pass and the pruned fine scan, with
    # coarse intervals of 4 samples, spans of 3 intervals (one kernel call
    # each) and one interval per fine batch: the pairs straddle an interval
    # (3, 4), (7, 8), share one (9, 10), (13, 14) in a second span, or lie
    # apart.  The tied samples of 2.0 exceed every certified bound, so the
    # coarse samples of their intervals are raised too, the later one's
    # highest: its interval is scanned first, and the earlier tie still wins
    real_kernel, real_samples = search_mod.paired_grid_probability, search_mod.paired_transfer_probability
    calls = []

    def tied_coarse(lam, ends, step, first, count):
        calls.append(len(lam))
        samples = real_kernel(lam, ends, step, first, count)
        points = first[:, None] + np.arange(count)
        for rank, index in enumerate(sorted(tied)):
            raised = (points == index // 4) | (points == index // 4 + 1)
            samples[raised] = np.maximum(samples[raised], 2.0 + 1e-12 * rank)
        return samples

    def tied_samples(lam, ends, times):
        probs = real_samples(lam, ends, times)
        return np.where(np.isin(np.rint(times / 0.01) - 1, tied), 2.0, probs)

    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", 3)
    monkeypatch.setattr(search_mod, "paired_grid_probability", tied_coarse)
    monkeypatch.setattr(search_mod, "paired_transfer_probability", tied_samples)
    lam, ends = (x[0] for x in spectra(7, np.array([2.38])))
    scan = search_mod._window_scan(lam, ends, _bounded_window(lam, ends, 0.01, 30))
    assert calls == [1, 1, 1]  # the spans of intervals 0..2, 3..5 and 6..7
    assert (scan.best, scan.p_best) == (expected, 2.0)
    assert scan.evaluated < scan.count


def _bounded_window(lam, ends, step, count):
    """The _PeakWindow of a grid of count samples of one chain, bounded by the coarse pass."""
    (window,) = search_mod._coarse_bounds(lam[None], ends[None], [(count * step, step, count)])
    return window


def _best_sample(lam, ends, step, count):
    """(index, P) of the highest of P((index + 1) * step), index < count, earliest on ties.

    The full-scan reference of the first-peak scans, by the direct series
    they promise (paired_transfer_probability): every sample comes from
    angle addition, in chunks of 65 536, and those within 1e-9 of the
    highest, far beyond the two kernels' deviation, again from the
    direct series.
    """
    top, near = -1.0, []
    for start in range(0, count, 65536):
        stop = min(start + 65536, count)
        probs = search_mod.paired_grid_probability(
            lam[None], ends[None], np.array([step]), np.array([start + 1]), stop - start
        )[0]
        top = max(top, float(probs.max()))
        near.append(start + np.flatnonzero(probs >= top - 1e-9))
    index = np.concatenate(near)
    probs = paired_transfer_probability(lam, ends, (index + 1) * step)
    k = int(np.argmax(probs))  # index ascends: the earliest of the highest
    return int(index[k]), float(probs[k])


def _full_scan(lam, ends, scan):
    """(best, p_best) of the whole window of a scan, every sample evaluated."""
    return _best_sample(lam, ends, scan.step, scan.count)


@pytest.mark.parametrize("delta", [1.05, 1.6, 2.0, 2.38, 2.8, 3.5])
@pytest.mark.parametrize("n", range(10, 27, 2))
def test_pruned_scan_finds_the_full_scan_sample(n, delta):
    # 1.05 lies below the regime threshold (N+2)/N of every N here
    lam, ends = (x[0] for x in spectra(n, np.array([delta])))
    try:
        scan = _scan(lam, ends)
    except HorizonError:
        return  # N = 22..26 at 3.5 and N = 26 at 2.8 lie beyond the horizon or the cap
    assert (scan.best, scan.p_best) == _full_scan(lam, ends, scan)
    assert scan.evaluated <= scan.count


@pytest.mark.parametrize(
    "n,delta,long_window,entries",
    [
        # windows of the long stride; fine batches of entries // (32 N),
        # one interval to 512; spans of 80 coarse samples to whole runs
        (10, 2.38, 1000, 80),
        (12, 2.0, 777, 384),
        (14, 2.3, 4096, 1344),
        (16, 2.38, 5000, 262144),
    ],
)
def test_pruned_scan_straddles_chunks_and_blocks(monkeypatch, n, delta, long_window, entries):
    # N = 10 splits its coarse run over two kernel calls
    monkeypatch.setattr(search_mod, "_LONG_WINDOW", long_window)
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", entries)
    lam, ends = (x[0] for x in spectra(n, np.array([delta])))
    scan = _scan(lam, ends)
    assert scan.count > long_window and scan.evaluated < scan.count
    assert (scan.best, scan.p_best) == _full_scan(lam, ends, scan)


@pytest.mark.parametrize(
    "n,delta,entries",
    [
        # batches of one to ten intervals, of the short stride and the long
        (8, 2.38, 32),
        (9, 2.38, 150),
        (12, 2.0, 100),
        (15, 2.0, 600),
        (16, 2.38, 1100),
        (20, 2.3, 2000),
    ],
)
def test_fine_batches_take_the_memory_cap(monkeypatch, n, delta, entries):
    # each fine kernel call of a window of several batches holds at most
    # entries // (m N) coarse intervals of m samples, and the scan still
    # finds the full scan's sample
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", entries)
    lam, ends = (x[0] for x in spectra(n, np.array([delta])))
    (window,) = search_mod._peak_windows(lam[None], ends[None])
    sizes = []
    real = search_mod.paired_transfer_probability

    def counting(lam, ends, times):
        sizes.append(times.size)
        return real(lam, ends, times)

    monkeypatch.setattr(search_mod, "paired_transfer_probability", counting)
    scan = search_mod._window_scan(lam, ends, window)
    batch = max(1, entries // (window.stride * n))
    assert len(sizes) > 1
    assert max(-(-size // window.stride) for size in sizes) <= batch
    assert (scan.best, scan.p_best) == _full_scan(lam, ends, scan)


def test_pruned_scan_evaluates_under_half_the_window():
    lam, ends = (x[0] for x in spectra(20, np.array([2.3])))
    scan = _scan(lam, ends)
    assert scan.count > 8 * 65536
    assert scan.evaluated < 0.5 * scan.count


def test_short_windows_take_the_coarse_pass(monkeypatch):
    # a short window of a stack of one is bounded by the coarse pass too,
    # and its pruned scan is the full scan
    bounded = []
    real = search_mod._coarse_bounds

    def counting(lam, ends, grids):
        bounded.append(len(grids))
        return real(lam, ends, grids)

    monkeypatch.setattr(search_mod, "_coarse_bounds", counting)
    lam, ends = (x[0] for x in spectra(12, np.array([2.0])))
    scan = _scan(lam, ends)
    assert scan.count <= search_mod._LONG_WINDOW and scan.evaluated < scan.count
    assert bounded == [1]
    assert (scan.best, scan.p_best) == _full_scan(lam, ends, scan)
    # an odd window of several kernel calls is bounded, and its pruned scan is the full scan
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", 64)
    lam, ends = (x[0] for x in spectra(19, np.array([2.38])))
    scan = _scan(lam, ends)
    assert scan.count > 64 and bounded == [1, 1]
    assert (scan.best, scan.p_best) == _full_scan(lam, ends, scan)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_odd_window_of_several_groups_is_pruned(monkeypatch, n):
    # odd first-peak windows hold only tiny P; over 30 time units the
    # same chains transfer a few percent, and the coarse bounds leave out
    # most of the coarse intervals of the grid
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", 400)
    lam, ends = (x[0] for x in spectra(n, np.array([2.38])))
    window = _bounded_window(lam, ends, 0.005, 6000)
    assert window.intervals.size < 0.5 * 6000 / window.stride
    scan = search_mod._window_scan(lam, ends, window)
    assert (scan.best, scan.p_best) == _best_sample(lam, ends, 0.005, 6000)
    assert scan.p_best > 1e-3 and scan.evaluated < 0.5 * scan.count


def _counted_derivatives(monkeypatch, curvature=None):
    """Count the calls of the polish's derivatives; curvature, if given, replaces d^2P/dt^2."""
    calls = []
    real = search_mod.paired_transfer_derivatives

    def counting(lam, ends, t):
        calls.append(t)
        slope, second = real(lam, ends, t)
        return slope, second if curvature is None else curvature(second)

    monkeypatch.setattr(search_mod, "paired_transfer_derivatives", counting)
    return calls


def test_newton_polish_takes_a_few_evaluations(monkeypatch):
    calls = _counted_derivatives(monkeypatch)
    rows = table1_sweep(2.38, list(range(4, 25, 2)))
    assert all(row.note == "" for row in rows)
    assert len(calls) <= 6 * len(rows)


def _polish_brackets():
    """(lam, ends, lo, hi) of the polish of each chain of a grid of (N, delta)."""
    for n in (4, 6, 8, 12, 16, 20):
        for delta in (1.6, 2.0, 2.38, 2.8):
            lam, ends = (x[0] for x in spectra(n, np.array([delta])))
            scan = _scan(lam, ends)
            t_best = (scan.best + 1) * scan.step
            lo = max(t_best - scan.step, scan.step * 1e-3)
            yield lam, ends, lo, min(t_best + scan.step, scan.window)


def _bisected_root(lam, ends, lo, hi):
    return bisect(lambda t: search_mod.paired_transfer_derivatives(lam, ends, t)[0], lo, hi)


def test_newton_root_lies_within_two_ulp_of_bisection():
    roots = 0
    for lam, ends, lo, hi in _polish_brackets():
        root = search_mod._slope_root(lam, ends, lo, hi)
        if root is None:
            continue
        roots += 1
        assert abs(root - _bisected_root(lam, ends, lo, hi)) <= 2.0 * math.ulp(root)
    assert roots >= 20


@pytest.mark.parametrize(
    "curvature",
    [
        pytest.param(lambda second: abs(second), id="curvature-not-negative"),
        pytest.param(lambda second: -1e-9, id="steps-leave-the-bracket"),
    ],
)
def test_newton_polish_falls_back_to_bisection_steps(monkeypatch, curvature):
    brackets = list(_polish_brackets())[::5]
    expected = [_bisected_root(*bracket) for bracket in brackets]
    calls = _counted_derivatives(monkeypatch, curvature)
    for (lam, ends, lo, hi), bisected in zip(brackets, expected):
        root = search_mod._slope_root(lam, ends, lo, hi)
        assert lo <= root <= hi
        assert abs(root - bisected) <= 2.0 * math.ulp(root)
    # every step halves the bracket: about 40 evaluations per root
    assert len(calls) > 20 * len(brackets)


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
    stacked = [_peak(lam, ends, float(delta)) for lam, ends, delta in zip(*spectra(8, grid), grid)]
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
        assert triad.p_h == 0.96382246848064


# p_h pinned to the bit; the ids leave it out, so a re-pin keeps the test's name
@pytest.mark.parametrize(
    "lo,hi,end,p_h",
    [
        pytest.param(2.40, 2.45, 2.45, 0.6756179163499816, id="2.4-2.45-2.45"),
        pytest.param(2.56, 2.60, 2.56, 0.7699166500418395, id="2.56-2.6-2.56"),
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
    return np.array([_peak(*row).p_h for row in zip(lam, ends, ratios)])


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
    _poison_above(monkeypatch, 8, cut)
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
    """series_bounds with an unbounded curvature: every grid ratio is polished."""
    return (*series_bounds(lam, ends)[:3], *(np.full(lam.shape[:-1], math.inf),) * 2)


def _poison_above(monkeypatch, n, cut):
    """Refuse every ratio above cut at N = n by the scan's own cap.

    The cap becomes the sample count of the window at cut; on the
    ranges poisoned here the count rises strictly with the ratio, so
    _peak_grid refuses every ratio above cut with a HorizonError.
    """
    lam, _ = spectra(n, np.array([cut]))
    monkeypatch.setattr(search_mod, "_MAX_GRID_POINTS", search_mod._peak_grid(lam[0])[2])


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
        _poison_above(monkeypatch, n, cut)
    skipping = repr(optimize_delta(n, lo, hi))
    monkeypatch.setattr(search_mod, "series_bounds", _no_skip)
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


def test_optimize_scans_each_ratio_once(monkeypatch):
    # one _peak_windows call for the grid and one per golden-section
    # point; a ratio is fine-scanned at most once, and the winner's
    # triad is the one its score polished, not a scan of its own
    stacks, points = [], []
    real_windows, real_golden = search_mod._peak_windows, search_mod._golden_max

    def counting_windows(lam, ends):
        stacks.append(len(lam))
        return real_windows(lam, ends)

    def counting_golden(f, *args):
        def counted(x):
            points.append(x)
            return f(x)

        return real_golden(counted, *args)

    monkeypatch.setattr(search_mod, "_peak_windows", counting_windows)
    monkeypatch.setattr(search_mod, "_golden_max", counting_golden)
    scans = _counted_scans(monkeypatch)
    polished = _counted_polishes(monkeypatch)
    grid = search_mod._ratio_grid(2.0, 3.0, 0.002)
    counts = set()
    for n in (4, 8, 16):
        stacks.clear()
        points.clear()
        scans.clear()
        polished.clear()
        triad = optimize_delta(n, 2.0, 3.0)
        assert stacks == [grid.size] + [1] * len(points)
        assert len(scans) == len(polished) == len(set(polished))
        assert triad.delta_h in polished
        counts.add((len(stacks), sum(stacks)))
    assert counts == {(12, 512)}


def test_optimize_fine_scans_about_ten_grid_ratios(monkeypatch):
    # the coarse pass bounds all 501 ratios of the grid; only those whose
    # bound can reach the best p_h polished so far are fine-scanned
    stack = [0]
    real = search_mod._first_peak_scores

    def sized(lam, ends, ratios, refusals, triads):
        stack[0] = len(lam)
        return real(lam, ends, ratios, refusals, triads)

    monkeypatch.setattr(search_mod, "_first_peak_scores", sized)
    scans = _counted_scans(monkeypatch, lambda lam, ends, window: stack[0])
    optimize_delta(8, 2.0, 3.0)
    grid = [size for size in scans if size > 1]
    assert set(grid) == {501} and 1 <= len(grid) <= 10


def _counted_scans(monkeypatch, record=lambda lam, ends, window: window):
    """record(lam, ends, window) of each fine scan (_window_scan)."""
    scans = []
    real = search_mod._window_scan

    def counting(lam, ends, window):
        scans.append(record(lam, ends, window))
        return real(lam, ends, window)

    monkeypatch.setattr(search_mod, "_window_scan", counting)
    return scans


def test_long_windows_scan_at_most_two_groups(monkeypatch):
    # one fine batch per window scanned: the windows hold 2 330 to 28 347
    # coarse intervals of 32 samples, and the scans evaluate at most the
    # eight of one batch
    batches = []
    real = search_mod.paired_transfer_probability

    def counting(lam, ends, times):
        if lam.ndim == 1 and np.ndim(times) == 1:  # a fine batch; the seeds come as a
            batches[-1] += 1  # stack, the polish's root as one time
        return real(lam, ends, times)

    windows = _counted_scans(monkeypatch, lambda lam, ends, window: batches.append(0) or window)
    monkeypatch.setattr(search_mod, "paired_transfer_probability", counting)
    rows = table1_sweep(2.3, [14, 16, 18, 20])
    assert all(row.note == "" for row in rows)
    assert [(w.count - 1) // w.stride + 1 for w in windows] == [2330, 5359, 12325, 28347]
    assert all(1 <= w.intervals.size <= 8 for w in windows)
    assert batches == [1, 1, 1, 1]


@pytest.mark.parametrize("n", [4, 5, 8, 9, 12, 16])
def test_polish_rises_within_the_certified_bound(n):
    # the polished p_h exceeds the best scanned sample by no more than the
    # rise a skipped grid ratio is allowed
    ratios = np.linspace(1.6, 3.2, 17)
    lam, ends = spectra(n, ratios)
    c0, a, b, s1, s2 = series_bounds(lam, ends)
    for i, delta in enumerate(ratios):
        scan = _scan(lam[i], ends[i])
        error = rounding_bound(n, c0[i] + a[i] + b[i], s1[i], scan.window)
        rise = (s1[i] ** 2 + s2[i]) * scan.step**2 + 2.0 * error
        p_h = _peak(lam[i], ends[i], float(delta)).p_h
        assert scan.p_best - 1e-12 <= p_h <= scan.p_best + rise


@pytest.mark.parametrize("n,lo,hi", [(4, 1.6, 3.2), (8, 2.0, 3.0), (12, 2.41, 2.43), (7, 2.0, 2.5)])
def test_first_peak_scores_keep_the_best_of_polishing_every_ratio(n, lo, hi):
    # a skipped ratio scores below the stack's best p_h; the polished ones
    # score their p_h, so the best score and its first index are unchanged
    grid = search_mod._ratio_grid(lo, hi, 0.002)
    lam, ends = spectra(n, grid)
    triads = {}
    scores = search_mod._first_peak_scores(lam, ends, grid, [], triads)
    p_h = np.array([_peak(*row).p_h for row in zip(lam, ends, grid)])
    best = int(np.argmax(p_h))
    assert int(np.argmax(scores)) == best and scores[best] == p_h[best]
    assert np.all((scores == p_h) | (scores < p_h[best]))
    # every triad a stack records is its ratio's first_peak
    assert triads and all(triad == _peak(lam[i], ends[i], delta) for i, delta in enumerate(grid)
                          for triad in [triads.get(float(delta))] if triad is not None)


def _assert_stack_scans_alone(lam, ends):
    """The scans of a stack bounded together against each ratio's scan alone, or its refusal.

    A row whose best sample reaches its floor can hold the stack's
    winner, and its scan is its scan alone; below the floor the row
    cannot win, and its scan alone lies below the floor too.
    """
    windows = search_mod._peak_windows(lam, ends)
    scans = [
        window if isinstance(window, HorizonError) else search_mod._window_scan(*row, window)
        for row, window in zip(zip(lam, ends), windows)
    ]
    assert len(scans) == len(lam)
    for row, window, scan in zip(zip(lam, ends), windows, scans):
        try:
            alone = _scan(*row)
        except HorizonError as exc:
            assert isinstance(scan, HorizonError) and str(scan) == str(exc)
            continue
        assert scan[:3] == alone[:3]  # window, step, count
        if scan.p_best >= window.floor:
            assert (scan.best, scan.p_best) == (alone.best, alone.p_best)
        else:
            assert alone.p_best < window.floor
    return scans


@pytest.mark.parametrize("lo", [1.6, 2.0, 2.4, 2.8])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_stack_scan_equals_the_scan_of_each_ratio(n, lo):
    # N = 12 from 2.8 on has windows of the long stride next to windows
    # of the short one
    lam, ends = spectra(n, np.linspace(lo, lo + 0.2, 21))
    scans = _assert_stack_scans_alone(lam, ends)
    for row, window, scan in zip(zip(lam, ends), search_mod._peak_windows(lam, ends), scans):
        if scan.count <= search_mod._LONG_WINDOW and scan.p_best >= window.floor:
            assert (scan.best, scan.p_best) == _full_scan(*row, scan)


@pytest.mark.parametrize(
    "n,entries,long_window",
    [
        # N = 6 windows of 1534..1804 samples on both sides of the long stride
        pytest.param(6, 1 << 20, 1700, id="windows-below-a-block"),
        # spans of 64 coarse samples: several spans per window
        pytest.param(6, 64, 65536, id="several-product-groups-6"),
        pytest.param(8, 64, 65536, id="several-product-groups-8"),
        # fine batches of one interval to nine, spans of a few samples, and
        # windows on both sides of the long stride
        pytest.param(6, 24, 3000, id="several-chunks-6"),
        pytest.param(8, 300, 5000, id="several-chunks-8"),
        pytest.param(7, 100, 300, id="several-chunks-odd"),
    ],
)
def test_stack_scan_straddles_blocks_groups_and_chunks(monkeypatch, n, entries, long_window):
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", entries)
    monkeypatch.setattr(search_mod, "_LONG_WINDOW", long_window)
    lam, ends = spectra(n, np.linspace(1.6, 2.8, 25))
    scans = _assert_stack_scans_alone(lam, ends)
    for row, window, scan in zip(zip(lam, ends), search_mod._peak_windows(lam, ends), scans):
        if scan.p_best >= window.floor:
            assert (scan.best, scan.p_best) == _full_scan(*row, scan)
    counts = [scan.count for scan in scans]
    assert min(counts) <= long_window < max(counts) or long_window == 65536


def test_stack_scan_keeps_the_order_of_refusals(monkeypatch):
    # the windows grow with the ratio; interleaved small and large ratios
    # put refused windows between scanned ones
    ratios = np.array([2.0, 2.8, 2.1, 2.7, 2.2, 2.6, 2.3, 2.5, 2.4])
    lam, ends = spectra(8, ratios)
    counts = [search_mod._peak_grid(row)[2] for row in lam]
    monkeypatch.setattr(search_mod, "_MAX_GRID_POINTS", sorted(counts)[4])
    scans = _assert_stack_scans_alone(lam, ends)
    refused = [i for i, scan in enumerate(scans) if isinstance(scan, HorizonError)]
    assert refused == [1, 3, 5, 7]
    expected = []
    for row in zip(lam, ends):
        try:
            _scan(*row)
        except HorizonError as exc:
            expected.append(str(exc))
    refusals = []
    scores = search_mod._first_peak_scores(lam, ends, ratios, refusals, {})
    assert [str(refusal) for refusal in refusals] == expected and len(set(expected)) == 4
    assert all(isinstance(refusal, HorizonError) for refusal in refusals)
    assert np.all(np.isneginf(scores[refused]))
    assert np.all(np.isfinite(np.delete(scores, refused)))


def _counted_tables(monkeypatch):
    """The stack size of each coarse kernel call of search, which builds its own tables."""
    builds = []
    real = search_mod.paired_grid_probability

    def counting(lam, ends, step, first, count):
        builds.append(len(lam))
        return real(lam, ends, step, first, count)

    monkeypatch.setattr(search_mod, "paired_grid_probability", counting)
    return builds


def _scanned_samples(window, scan):
    """The fine samples of the intervals whose bound is not below a scan's best sample."""
    scanned = window.intervals[window.bounds >= scan.p_best]
    return int(np.minimum(scanned * window.stride + window.stride, window.count).sum()
               - (scanned * window.stride).sum())


def test_envelope_scan_builds_one_offset_table(monkeypatch):
    # a long even window: one table of offsets and block starts for its
    # coarse pass, none for the fine scan, which evaluates only the
    # intervals that can hold its winner
    lam, ends = spectra(20, np.array([2.3]))
    builds = _counted_tables(monkeypatch)
    (window,) = search_mod._peak_windows(lam, ends)
    scan = search_mod._window_scan(lam[0], ends[0], window)
    assert builds == [1]
    assert 1 <= window.intervals.size <= 8 and scan.evaluated < scan.count
    assert scan.evaluated >= _scanned_samples(window, scan)
    assert (scan.best, scan.p_best) == _full_scan(lam[0], ends[0], scan)


def test_chunked_scan_builds_one_offset_table(monkeypatch):
    # an odd window of several spans: one table per coarse kernel call,
    # and none for the fine scan
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", 16)
    lam, ends = spectra(7, np.array([2.38]))
    window, step, count = search_mod._peak_grid(lam[0])
    spans = -(-((count - 1) // search_mod._COARSE_STRIDE + 1) // 16)
    assert spans >= 3
    builds = _counted_tables(monkeypatch)
    windows = _counted_scans(monkeypatch)
    scan = _scan(lam[0], ends[0])
    assert builds == [1] * spans
    assert scan.count == count
    assert scan.evaluated >= _scanned_samples(windows[0], scan)
    assert (scan.best, scan.p_best) == _full_scan(lam[0], ends[0], scan)


def test_first_peak_scores_build_one_table_per_sub_stack(monkeypatch):
    grid = search_mod._ratio_grid(2.0, 2.2, 0.002)
    lam, ends = spectra(8, grid)
    stride = search_mod._COARSE_STRIDE
    size = max(-(-search_mod._peak_grid(row)[2] // stride) + 1 for row in lam)
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", 30 * size)  # 30 full windows per call
    polished = _counted_polishes(monkeypatch)
    builds = _counted_tables(monkeypatch)
    search_mod._first_peak_scores(lam, ends, grid, [], {})
    # the coarse pass: the 101 ratios' spans, at least 30 to a call, one
    # table each; then each polished ratio's fine scan, which builds none
    assert len(builds) <= 4 and sum(builds) <= 101
    assert 1 <= len(polished) <= 8


def _counted_polishes(monkeypatch):
    """The ratios _peak_polish polishes."""
    polished = []
    real = search_mod._peak_polish

    def counting(lam, ends, delta, scan):
        polished.append(delta)
        return real(lam, ends, delta, scan)

    monkeypatch.setattr(search_mod, "_peak_polish", counting)
    return polished


def _assert_bounds_cover_the_groups(n, ratios):
    """Every kept interval of every bounded window of N = n lies at or below its coarse bound.

    Each ratio alone, and the stack of them: every sample of a kept
    interval lies at or below its bound, and the full scan's winner of
    each row that can win (it reaches the row's floor, as a row alone
    always does) lies in a kept interval.  Returns the windows bounded
    alone.
    """
    bounded = 0
    for stack in [[ratio] for ratio in ratios] + [ratios]:
        lam, ends = spectra(n, np.array(stack))
        for row, window in zip(zip(lam, ends), search_mod._peak_windows(lam, ends)):
            if isinstance(window, HorizonError):
                continue  # N = 26 at 2.8 lies beyond the horizon
            index = (window.intervals[:, None] * window.stride + np.arange(window.stride)).ravel()
            times = (np.minimum(index, window.count - 1) + 1) * window.step
            probs = np.where(index < window.count, paired_transfer_probability(*row, times), -1.0)
            assert np.all(probs.reshape(-1, window.stride).max(axis=1) <= window.bounds)
            best, p_best = _best_sample(*row, window.step, window.count)
            assert p_best >= window.floor or len(stack) > 1
            if p_best >= window.floor:
                assert best // window.stride in window.intervals
                bounded += len(stack) == 1
    return bounded


@pytest.mark.parametrize("n", range(4, 27))
def test_coarse_bounds_cover_every_group(n):
    # even and odd chains, below and above the regime threshold; the
    # short stride up to N = 12, the long one beyond
    assert _assert_bounds_cover_the_groups(n, [1.2, 2.0, 2.38, 2.8]) >= 3


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_coarse_bounds_cover_odd_windows_of_several_groups(monkeypatch, n):
    # spans of 8 coarse samples: several kernel calls per window
    monkeypatch.setattr(search_mod, "_GRID_CHUNK_ENTRIES", 8)
    for delta in (1.0, 2.38):
        lam, ends = (x[0] for x in spectra(n, np.array([delta])))
        (window,) = search_mod._peak_windows(lam[None], ends[None])
        assert (window.count - 1) // window.stride + 1 > 3 * 8
        scan = search_mod._window_scan(lam, ends, window)
        assert (scan.best, scan.p_best) == _full_scan(lam, ends, scan)
    assert _assert_bounds_cover_the_groups(n, [1.0, 2.38]) == 2


@pytest.mark.parametrize("n", [4, 5, 8, 13, 16, 20])
def test_coarse_margin_covers_the_rounding_alone(monkeypatch, n):
    # at stride 1 every fine sample is a coarse sample, evaluated by angle
    # addition; with the curvature term zeroed (S2 = -S1^2, and S1, which
    # the rounding bound reads, kept) the bound is the coarse sample plus
    # the margin, which must cover the two roundings
    monkeypatch.setattr(search_mod, "_COARSE_STRIDE", 1)
    monkeypatch.setattr(search_mod, "_COARSE_LONG_STRIDE", 1)

    def flat(lam, ends):
        c0, a, b, s1, _ = series_bounds(lam, ends)
        return c0, a, b, s1, -s1 * s1

    monkeypatch.setattr(search_mod, "series_bounds", flat)
    assert _assert_bounds_cover_the_groups(n, [1.6, 2.0, 2.38]) == 3


@pytest.mark.parametrize("delta", [1.2, 2.0, 2.38, 2.8])
@pytest.mark.parametrize("n", range(3, 29))
def test_fine_samples_lie_below_the_envelope(n, delta):
    # (c0 + a |f(lambda_min t / 2)| + b)^2, f = sin on even chains and cos
    # on odd ones, plus the margin, bounds every fine sample of the window
    # (every sample up to 100 000, an even spread of them beyond)
    lam, ends = (x[0] for x in spectra(n, np.array([delta])))
    try:
        window, step, count = search_mod._peak_grid(lam)
    except HorizonError:
        return  # N = 26 and 28 at 2.8 lie beyond the horizon
    c0, a, b, s1, _ = (float(x) for x in series_bounds(lam, ends))
    index = np.unique(np.linspace(0, count - 1, min(count, 100_000)).astype(int))
    times = (index + 1) * step
    phases = 0.5 * lam[n // 2 - 1] * times
    slow = np.abs(np.sin(phases) if n % 2 == 0 else np.cos(phases))
    envelope = (c0 + a * slow + b) ** 2
    margin = rounding_bound(n, c0 + a + b, s1, window)  # the gate's allowance above the envelope
    assert np.all(paired_transfer_probability(lam, ends, times) <= envelope + margin)


@pytest.mark.parametrize("rate", np.linspace(0.3, 3.0, 61))
def test_gate_keeps_a_winner_on_the_envelope(rate):
    # two levels +-rate: P = sin^2(rate t / 2) is its own envelope, and
    # the seed at pi / lambda_min is the sample nearest the peak, the
    # winner; in a stack of two the gate's level passes through it, and
    # only the margin keeps the winner's interval
    lam, ends = np.array([rate, -rate]), np.array([0.5, -0.5])
    (window,) = search_mod._peak_windows(lam[None], ends[None])
    alone = search_mod._window_scan(lam, ends, window)
    windows = search_mod._peak_windows(np.stack([lam, lam]), np.stack([ends, ends]))
    assert windows[0].floor > 0.99  # the stack is gated by its seeds
    for stacked in windows:
        scan = search_mod._window_scan(lam, ends, stacked)
        assert (scan.best, scan.p_best) == (alone.best, alone.p_best) == _full_scan(lam, ends, scan)
