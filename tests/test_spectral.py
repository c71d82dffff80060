"""Closed-form eigensystems and the SVD engine.

Frozen reference values were produced by the tridiagonal numeric
solver and independent bisection runs, then cross-checked against the
closed forms before being committed.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altchain import (
    ChainSpec,
    PROVENANCE_ANALYTIC_EVEN,
    PROVENANCE_ANALYTIC_ODD,
    PROVENANCE_NUMERIC,
    NumericError,
    RegimeError,
    ValidationError,
    VerificationError,
    build_coupling_matrix,
    eigensystem_even,
    eigensystem_for,
    eigensystem_numeric,
    eigensystem_odd,
    solve_even_roots,
    spectra,
)
from altchain import spectral as spectral_mod
from altchain.chain import alternating_couplings
from altchain.verify import run_all
from conftest import dense_matrix

# four sites, ratio 2.272: trig root, hyperbolic root, spectrum
X1_4 = 1.3809385445889233
Y_4 = 0.7855249486790681
LAMBDAS_4 = (2.649438469182015, 0.37743846918201573)


def test_even_roots_frozen():
    roots = solve_even_roots(ChainSpec(4, 2.272))
    assert roots.x_roots.shape == (1,)
    assert roots.x_roots[0] == pytest.approx(X1_4, abs=1e-14)
    assert roots.y_root == pytest.approx(Y_4, abs=1e-14)


def test_hyperbolic_root_closed_form_n4():
    # for four sites cosh y has an explicit radical expression
    delta = 2.272
    y = solve_even_roots(ChainSpec(4, delta)).y_root
    cosh_expected = (delta + math.sqrt(delta * delta + 4.0)) / 4.0
    assert math.cosh(y) == pytest.approx(cosh_expected, abs=1e-14)


def test_root_count_grows_with_n():
    for n in range(4, 17, 2):
        roots = solve_even_roots(ChainSpec(n, 2.38))
        assert roots.x_roots.shape == (n // 2 - 1,)
        assert roots.y_root > 0.0


def test_verify_root_count_reports_solver_failure(monkeypatch):
    from altchain import VerificationError
    from altchain import verify as verify_mod

    verify_mod.check_even_root_count()

    def miscounting(spec):
        raise NumericError(f"x-root scan found 0 sign changes (N={spec.n_sites})")

    monkeypatch.setattr(verify_mod, "solve_even_roots", miscounting)
    with pytest.raises(VerificationError, match=r"^even-root-count: N=4 delta=2.0: x-root scan"):
        verify_mod.check_even_root_count()


def test_y_root_below_log_delta():
    for n in range(4, 13, 2):
        for delta in (1.8, 2.38, 4.0):
            if delta <= (n + 2) / n:
                continue
            roots = solve_even_roots(ChainSpec(n, delta))
            assert roots.y_root < math.log(delta)


def test_even_spectrum_frozen():
    eig = eigensystem_even(ChainSpec(4, 2.272))
    assert eig.provenance == PROVENANCE_ANALYTIC_EVEN
    expected = [LAMBDAS_4[0], LAMBDAS_4[1], -LAMBDAS_4[1], -LAMBDAS_4[0]]
    assert np.allclose(eig.eigenvalues, expected, atol=1e-13, rtol=0.0)


@pytest.mark.parametrize(
    "n,delta,positive",
    [
        (6, 2.373, (3.060145933103244, 2.2081358331404055, 0.14798990003716084)),
        (8, 2.557, (3.3661742746836065, 2.828029344468093, 2.0696114535800345,
                    0.050756383795552557)),
    ],
)
def test_larger_chains_frozen(n, delta, positive):
    eig = eigensystem_even(ChainSpec(n, delta))
    assert np.allclose(eig.eigenvalues[: n // 2], positive, atol=1e-12, rtol=0.0)


def test_below_threshold_raises():
    with pytest.raises(RegimeError):
        solve_even_roots(ChainSpec(4, 1.5))
    with pytest.raises(RegimeError):
        eigensystem_even(ChainSpec(6, 4.0 / 3.0))


def test_odd_spectrum_uniform_five():
    eig = eigensystem_odd(ChainSpec(5, 1.0))
    assert eig.provenance == PROVENANCE_ANALYTIC_ODD
    expected = [math.sqrt(3.0), 1.0, 0.0, -1.0, -math.sqrt(3.0)]
    assert np.allclose(eig.eigenvalues, expected, atol=1e-12, rtol=0.0)


def test_odd_spectrum_five_delta_two():
    eig = eigensystem_odd(ChainSpec(5, 2.0))
    expected = [math.sqrt(7.0), math.sqrt(3.0), 0.0, -math.sqrt(3.0), -math.sqrt(7.0)]
    assert np.allclose(eig.eigenvalues, expected, atol=1e-12, rtol=0.0)


def test_zero_mode_lives_on_odd_sites():
    eig = eigensystem_odd(ChainSpec(7, 1.6))
    zero_col = eig.vectors[:, 3]
    assert abs(eig.eigenvalues[3]) < 1e-14
    # sites 2, 4, 6 (0-based 1, 3, 5) carry nothing
    assert np.all(np.abs(zero_col[1::2]) < 1e-14)
    weights = zero_col[0::2]
    # geometric decay with ratio -delta toward the far end
    ratios = weights[:-1] / weights[1:]
    assert np.allclose(ratios, -1.6, atol=1e-12, rtol=0.0)


def test_two_sites_trivial():
    eig = eigensystem_numeric(build_coupling_matrix(ChainSpec(2, 1.0)))
    assert np.allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-15, rtol=0.0)


def test_numeric_matches_even_analytic():
    for delta in (2.0, 2.38, 3.0):
        for n in range(4, 17, 2):
            spec = ChainSpec(n, delta)
            if delta <= spec.even_regime_threshold() * (1.0 + 1e-5):
                continue
            ana = eigensystem_even(spec)
            num = eigensystem_numeric(build_coupling_matrix(spec))
            assert np.max(np.abs(ana.eigenvalues - num.eigenvalues)) < 1e-9
            for col in range(n):
                u, v = ana.vectors[:, col], num.vectors[:, col]
                assert min(np.max(np.abs(u - v)), np.max(np.abs(u + v))) < 1e-8


def test_numeric_matches_odd_analytic():
    for delta in (1.0, 1.5, 2.0):
        for n in range(3, 16, 2):
            spec = ChainSpec(n, delta)
            ana = eigensystem_odd(spec)
            num = eigensystem_numeric(build_coupling_matrix(spec))
            assert np.max(np.abs(ana.eigenvalues - num.eigenvalues)) < 1e-9
            for col in range(n):
                u, v = ana.vectors[:, col], num.vectors[:, col]
                assert min(np.max(np.abs(u - v)), np.max(np.abs(u + v))) < 1e-8


def test_every_chain_goes_through_lapack():
    specs = [
        ChainSpec(5, 1.3),  # odd
        ChainSpec(6, 2.0),  # even, above the threshold (N+2)/N
        ChainSpec(6, 1.2),  # even, below it
        ChainSpec(40, 2.38),  # long
    ]
    assert {eigensystem_for(spec).provenance for spec in specs} == {PROVENANCE_NUMERIC}


@settings(deadline=None, max_examples=60)
@given(
    n_half=st.integers(min_value=2, max_value=8),
    delta=st.floats(min_value=1.9, max_value=4.5),
)
def test_even_eigensystem_properties(n_half, delta):
    """Orthonormality, residual, pairing for arbitrary valid even chains."""
    n = 2 * n_half
    spec = ChainSpec(n, delta)
    eig = eigensystem_even(spec)
    dense = dense_matrix(build_coupling_matrix(spec))
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10
    residual = np.max(np.abs(dense @ eig.vectors - eig.vectors * eig.eigenvalues))
    assert residual < 1e-9 * np.max(np.abs(dense))
    lam = np.sort(eig.eigenvalues)
    assert np.max(np.abs(lam + lam[::-1])) < 1e-10


@settings(deadline=None, max_examples=60)
@given(
    n_half=st.integers(min_value=1, max_value=7),
    delta=st.floats(min_value=0.2, max_value=4.0),
)
def test_odd_eigensystem_properties(n_half, delta):
    n = 2 * n_half + 1
    spec = ChainSpec(n, delta)
    eig = eigensystem_odd(spec)
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10
    dense = dense_matrix(build_coupling_matrix(spec))
    residual = np.max(np.abs(dense @ eig.vectors - eig.vectors * eig.eigenvalues))
    assert residual < 1e-9 * np.max(np.abs(dense))
    # descending order
    assert np.all(np.diff(eig.eigenvalues) <= 1e-14)


def test_smallest_positive():
    eig = eigensystem_odd(ChainSpec(5, 2.0))
    assert eig.smallest_positive() == pytest.approx(math.sqrt(3.0), abs=1e-12)


@pytest.mark.parametrize("delta", [1.0, 2.38])
@pytest.mark.parametrize("n", range(3, 16, 2))
def test_smallest_positive_skips_the_zero_mode(n, delta):
    # lambda_min is the smallest of the positive half, not the zero mode
    # below it, on the engine as on the closed form
    spec = ChainSpec(n, delta)
    closed = eigensystem_odd(spec).smallest_positive()
    numeric = eigensystem_numeric(build_coupling_matrix(spec)).smallest_positive()
    assert closed > 0.1
    assert abs(closed - numeric) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 14, 64, 65, 256, 512])
def test_spectra_match_numeric_route(n):
    # ratios on both sides of the even threshold (N+2)/N.  The levels come
    # from one levels function on both routes; the end products from the
    # identity and from the singular vectors differ by at most 2.3e-14 at
    # N = 256 and 512 on these ratios (measured)
    deltas = np.array([0.5, 1.1, 1.13, 1.6, 2.38, 3.2, 8.0])
    lam, ends = spectra(n, deltas)
    assert lam.shape == ends.shape == (deltas.size, n)
    tol = 1e-12 if n <= 65 else 5e-14
    for i, delta in enumerate(deltas):
        eig = eigensystem_numeric(build_coupling_matrix(ChainSpec(n, float(delta))))
        assert np.array_equal(lam[i], eig.eigenvalues)
        expected = eig.vectors[0] * eig.vectors[-1]
        assert np.max(np.abs(ends[i] - expected)) <= tol


# u_1j * u_Nj of the positive levels, descending, then an odd chain's zero
# mode, from a 60-digit mpmath eigensolve of the N x N chain, to 40 digits
END_PRODUCT_REFERENCE = {
    (6, 2.0): (
        "0.02718924939680335340549277350446822985228",
        "-0.07884918859916908227306320673391348479614",
        "0.3939615620040275643214440197616182853516",
    ),
    (8, 2.4): (
        "0.01015268814102094641094317416030920749544",
        "-0.0329382269192343163462683343128370299644",
        "0.04177952259408493528754752746167511177027",
        "-0.4151295623456598019552409640651786507699",
    ),
    (9, 2.38): (
        "0.01563946141146522512162712653169342217696",
        "-0.05292305617837453076877438424417453093523",
        "0.0829012759673107402310538208109868866002",
        "-0.05845216868422248245010349628579814868718",
        "0.02566897496764209573239386637458474169051",
    ),
    (24, 2.38): (
        "0.0004611022030868506421639207506076071721671",
        "-0.001801071538180082801755353547798855490696",
        "0.003890215351216892156337227662104658751995",
        "-0.006512763328783044316306432992201714256643",
        "0.009364937770495503523549712522171845790756",
        "-0.01204694348363371776015399791430790657278",
        "0.01404413558554923871487906624301612244408",
        "-0.01469971876624513666860348763310937637582",
        "0.01323079002585005255064795081182625491511",
        "-0.009054574552920449873779715633094396942119",
        "0.003164342871934893820412614463559882208365",
        "-0.4117294045221041371714105198262013790795",
    ),
    (33, 2.38): (
        "0.0004167149146616935405903959072316577179479",
        "-0.001645449766581012157009143894539494765619",
        "0.00362214029114933862791510330991419216865",
        "-0.006240493059719423424647970778798711235356",
        "0.009352455924008334649567937868751227908362",
        "-0.01276837714875206664064734418467465696524",
        "0.0162563847107086338481075721410620587488",
        "-0.01954053831272200830002992762615820916664",
        "0.02229776694789077316145169459853306988602",
        "-0.02415533310696390410489443594539004566959",
        "0.02469561812315315637477642458254063910018",
        "-0.0234878076957085608302011510064034765174",
        "0.02019285612596480649100351746407714784968",
        "-0.01482341738349193286063720028271241136955",
        "0.00820788552378702561473416649896404932172",
        "-0.002380794578028698644206751465542862607176",
        "7.769812876893082542256262916511904138921e-7",
    ),
    (48, 2.38): (
        "6.011492061276727108677461238255885372502e-5",
        "-0.0002389849313131885404714174803464233012276",
        "0.0005321905904356997656797779687918483976488",
        "-0.0009323808988359594675787323451497643923022",
        "0.001429290796853119720295106533304310741141",
        "-0.002009756271576248670739841501242609312469",
        "0.002657717337643433669408109186964647380786",
        "-0.003354196052511748906349214573092142894636",
        "0.004077233840194407949199987493339084180054",
        "-0.004801770657114426659591656040989079097002",
        "0.005499450164061849062181023212419264810472",
        "-0.00613834502179338646287487736544768159564",
        "0.006682625266247433582663116585997517042563",
        "-0.007092262145749132632567926821994571412985",
        "0.007323012433834973435242955663108724702134",
        "-0.007327241811447638192030190356078761759483",
        "0.007056742614854677157203861992669386572512",
        "-0.006469705376840164465938615874773458668922",
        "0.005545292847829672496125461668627986041335",
        "-0.0043096635010311020257923448769343163029",
        "0.002872963022210106941620613477118440180876",
        "-0.001460993604436654717415173767816963968207",
        "0.000398668251162697993401037013848086883752",
        "-0.4117293976414095102145421835875623715072",
    ),
}


@pytest.mark.parametrize("n,delta", sorted(END_PRODUCT_REFERENCE))
def test_end_products_as_accurate_as_the_vectors(n, delta):
    reference = [Decimal(v) for v in END_PRODUCT_REFERENCE[n, delta]]

    def error(values):
        return max(abs(Decimal(float(v)) - r) for v, r in zip(values, reference))

    _, ends = spectra(n, np.array([delta]))
    eig = eigensystem_for(ChainSpec(n, delta))
    vectors = eig.vectors[0] * eig.vectors[-1]
    assert error(ends[0]) <= max(error(vectors), Decimal(4 * np.finfo(float).eps))


def test_spectra_takes_one_values_only_svd(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(stack, compute_uv=True):
        calls.append((stack.shape, compute_uv))
        return real(stack, compute_uv=compute_uv)

    def refuse(*args):
        raise AssertionError("spectra validated singular vectors")

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(spectral_mod, "_validate_svd", refuse)
    spectra(8, np.linspace(2.0, 3.0, 5))
    spectra(9, np.array([2.38]))
    assert calls == [((5, 4, 4), False), ((1, 5, 5), False)]


# an odd chain whose bond product overflows a float (8^511), an even one
# whose s_min underflows to 0, and the longest at a ratio below 1
@pytest.mark.parametrize("n,delta", [(1023, 8.0), (1024, 8.0), (1024, 0.5), (512, 2.38)])
def test_spectra_of_the_longest_chains(n, delta):
    lam, ends = spectra(n, np.array([delta]))
    half = n // 2
    assert np.isfinite(ends).all()
    bonds = ChainSpec(n, delta).couplings()
    assert math.isclose(np.sum(lam[0, :half] ** 2), np.sum(bonds ** 2), rel_tol=1e-13)
    if n % 2 == 0:
        assert abs(2.0 * np.sum(np.abs(ends[0, :half])) - 1.0) <= 1e-12
    else:
        assert abs(2.0 * np.sum(ends[0, :half]) + ends[0, half]) <= 1e-15


@pytest.mark.parametrize(
    "deltas", [[2.0, math.inf], [math.nan], [2.0, -1.0], [0.0], [], [[2.0, 3.0]]]
)
def test_spectra_rejects_bad_ratios(deltas):
    with pytest.raises(ValidationError):
        spectra(6, np.array(deltas, dtype=float))


def test_spectra_refuses_coinciding_levels():
    # at ratio 1e-14 the two levels of N = 5 are both 1.0 in floating point,
    # and the identity divides by their difference
    with pytest.raises(NumericError, match=r"N=5, delta=1e-14"):
        spectra(5, np.array([2.38, 1e-14]))


def test_refused_chain_leaves_one_solve(monkeypatch):
    # the stack above costs one values-only SVD; its refused chain is
    # flagged, and its other row is that of a solve without it, to the bit
    lam_alone, ends_alone = spectra(5, np.array([2.38]))
    calls = []
    real = np.linalg.svd

    def counting(stack, compute_uv=True):
        calls.append((stack.shape, compute_uv))
        return real(stack, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "svd", counting)
    lam, ends, ok = spectral_mod._masked_spectra(5, np.array([2.38, 1e-14]))
    assert calls == [((2, 3, 3), False)]
    assert ok.tolist() == [True, False]
    assert np.array_equal(lam[:1], lam_alone) and np.array_equal(ends[:1], ends_alone)


@pytest.mark.parametrize("n", [*range(2, 33), 513, 514, 1025, 1026])
def test_stacked_rows_equal_single_solves(n):
    # the ratio polish solves ratios ahead in one stack and reads each row
    # as the solve of its ratio alone: levels, end products and verdict
    # agree to the bit, on both sides of the even threshold (N+2)/N, and
    # where prod b (from N = 514) or the denominators (from N = 1025)
    # cross a run of _PRODUCT_RUN factors, at four ratios to keep it short
    rng = np.random.default_rng(n)
    deltas = np.concatenate([rng.uniform(0.3, 4.0, 12), [1e-14, (n + 2) / n]])
    if n > 512:
        deltas = np.array([0.5, 2.38, 3.3, 8.0])
    lam, ends, ok = spectral_mod._masked_spectra(n, deltas)
    for i, delta in enumerate(deltas):
        lam_1, ends_1, ok_1 = spectral_mod._masked_spectra(n, deltas[i:i + 1])
        assert ok[i] == ok_1[0]
        if ok[i]:
            assert lam[i].tobytes() == lam_1[0].tobytes(), delta
            assert ends[i].tobytes() == ends_1[0].tobytes(), delta


def _corrupt_svd(monkeypatch, corrupt, chain):
    """Make np.linalg.svd damage one chain's triplets of every stack it returns.

    The values-only return (all that spectra asks for) gets a NaN or an
    infinite level, a level scaled by 1 + 1e-8 or shifted by 1e-6, its
    two largest levels swapped, or, on an odd chain, whose last value is
    the zero row's, its smallest level negated; the vectors of the full
    return a NaN or the same scaling.
    """
    real = np.linalg.svd

    def broken(stack, compute_uv=True):
        if not compute_uv:
            s = real(stack, compute_uv=False).copy()
            if corrupt == "nan":
                s[chain, 0] = math.nan
            elif corrupt == "inf":
                s[chain, 0] = math.inf
            elif corrupt == "scale":
                s[chain, 0] *= 1.0 + 1e-8
            elif corrupt == "shift":
                s[chain, 0] += 1e-6
            elif corrupt == "swap":
                s[chain, :2] = s[chain, 1::-1]
            elif corrupt == "negative":
                s[chain, -2] *= -1.0
            return s
        first, s, last = (w.copy() for w in real(stack))
        if corrupt == "nan":
            last[chain, 0, 0] = math.nan
        elif corrupt == "scale":
            first[chain] *= 1.0 + 1e-8
        return first, s, last

    monkeypatch.setattr(np.linalg, "svd", broken)


@pytest.mark.parametrize("corrupt", ["nan", "scale", "shift"])
def test_spectra_validates_every_system(monkeypatch, corrupt):
    _corrupt_svd(monkeypatch, corrupt, chain=1)
    with pytest.raises(NumericError):
        spectra(6, np.array([2.0, 2.1, 2.2]))


@pytest.mark.parametrize(
    "corrupt,n", [("inf", 6), ("inf", 7), ("swap", 6), ("swap", 7), ("negative", 7)]
)
def test_level_checks_flag_the_damaged_chain(monkeypatch, corrupt, n):
    # one pass of folded checks: an infinite level breaks the trace rule,
    # two swapped levels the order, and an odd chain's negated smallest level
    # only the sign, for order and trace cannot see it (an even chain's
    # smallest level is set from det B, whatever the SVD returns)
    _corrupt_svd(monkeypatch, corrupt, chain=1)
    deltas = np.array([2.0, 2.1, 2.2])
    bonds = alternating_couplings(n, deltas)
    ok = spectral_mod._levels(bonds, spectral_mod._bidiagonal_t(bonds))[1]
    assert ok.tolist() == [True, False, True]
    assert spectral_mod._masked_spectra(n, deltas)[2].tolist() == [True, False, True]
    with pytest.raises(NumericError, match=rf"N={n}, delta=2\.1$"):
        spectra(n, deltas)


@pytest.mark.parametrize("corrupt", ["nan", "scale", "shift"])
@pytest.mark.parametrize("n", [6, 7])
def test_single_chain_validates_the_svd(monkeypatch, corrupt, n):
    _corrupt_svd(monkeypatch, corrupt, chain=0)
    with pytest.raises(NumericError):
        eigensystem_for(ChainSpec(n, 2.0))


# lambda_min of even chains from a 40-digit mpmath eigensolve of B^T B
# (80 working digits), agreeing with the closed-form hyperbolic root
# wherever delta lies above (N+2)/N
LAMBDA_MIN_REFERENCE = [
    (24, 2.38, 5.933286899339601023554303583547630159385e-05),
    (32, 2.38, 1.849215464721662412908331281046060236675e-06),
    (48, 2.38, 1.796271007472749771227536458525208498139e-09),
    (64, 2.38, 1.744842390667635607981179904724807573159e-12),
    (16, 0.5, 0.5475617849710101770571375298540569811004),  # ratio below 1
    (16, 1.13, 0.1229540870300310033006648553129183388794),  # just above 18/16
    (16, 8.0, 4.693865776062142781382155973854796646196e-07),  # far above
]


@pytest.mark.parametrize("n,delta,reference", LAMBDA_MIN_REFERENCE)
def test_lambda_min_to_full_relative_precision(n, delta, reference):
    # LAPACK's absolute error leaves 4 correct digits at N=64; the
    # determinant identity keeps all of them
    eig = eigensystem_for(ChainSpec(n, delta))
    assert abs(eig.smallest_positive() - reference) <= 1e-13 * reference
    lam, _ = spectra(n, np.array([delta, 2.0]))
    assert lam[0, n // 2 - 1] == eig.smallest_positive()


@pytest.mark.parametrize("n", [2, 3, 8, 9, 24, 64, 65])
@pytest.mark.parametrize("delta", [0.5, 2.38, 8.0])
def test_spectrum_pairs_exactly(n, delta):
    eig = eigensystem_for(ChainSpec(n, delta))
    lam, _ = spectra(n, np.array([delta]))
    for levels in (eig.eigenvalues, lam[0]):
        assert np.array_equal(levels, -levels[::-1])
        if n % 2:
            assert levels[n // 2] == 0.0


def _scaled_ends(ends: np.ndarray, n: int) -> np.ndarray:
    return ends * 1.001


def _swapped_ends(ends: np.ndarray, n: int) -> np.ndarray:
    if n % 2 == 0:
        ends = ends.copy()
        ends[:, :2] = ends[:, 1::-1]
    return ends


@pytest.mark.parametrize("defect", [_scaled_ends, _swapped_ends], ids=["scaled", "swapped"])
def test_verify_watches_the_spectra_route(monkeypatch, defect):
    # every end product x 1.001 passed the other checks of verify, and an
    # even chain's first two end products swapped keep every sum rule;
    # spectra-route compares the route of the searches with the singular
    # vectors of eigensystem_for and fails both
    run_all(checks=["spectra-route"])
    real = spectral_mod._end_products

    def damaged(b, s):
        ends, ok = real(b, s)
        return defect(ends, len(b) + 1), ok

    monkeypatch.setattr(spectral_mod, "_end_products", damaged)
    with pytest.raises(VerificationError, match=r"^spectra-route:"):
        run_all(checks=["spectra-route"])
