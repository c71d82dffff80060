"""Every check of `verify` fails under a defect seeded in the route it guards.

Mutation adequacy (DeMillo, Lipton and Sayward 1978): each check gets at
least one plausible defect, and run_all(checks=[name]) must then raise a
VerificationError that names the check.  A defect is a wrapped function,
a one-token change to a function's source, bound wherever the library
imported the function, or a changed module constant.  A check added to
verify.CHECKS without a defect here fails test_every_check_has_a_defect,
and a raise added to verify.py that no defect reaches fails
test_every_raise_site_fails.
"""

import ast
import functools
import inspect
import re
import textwrap
import traceback

import pytest

from altchain import VerificationError, bounds, cli, dynamics, ideal4, search, spectral, verify
from altchain.dynamics import paired_transfer_probability
from altchain.verify import CHECKS, run_all


def mutant(module, name, old, new):
    """A defect: module.name, a function or Class.method, with `old` in its source read `new`."""

    def seed(monkeypatch):
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        source = textwrap.dedent(inspect.getsource(original))
        assert source.count(old) == 1, f"{name} holds {old!r} {source.count(old)} times"
        namespace = dict(vars(module))
        exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
        holders = (owner,) if owner_name else (spectral, dynamics, bounds, ideal4, search, verify)
        for holder in holders:
            if getattr(holder, attr, None) is original:
                monkeypatch.setattr(holder, attr, namespace[attr])

    return seed


def _drop_first_bracket(monkeypatch):
    """The x-root scan misses its first sign change, so an even chain lacks a root."""
    real = spectral.bracket_sign_changes
    monkeypatch.setattr(spectral, "bracket_sign_changes", lambda *args: real(*args)[1:])


def _without_zero_mode(kernel):
    """The kernel with an odd chain's zero-mode constant dropped."""

    def defect(lam, ends, t, node=None):
        if lam.shape[-1] % 2:
            ends = ends.copy()
            ends[..., lam.shape[-1] // 2] = 0.0
        return kernel(lam, ends, t, node)

    return defect


def _scaled(kernel):
    """The kernel with its output scaled by 1 + 1e-9."""
    return lambda lam, ends, t, node=None: kernel(lam, ends, t, node) * (1.0 + 1e-9)


def _kernel(module, defect):
    """defect seeded in the probability kernel as module binds it.

    search binds the kernel at import, so a defect seeded in dynamics
    does not reach the searches, and one seeded in search reaches only
    them.
    """
    return lambda monkeypatch: monkeypatch.setattr(
        module, "paired_transfer_probability", defect(paired_transfer_probability)
    )


def _scaled_ends(ends, n):
    return ends * 1.001


def _swapped_ends(ends, n):
    if n % 2 == 0:
        ends = ends.copy()
        ends[:, :2] = ends[:, 1::-1]
    return ends


def _end_products(defect):
    """defect applied to the end products of spectra, which keep their sum-rule verdict."""

    def seed(monkeypatch):
        real = spectral._end_products

        def damaged(b, s):
            ends, ok = real(b, s)
            return defect(ends, len(b) + 1), ok

        monkeypatch.setattr(spectral, "_end_products", damaged)

    return seed


DEFECTS = {
    # the first x root goes missing; and sqrt(2) typed to eight digits in
    # the SVD engine's even-site components, past its residual checks
    "even-agreement": (
        _drop_first_bracket,
        mutant(spectral, "eigensystem_numeric", "v / np.sqrt(2.0)", "v / 1.4142135"),
    ),
    # the zero mode loses its alternating sign
    "odd-agreement": (mutant(spectral, "eigensystem_odd", "np.power(-delta,", "np.power(delta,"),),
    # lambda_min read one level too far, off the negative partner
    "lambda-min-decreasing": (
        mutant(spectral, "EigenSystem.smallest_positive", "self.size // 2 - 1", "self.size // 2"),
    ),
    # the negative half of the spectrum loses its sign; the closed forms
    # share the assembler, so the agreement checks cannot see it
    "spectral-negation": (
        mutant(spectral, "_paired_levels", "-levels[..., ::-1]", "levels[..., ::-1]"),
    ),
    # every end product x 1.001, an even chain's first two end products
    # swapped, which keeps every sum rule, and the ratios read in single
    # precision, which moves the levels first
    "spectra-route": (
        _end_products(_scaled_ends),
        _end_products(_swapped_ends),
        mutant(spectral, "_masked_spectra", "dtype=float)", "dtype=np.float32)"),
    ),
    # the odd form's zero-mode constant loses its sign, and the even
    # form's edge mode its sign
    "form-equivalence": (
        mutant(dynamics, "transfer_probability_odd_form", "(-delta) ** (", "delta ** ("),
        mutant(dynamics, "transfer_probability_even_form", "(n // 2 + 1) % 2", "(n // 2) % 2"),
    ),
    # the unitarity check sums P over every node of odd and even chains
    "unitarity": (_kernel(dynamics, _without_zero_mode), _kernel(dynamics, _scaled)),
    # the 2^N Hamiltonian's bonds lose their factor 1/2 of the spin operators
    "full-space-oracle": (
        mutant(dynamics, "_full_space_hamiltonian", "0.5 * strength", "strength"),
    ),
    # r_j's numerator loses its factor 2, which lowers the cap
    "bound-dominance": (
        mutant(bounds, "bound_report", "(2.0 + 2.0 * cos_theta)", "(1.0 + cos_theta)"),
    ),
    # the delta -> 1 limit of F2 off by two sites
    "f2-limit": (
        mutant(bounds, "bound_report", "f2_value = 2.0 / (n + 1)", "f2_value = 2.0 / (n - 1)"),
    ),
    # b starts at 5, so the fastest member (a, b) = (3, 1) is missed; the
    # acceptance floor 1 + 1e-9 for 1 - 1e-9, which no candidate reaches;
    # and t = pi sqrt(a) sqrt(b), which rounds differently from pi sqrt(ab)
    "ideal-family": (
        mutant(ideal4, "ideal_solutions", "range(1, max_product", "range(5, max_product"),
        lambda monkeypatch: monkeypatch.setattr(ideal4, "_IDEAL_PROBABILITY_FLOOR", 1.0 + 1e-9),
        mutant(ideal4, "ideal_solutions", "t_bar = math.pi * math.sqrt(a * b)",
               "t_bar = math.pi * math.sqrt(a) * math.sqrt(b)"),
    ),
    # the estimate takes a full period, 2 pi / lambda_min
    "peak-estimate": (mutant(search, "_peak_polish", "math.pi / float", "2.0 * math.pi / float"),),
    # search-route compares the p_h of first_peak and fixed_time_optimize,
    # odd and even chains, with the reference route, and each first-peak
    # t_h with its window, which a wider scan leaves
    "search-route": (
        _kernel(search, _without_zero_mode),
        _kernel(search, _scaled),
        lambda monkeypatch: monkeypatch.setattr(search, "_WINDOW_FACTOR", 1.5),
    ),
    # nodes counted from 0: node k reads site k + 1
    "inner-nodes": (mutant(dynamics, "_node_weights", "vectors[node - 1]", "vectors[node]"),),
}


def test_every_check_has_a_defect():
    assert list(DEFECTS) == [name for name, _ in CHECKS]


def _raise_lines(exc):
    """The last line of verify.py on the traceback of exc and of the exception it chains from."""
    return {
        [line for frame, line in traceback.walk_tb(e.__traceback__)
         if frame.f_code.co_filename == verify.__file__][-1]
        for e in (exc, exc.__cause__) if e is not None
    }


def assert_seeded_defect_fails(name, *seeds):
    """The check `name` passes, and fails under each defect seeded alone.

    Returns the lines of verify.py whose raise statements the defects reached.
    """
    run_all(checks=[name])
    lines = set()
    for seed in seeds:
        with pytest.MonkeyPatch.context() as monkeypatch:
            seed(monkeypatch)
            with pytest.raises(VerificationError, match=rf"^{re.escape(name)}:") as info:
                run_all(checks=[name])
        lines |= _raise_lines(info.value)
    return lines


@functools.cache
def defect_raise_lines(name):
    """assert_seeded_defect_fails on the defects of `name`, run once per session."""
    return assert_seeded_defect_fails(name, *DEFECTS[name])


@pytest.mark.parametrize("name", DEFECTS)
def test_seeded_defect_fails_its_check(name):
    defect_raise_lines(name)


def test_every_raise_site_fails():
    # from the check down to the comparison: each raise statement of
    # verify.py raises under some seeded defect, or for an unknown name
    sites = {node.lineno for node in ast.walk(ast.parse(inspect.getsource(verify)))
             if isinstance(node, ast.Raise)}
    reached = set().union(*map(defect_raise_lines, DEFECTS))
    with pytest.raises(VerificationError, match=r"^unknown checks: \['no-such-check'\]$") as info:
        run_all(checks=["no-such-check"])
    assert sites - reached - _raise_lines(info.value) == set()


def test_a_route_failure_fails_its_check(monkeypatch, capsys):
    # the even closed form refuses a chain whose root scan comes up short;
    # verify reports it as the failure of the check that ran it, exit 2
    _drop_first_bracket(monkeypatch)
    assert cli.main(["verify"]) == 2
    out, err = capsys.readouterr()
    assert out == f"{'even-agreement':<24s} FAIL\n"
    assert err == (
        "verification failed: even-agreement: x-root scan found 0 sign changes, "
        "expected 1 (N=4, delta=2.0)\n"
    )


def test_any_route_error_fails_its_check(monkeypatch, capsys):
    # nodes counted from 0 index past the last site in unitarity, which
    # sums every node: the IndexError is that check's failure, exit 2
    DEFECTS["inner-nodes"][0](monkeypatch)
    assert cli.main(["verify"]) == 2
    out, err = capsys.readouterr()
    assert out.endswith(f"{'form-equivalence':<24s} ok\n{'unitarity':<24s} FAIL\n")
    assert err.startswith("verification failed: unitarity: index ")
    assert "Traceback" not in err
