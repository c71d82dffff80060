"""Command-line front end.

Every operation is exposed as a subcommand that writes a CSV or JSON
table to stdout or a file.  Output is deterministic byte for byte:
fixed column orders, 12 significant digits, LF line endings.  Exit
codes: 0 success, 1 invalid parameters, 2 verification failure,
3 numeric failure (lost precision, unreachable horizon, oversized
problem).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import verify as verify_module
from .bounds import bound_report
from .chain import ChainSpec, build_coupling_matrix
from .dynamics import sample_curve
from .errors import NumericError, ValidationError, VerificationError
from .ideal4 import ideal_solutions
from .search import (
    first_peak,
    fixed_time_optimize,
    optimize_delta,
    table1_sweep,
)
from .spectral import (
    eigensystem_even,
    eigensystem_for,
    eigensystem_numeric,
    eigensystem_odd,
)

_FORMATS = ("csv", "json")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports bad usage as a validation error."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValidationError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_scalar(value) -> str:
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return format(value, ".12g")
    if isinstance(value, int):
        return str(value)
    return json.dumps(str(value))


def _render(header: Sequence[str], rows: Iterable[Sequence], out_format: str) -> str:
    """The rows as CSV or a JSON list; no cell holds a comma, and no command emits no row."""
    if out_format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(cell) for cell in row))
        return "\n".join(lines) + "\n"
    body = []
    for row in rows:
        pairs = ", ".join(
            f"{json.dumps(key)}: {_json_scalar(cell)}" for key, cell in zip(header, row)
        )
        body.append("  {" + pairs + "}")
    return "[\n" + ",\n".join(body) + "\n]\n"


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=_FORMATS, default="csv", help="output format")


def build_parser() -> _Parser:
    parser = _Parser(prog="altchain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eigs", help="eigenvalues, provenance, residuals")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument(
        "--method", choices=("numeric", "even", "odd"), default="numeric",
        help="numeric: the SVD engine every other command uses; "
        "even, odd: the closed-form oracle of that parity",
    )
    _add_common(p)

    p = sub.add_parser("curve", help="transfer probability over a time window")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--node", type=_positive_int, default=None,
                   help="target node (default: last site)")
    _add_common(p)

    p = sub.add_parser("optimize", help="best first-peak ratio for an even chain")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--delta-min", type=float, default=2.0)
    p.add_argument("--delta-max", type=float, default=3.0)
    _add_common(p)

    p = sub.add_parser("fixed-time", help="best ratio for a prescribed arrival time")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--delta-min", type=float, default=2.0)
    p.add_argument("--delta-max", type=float, default=3.0)
    _add_common(p)

    p = sub.add_parser("table1", help="first-peak sweep over chain lengths")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=_int_list, required=True,
                   help="comma-separated chain lengths")
    _add_common(p)

    p = sub.add_parser("ideal4", help="perfect-transfer family for four sites")
    p.add_argument("--max-product", type=_positive_int, default=60)
    _add_common(p)

    p = sub.add_parser("bound", help="odd-chain probability cap report")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run the full consistency suite")

    return parser


def _cmd_eigs(args) -> tuple[list[str], list[list]]:
    spec = ChainSpec(args.n, args.delta)
    matrix = build_coupling_matrix(spec)
    numeric = eigensystem_numeric(matrix)
    oracles = {"even": eigensystem_even, "odd": eigensystem_odd}
    eig = oracles[args.method](spec) if args.method in oracles else numeric
    lam = eig.eigenvalues
    residual = np.max(np.abs(matrix.apply(eig.vectors) - eig.vectors * lam), axis=0)
    diff = np.abs(lam - numeric.eigenvalues)
    rows = [
        [i + 1, float(lam[i]), eig.provenance, float(residual[i]), float(diff[i])]
        for i in range(eig.size)
    ]
    return ["nu", "lambda", "provenance", "residual", "lambda_numeric_diff"], rows


def _cmd_curve(args) -> tuple[list[str], list[list]]:
    spec = ChainSpec(args.n, args.delta)
    eig = eigensystem_for(spec)
    curve = sample_curve(eig, args.tmax, args.samples, node=args.node)
    rows = [[float(t), float(p)] for t, p in zip(curve.times, curve.probabilities)]
    return ["d1_t", "probability"], rows


def _cmd_optimize(args) -> tuple[list[str], list[list]]:
    triad = optimize_delta(args.n, args.delta_min, args.delta_max)
    row = [args.n, triad.delta_h, triad.t_h, triad.p_h, triad.lambda_min_estimate]
    return ["n", "delta_h", "d1_t_h", "p_h", "pi_over_lambda_min"], [row]


def _cmd_fixed_time(args) -> tuple[list[str], list[list]]:
    triad = fixed_time_optimize(args.n, args.time, args.delta_min, args.delta_max)
    row = [args.n, triad.t_h, triad.delta_h, triad.p_h]
    return ["n", "d1_t", "delta_h", "p_h"], [row]


def _cmd_table1(args) -> tuple[list[str], list[list]]:
    rows = []
    for entry in table1_sweep(args.delta, args.n):
        if entry.note:
            logging.getLogger(__name__).warning(
                "N=%d skipped: %s", entry.n_sites, entry.note
            )
        rows.append(
            [entry.n_sites, entry.delta, entry.t_h1, entry.p_h1, entry.estimate]
        )
    return ["n", "delta", "d1_t_h1", "p_h1", "pi_over_lambda_min"], rows


def _cmd_ideal4(args) -> tuple[list[str], list[list]]:
    rows = [
        [sol.a, sol.b, sol.delta_bar, sol.t_bar, sol.probability]
        for sol in ideal_solutions(args.max_product)
    ]
    return ["a", "b", "delta_bar", "d1_t_bar", "probability"], rows


def _cmd_bound(args) -> tuple[list[str], list[list]]:
    report = bound_report(ChainSpec(args.n, args.delta))
    rows = []
    for j, r in enumerate(report.r_values, start=1):
        rows.append(
            [
                report.n_sites,
                report.delta,
                j,
                float(r),
                report.delta_max,
                report.f1_cap,
                report.f2_value,
                report.f2_cap,
                report.p_bound,
            ]
        )
    header = [
        "n", "delta", "j", "r_j", "delta_max",
        "f1_cap", "f2_value", "f2_cap", "p_bound",
    ]
    return header, rows


_COMMANDS = {
    "eigs": _cmd_eigs,
    "curve": _cmd_curve,
    "optimize": _cmd_optimize,
    "fixed-time": _cmd_fixed_time,
    "table1": _cmd_table1,
    "ideal4": _cmd_ideal4,
    "bound": _cmd_bound,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s"
        )
        if args.command == "verify":
            verify_module.run_all(stream=sys.stdout)
            return 0
        header, rows = _COMMANDS[args.command](args)
        _emit(_render(header, rows, args.format), args.output)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
