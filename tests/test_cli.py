"""Command-line surface: schemas, determinism, exit codes."""

import json
import logging
import os
import subprocess
import sys

import pytest

from altchain.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_eigs_trivial_two_sites(capsys):
    code, out, _ = run_cli("eigs", "--n", "2", "--delta", "1", capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "nu,lambda,provenance,residual,lambda_numeric_diff"
    assert lines[1].startswith("1,1,numeric")
    assert lines[2].startswith("2,-1,numeric")


def test_eigs_method_selection(capsys):
    code, out, _ = run_cli(
        "eigs", "--n", "4", "--delta", "2.272", "--method", "even", capsys=capsys
    )
    assert code == 0
    assert "analytic-even" in out
    code, out, _ = run_cli(
        "eigs", "--n", "4", "--delta", "2.272", "--method", "numeric", capsys=capsys
    )
    assert code == 0
    assert "analytic" not in out
    assert run_cli("eigs", "--n", "4", "--delta", "2.272", capsys=capsys)[1] == out
    assert run_cli(
        "eigs", "--n", "4", "--delta", "2.272", "--method", "auto", capsys=capsys
    )[0] == 1
    assert run_cli("--verbose", "eigs", "--n", "4", "--delta", "2.272", capsys=capsys)[0] == 1


def test_curve_max_row_matches_peak(capsys):
    code, out, _ = run_cli(
        "curve", "--n", "4", "--delta", "2.272", "--tmax", "30",
        "--samples", "3000", capsys=capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    best = max(rows, key=lambda r: float(r[1]))
    assert float(best[0]) == pytest.approx(8.303, abs=0.02)
    assert float(best[1]) == pytest.approx(0.999, abs=0.002)


def test_json_format_parses(capsys):
    code, out, _ = run_cli(
        "bound", "--n", "5", "--delta", "2", "--format", "json", capsys=capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["j"] == 1
    assert rows[0]["p_bound"] == pytest.approx(361.0 / 441.0, abs=1e-10)


def test_table1_schema(capsys):
    code, out, _ = run_cli(
        "table1", "--delta", "2.380", "--n", "4,6", capsys=capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,delta,d1_t_h1,p_h1,pi_over_lambda_min"
    first = lines[1].split(",")
    assert first[0] == "4"
    assert float(first[2]) == pytest.approx(8.084, abs=0.01)


def test_table1_json_refused_row_is_null(capsys, caplog):
    # N=32 at ratio 2.38 lies beyond the phase horizon: its row stays, as nulls
    with caplog.at_level(logging.WARNING):
        code, out, _ = run_cli(
            "table1", "--delta", "2.38", "--n", "4,32", "--format", "json", capsys=capsys
        )
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [4, 32]
    assert rows[0]["p_h1"] == pytest.approx(0.990450029154, abs=1e-12)
    assert [rows[1][key] for key in ("d1_t_h1", "p_h1", "pi_over_lambda_min")] == [None] * 3
    assert any("N=32 skipped" in record.getMessage() for record in caplog.records)


def test_eigs_json_quotes_provenance(capsys):
    code, out, _ = run_cli("eigs", "--n", "5", "--delta", "2", "--format", "json", capsys=capsys)
    assert code == 0
    assert '"provenance": "numeric"' in out
    rows = json.loads(out)
    assert [row["nu"] for row in rows] == [1, 2, 3, 4, 5]
    assert rows[2]["lambda"] == 0


def test_ideal4_first_row(capsys):
    code, out, _ = run_cli("ideal4", "--max-product", "10", capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,b,delta_bar,d1_t_bar,probability"
    a, b, delta_bar, t_bar, prob = lines[1].split(",")
    assert (a, b) == ("3", "1")
    assert float(t_bar) == pytest.approx(5.4414, abs=1e-3)
    assert float(prob) == 1.0


def test_validation_exit_code(capsys):
    code, _, err = run_cli("eigs", "--n", "4", "--delta", "-2", capsys=capsys)
    assert code == 1
    assert "delta" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--time", "--delta-min", "--delta-max"])
def test_fixed_time_non_finite_exit_code(capsys, flag, value):
    argv = {"--time": "60", "--delta-min": "2.0", "--delta-max": "3.0"}
    argv[flag] = value
    code, out, err = run_cli(
        "fixed-time", "--n", "8", *(f"{k}={v}" for k, v in argv.items()), capsys=capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["curve", "--n", "4", "--delta", "2.38", "--tmax", "inf", "--samples", "3"],
                     id="curve-tmax-inf"),
        pytest.param(["curve", "--n", "4", "--delta", "2.38", "--tmax", "nan", "--samples", "3"],
                     id="curve-tmax-nan"),
        pytest.param(["curve", "--n", "4", "--delta", "inf", "--tmax", "10", "--samples", "3"],
                     id="curve-delta-inf"),
        pytest.param(["bound", "--n", "5", "--delta", "inf"], id="bound-delta-inf"),
        pytest.param(["bound", "--n", "5", "--delta", "nan"], id="bound-delta-nan"),
        pytest.param(["table1", "--delta", "inf", "--n", "4"], id="table1-delta-inf"),
        pytest.param(["table1", "--delta", "nan", "--n", "4,5"], id="table1-delta-nan"),
        pytest.param(["eigs", "--n", "4", "--delta", "inf"], id="eigs-delta-inf"),
    ],
)
def test_non_finite_exit_code(capsys, argv):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["fixed-time", "--n", "8", "--time", "1e300"], id="fixed-time-1e300"),
        pytest.param(["curve", "--n", "8", "--delta", "2.38", "--tmax", "1e300",
                      "--samples", "3"], id="curve-tmax-1e300"),
    ],
)
def test_beyond_horizon_exit_code(capsys, argv):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure:")


@pytest.mark.parametrize("n, delta", [("301", "100"), ("301", "1e3"), ("2001", "2.38")])
def test_odd_closed_form_overflow_exit_code(capsys, n, delta):
    # delta^(N+1) overflows a float: the zero mode has no normalisation,
    # and the refusal names it instead of a NaN or a failed orthonormality
    code, out, err = run_cli("eigs", "--n", n, "--delta", delta, "--method", "odd", capsys=capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"numeric failure: zero-mode normalisation would overflow for N={n}")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["optimize", "--n", "4", "--delta-min", "2", "--delta-max", "1e12"],
                     id="optimize-1e12"),
        pytest.param(["fixed-time", "--n", "8", "--time", "0.001", "--delta-min", "2",
                      "--delta-max", "1e9"], id="fixed-time-1e9"),
        pytest.param(["optimize", "--n", "4", "--delta-max", "1e300"], id="optimize-1e300"),
    ],
)
def test_oversized_ratio_grid_exit_code(capsys, argv):
    # refused before the grid is allocated: 5e14 points would need 3.55 PiB
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure:") and "cap 1000000" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["table1", "--delta", "1e-9", "--n", "4,6,8"], id="table1-1e-9"),
        pytest.param(["fixed-time", "--n", "8", "--time", "60", "--delta-min", "5e-324",
                      "--delta-max", "0.001"], id="fixed-time-5e-324"),
    ],
)
def test_tiny_ratios_print_rows(capsys, argv):
    # at 1e-9 the levels lie within about 1e-9 of each other, relative, and
    # the end products keep about seven digits; at 5e-324 the levels
    # coincide, and that ratio is no candidate
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == (3 if argv[0] == "table1" else 1)
    assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)
    if argv[0] == "fixed-time":
        assert rows[0][2] == "0.001"


def test_longest_even_chain_prints_a_nan_row(capsys):
    # N = 1024 at ratio 8: s_min underflows to 0, and the unbounded peak
    # window refuses the row, which prints as NaN
    code, out, _ = run_cli("table1", "--delta", "8", "--n", "1024", capsys=capsys)
    assert code == 0
    assert out == "n,delta,d1_t_h1,p_h1,pi_over_lambda_min\n1024,8,nan,nan,nan\n"


def test_every_ratio_refused_exit_code(capsys):
    code, out, err = run_cli(
        "fixed-time", "--n", "8", "--time", "60", "--delta-min", "5e-324",
        "--delta-max", "1e-300", capsys=capsys,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure:") and "refused every ratio" in err


def test_optimize_every_ratio_unreachable_exit_code(capsys, monkeypatch):
    from altchain import search as search_mod

    # no window fits the scan's cap of samples: _peak_grid refuses every ratio
    monkeypatch.setattr(search_mod, "_MAX_GRID_POINTS", 0)
    code, out, err = run_cli(
        "optimize", "--n", "6", "--delta-min", "2.3", "--delta-max", "2.4", capsys=capsys
    )
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure:") and "every ratio of [2.3, 2.4] at N=6" in err


def test_refused_range_names_its_limit(capsys):
    # every ratio's peak window needs more samples than the scan's cap;
    # the message names the first ratio's
    code, out, err = run_cli(
        "optimize", "--n", "32", "--delta-min", "2.3", "--delta-max", "2.33", capsys=capsys
    )
    assert code == 3 and out == ""
    assert err.startswith("numeric failure: refused every ratio of [2.3, 2.33] at N=32: ")
    assert "peak window needs 134279324 samples (cap 100000000)" in err


def test_refused_spectra_name_their_checks(capsys):
    code, out, err = run_cli(
        "fixed-time", "--n", "8", "--time", "60", "--delta-min", "5e-324",
        "--delta-max", "1e-300", capsys=capsys,
    )
    assert code == 3 and out == ""
    assert "fails the checks of spectra" in err


HUGE_N = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["eigs", "--n", HUGE_N, "--delta", "2"], id="eigs"),
        pytest.param(["curve", "--n", HUGE_N, "--delta", "2", "--tmax", "1", "--samples", "3"],
                     id="curve"),
        pytest.param(["table1", "--delta", "2", "--n", f"4,{HUGE_N}"], id="table1"),
    ],
)
def test_huge_chain_refused_before_allocating(capsys, argv):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"numeric failure: N={HUGE_N} is above the cap of 8192 sites")


def test_long_time_within_horizon(capsys):
    code, out, _ = run_cli("fixed-time", "--n", "8", "--time", "1e5", capsys=capsys)
    assert code == 0
    p_h = float(out.strip().split("\n")[1].split(",")[3])
    assert 0.0 <= p_h <= 1.0


def test_unknown_flag_exit_code(capsys):
    code, _, err = run_cli("eigs", "--n", "4", "--delta", "2", "--bogus", capsys=capsys)
    assert code == 1
    assert "bogus" in err


def test_output_file_lf_only(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        "table1", "--delta", "2.380", "--n", "4",
        "--output", str(target), capsys=capsys,
    )
    assert code == 0
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


@pytest.mark.parametrize(
    "target,reason",
    [
        pytest.param("missing/rows.csv", "No such file or directory", id="missing-directory"),
        pytest.param(".", "Is a directory", id="directory"),
    ],
)
def test_unwritable_output_exit_code(tmp_path, capsys, target, reason):
    path = tmp_path / target
    code, out, err = run_cli(
        "table1", "--delta", "2.38", "--n", "4", "--output", str(path), capsys=capsys
    )
    assert code == 1 and out == ""
    assert err == f"error: cannot write {path}: {reason}\n"
    assert "Traceback" not in err


def test_byte_identical_reruns(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        target = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "altchain.cli",
                "optimize", "--n", "4",
                "--delta-min", "2.25", "--delta-max", "2.29",
                "--output", str(target),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["table1", "--delta", "2.38", "--n", "14,16,18,20"], id="table1"),
        pytest.param(["optimize", "--n", "8"], id="optimize"),
        pytest.param(
            ["fixed-time", "--n", "8", "--time", "60", "--delta-min", "2.0", "--delta-max", "3.0"],
            id="fixed-time",
        ),
    ],
)
def test_stdout_does_not_depend_on_blas_threads(argv):
    # the peak scan and the ratio polish run through stacked solves and
    # matrix products; fresh processes with one BLAS thread and with the
    # library's default print the same bytes
    default = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    single = dict(default, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    outputs = []
    for env in (single, default):
        proc = subprocess.run(
            [sys.executable, "-m", "altchain.cli", *argv],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_console_entry_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "altchain.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for command in ("eigs", "curve", "optimize", "fixed-time",
                    "table1", "ideal4", "bound", "verify"):
        assert command in proc.stdout


README_COMMANDS = [
    ["eigs", "--n", "6", "--delta", "2.373"],
    ["curve", "--n", "4", "--delta", "2.272", "--tmax", "12", "--samples", "2000"],
    ["optimize", "--n", "4", "--delta-min", "2.0", "--delta-max", "3.0"],
    ["fixed-time", "--n", "8", "--time", "60", "--delta-min", "2.0", "--delta-max", "3.0"],
    ["table1", "--delta", "2.380", "--n", "4,6,8,10,12,14,16"],
    ["ideal4", "--max-product", "60"],
    ["bound", "--n", "5", "--delta", "2.0", "--format", "json"],
    ["verify"],
]


def test_readme_commands_run_without_scipy():
    # the package needs numpy only; an import of scipy anywhere on the
    # command path or in the 2^N oracle makes this interpreter fail
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from altchain import ChainSpec, full_space_amplitude\n"
        "from altchain.cli import main\n"
        "full_space_amplitude(ChainSpec(10, 2.38), 1.0)\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps(codes))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(README_COMMANDS)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(README_COMMANDS), proc.stderr
