"""End-to-end tests for the command-line interface and its configuration."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qenvelope import (
    InvalidGeneratorError,
    build_drift,
    build_laplacian,
    interval_generator,
    linear_reference,
    mat_exp,
    payoff_butterfly,
    read_matrix_file,
    write_matrix_file,
    StateGrid,
)
from qenvelope.cli import main
from qenvelope.config import ConfigError, build_family, build_matrix, load_config, \
    parse_config_file
from _helpers import jump_diffusion, two_state_exp, two_state_generator

import qenvelope.cli
import qenvelope.config

SMALL = ("--d", "11", "--delta", "1")


def run_cli(*argv):
    return main(list(argv))


# ------------------------------------------------------------- configuration


def test_config_defaults_mirror_the_reference_experiment():
    cfg = load_config(None, {})
    assert (cfg.d, cfg.delta, cfg.t) == (101, 0.1, 1.0)
    assert (cfg.q0, cfg.q) == ("laplacian", "drift")
    assert (cfg.lambda_low, cfg.lambda_high) == (-1.0, 1.0)
    assert (cfg.payoff, cfg.K, cfg.L) == ("butterfly", 4.0, 5.0)
    assert (cfg.method, cfg.steps, cfg.n, cfg.k) == ("ode-euler", 1000, 10, 10)
    assert cfg.tol == 5e-2


def test_config_file_then_flags_override_defaults(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# reduced experiment\n"
        "d = 11\n"
        "delta = 1  # grid spacing\n"
        "t = 0.5\n"
        "method = nisio\n"
        "n = 6\n"
    )
    cfg = load_config(path, {"t": "2", "steps": None})
    assert cfg.d == 11 and cfg.delta == 1.0
    assert cfg.t == 2.0  # flag wins over the file
    assert cfg.method == "nisio" and cfg.n == 6
    assert cfg.steps == 1000  # untouched default


def test_config_missing_value_names_the_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d = 11\ndelta =\n")
    with pytest.raises(ConfigError, match="missing value for 'delta'"):
        parse_config_file(path)


def test_config_unknown_key_is_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dd = 11\n")
    with pytest.raises(ConfigError, match="unknown configuration key 'dd'"):
        parse_config_file(path)
    with pytest.raises(ConfigError, match="unknown configuration key 'dd'"):
        load_config(None, {"dd": "11"})


def test_config_line_without_a_key_is_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d = 11\n = 5\n")
    with pytest.raises(ConfigError, match="bad.cfg:2: missing key before '='"):
        parse_config_file(path)


def test_config_non_numeric_value_is_rejected():
    with pytest.raises(ConfigError, match="invalid value for 'd'"):
        load_config(None, {"d": "ten"})


def test_config_override_of_a_non_numeric_type_is_rejected():
    with pytest.raises(ConfigError, match="invalid value for 'd'"):
        load_config(None, {"d": [11]})


def test_config_line_without_equals_is_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_file(path)


def test_reference_lambda_list_parsing():
    assert load_config(None, {}).reference_lambdas() == []
    assert load_config(None, {"refs": "0,-1,0.5"}).reference_lambdas() == [0.0, -1.0, 0.5]
    with pytest.raises(ConfigError, match="refs"):
        load_config(None, {"refs": "0;1"}).reference_lambdas()


@pytest.mark.parametrize("refs", ["0,inf", "-inf", "nan,1"])
def test_config_refuses_non_finite_reference_lambdas(refs):
    with pytest.raises(ConfigError, match="finite"):
        load_config(None, {"refs": refs}).reference_lambdas()


def test_matrix_builder_specs(tmp_path):
    assert np.array_equal(build_matrix("laplacian", 5, 0.5), build_laplacian(5, 0.5))
    assert np.array_equal(build_matrix("drift:7:2", 5, 0.5), build_drift(7, 2.0))
    assert np.array_equal(build_matrix("zero:3", 5, 0.5), np.zeros((3, 3)))
    saved = tmp_path / "q.txt"
    write_matrix_file(saved, two_state_generator(0.25, 0.5))
    assert np.array_equal(build_matrix(f"file:{saved}", 5, 0.5), two_state_generator(0.25, 0.5))
    with pytest.raises(ConfigError, match="unknown matrix builder"):
        build_matrix("hilbert", 5, 0.5)
    with pytest.raises(ConfigError, match="needs a path"):
        build_matrix("file:", 5, 0.5)
    with pytest.raises(ConfigError, match="non-numeric"):
        build_matrix("laplacian:a:b", 5, 0.5)
    with pytest.raises(ConfigError, match="'laplacian:5' must look like laplacian:<d>:<delta>"):
        build_matrix("laplacian:5", 5, 0.5)
    with pytest.raises(ConfigError, match="non-numeric size in matrix builder 'zero:x'"):
        build_matrix("zero:x", 5, 0.5)


_BUILT_IN = ("laplacian", "drift", "zero")
# Intervals with lambda = 0, with negative lambda and with lambda_low = lambda_high.
_INTERVALS = ((-1.0, 1.0), (0.0, 0.0), (-2.0, -0.5), (0.5, 0.5), (0.0, 1.5))


@pytest.mark.parametrize("d", [149, 150, 201, 401])
@pytest.mark.parametrize("q0_spec", _BUILT_IN)
@pytest.mark.parametrize("q_spec", _BUILT_IN)
def test_built_in_families_built_as_bands_equal_the_dense_route(d, q0_spec, q_spec):
    delta = 10 / (d - 1)
    q0, q = build_matrix(q0_spec, d, delta), build_matrix(q_spec, d, delta)
    for low, high in _INTERVALS:
        cfg = load_config(None, {"d": d, "delta": delta, "q0": q0_spec, "q": q_spec,
                                 "lambda_low": low, "lambda_high": high})
        try:
            dense = interval_generator(q0, q, low, high)
        except InvalidGeneratorError as exc:
            with pytest.raises(InvalidGeneratorError) as banded_exc:
                build_family(cfg)
            assert str(banded_exc.value) == str(exc)
            continue
        banded = build_family(cfg)._members
        dense = dense._members
        # Below d = 150 only zero members (w = 0) fit the band rule.
        assert (dense.diagonals is None) == (d < 150 and dense.matrix.any())
        if dense.diagonals is None:
            assert banded.diagonals is None
            assert banded.matrix.shape == dense.matrix.shape == (2 * d, d)
            assert np.array_equal(banded.matrix, dense.matrix)
        else:
            assert banded.diagonals.shape == dense.diagonals.shape
            assert np.array_equal(banded.diagonals, dense.diagonals)
        assert np.array_equal(banded.offset, dense.offset)


def _without_times(text: str) -> str:
    return re.sub(r" in [0-9.]+ s$", "", text, flags=re.M)


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("price", "--method", "nisio", "--n", "6", "--k", "0", "--refs=-1,0,1"),
    ("compare", "--method", "nisio", "--n", "6", "--k", "0",
     "--method2", "nisio", "--n2", "8", "--k2", "40"),
], ids=lambda argv: argv[0])
def test_built_in_specs_print_what_the_same_matrices_from_files_print(argv, tmp_path, capsys):
    d, delta = 401, 0.025
    paths = tmp_path / "q0.txt", tmp_path / "q.txt"
    write_matrix_file(paths[0], build_laplacian(d, delta))
    write_matrix_file(paths[1], build_drift(d, delta))
    printed = []
    for name, q0_spec, q_spec in (("built_in", "laplacian", "drift"),
                                  ("files", f"file:{paths[0]}", f"file:{paths[1]}")):
        out = tmp_path / f"{name}.csv"
        assert run_cli(*argv, "--d", str(d), "--delta", str(delta), "--q0", q0_spec,
                       "--q", q_spec, "--out", str(out)) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        printed.append((_without_times(stdout), out.read_bytes() if out.exists() else None))
    assert printed[0] == printed[1]


# One d x d float array at d = 1601: the banded route makes none before the
# flow fill, and the fill of a nisio price at k = 0 keeps its flows banded.
_D1601 = ("--d", "1601", "--delta", "0.00625")


@pytest.mark.parametrize("argv", [
    ("price", *_D1601, "--method", "nisio", "--n", "10", "--k", "0"),
    ("validate", *_D1601),
], ids=lambda argv: argv[0])
def test_built_in_runs_at_d1601_peak_below_one_dense_matrix(argv, tmp_path, capsys):
    tracemalloc.start()
    try:
        assert run_cli(*argv, "--out", str(tmp_path / "out.csv")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1601 * 1601 * 8


# ------------------------------------------------------------------ validate


def test_validate_reduced_grid_passes(capsys):
    assert run_cli("validate", *SMALL) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "rate-matrix conditions" in out
    assert "maximum principle" in out


def test_validate_passes_a_dense_jump_diffusion_read_from_files(tmp_path, capsys):
    d, delta = 201, 0.05
    q0_path, q_path = tmp_path / "q0.txt", tmp_path / "q.txt"
    write_matrix_file(q0_path, jump_diffusion(d, delta))
    write_matrix_file(q_path, build_drift(d, delta))
    assert run_cli("validate", "--d", str(d), "--delta", str(delta),
                   "--q0", f"file:{q0_path}", "--q", f"file:{q_path}") == 0
    assert "FAIL" not in capsys.readouterr().out


# validate's whole stdout for the drift family at d = 1601 and the vol family
# at d = 401, as the program printed it before the checks read the diagonals.
_VALIDATE_DRIFT_1601 = (
    "member[0] rate-matrix conditions                          PASS\n"
    "member[1] rate-matrix conditions                          PASS\n"
    "maximum principle: random maxima (100 checks)             PASS\n"
    "maximum principle: own-state spikes (4803 checks)         PASS\n"
    "maximum principle: foreign-state spikes (7684800 checks)  PASS\n"
    "maximum principle: constants (3 checks)                   PASS\n"
)
_VALIDATE_VOL_401 = (
    "member[0] rate-matrix conditions                         PASS\n"
    "member[1] rate-matrix conditions                         PASS\n"
    "maximum principle: random maxima (100 checks)            PASS\n"
    "maximum principle: own-state spikes (1203 checks)        PASS\n"
    "maximum principle: foreign-state spikes (481200 checks)  PASS\n"
    "maximum principle: constants (3 checks)                  PASS\n"
)


def test_validate_passes_the_drift_family_at_d1601(capsys):
    assert run_cli("validate", "--d", "1601", "--delta", "0.00625") == 0
    assert capsys.readouterr().out == _VALIDATE_DRIFT_1601


def test_validate_passes_the_vol_family_at_d401(capsys):
    assert run_cli("validate", "--d", "401", "--delta", "0.025", "--q0", "zero",
                   "--q", "laplacian", "--lambda-low", "0.5", "--lambda-high", "1.5") == 0
    assert capsys.readouterr().out == _VALIDATE_VOL_401


def test_validate_reads_a_config_file(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("d = 11\ndelta = 1\n")
    assert run_cli("validate", "--config", str(path)) == 0


def test_validate_rejects_an_interval_with_invalid_endpoint(capsys):
    # lambda = -50 flips the drift term hard enough to push a diagonal positive
    code = run_cli("validate", *SMALL, "--lambda-low", "-50")
    assert code == 1
    err = capsys.readouterr().err
    assert "lambda=-50" in err


def test_validate_names_an_endpoint_that_overflows(capsys):
    # 1e308 times the drift's entries of 1 / 0.1 overflows
    assert run_cli("validate", "--lambda-low=-1e308") == 1
    captured = capsys.readouterr()
    assert "lambda=-1e+308 gives an invalid rate matrix: non-finite entries" in captured.err
    assert "RuntimeWarning" not in captured.err
    assert "PASS" not in captured.out


def test_validate_refuses_a_degenerate_spacing_that_no_builder_reads(capsys):
    assert run_cli("validate", "--d", "11", "--q0", "zero", "--q", "zero", "--delta", "inf") == 1
    captured = capsys.readouterr()
    assert "grid spacing" in captured.err
    assert "PASS" not in captured.out


def test_validate_names_a_negative_seed(capsys):
    assert run_cli("validate", *SMALL, "--seed=-1") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: rng seed must be an integer >= 0, got -1\n"
    assert "PASS" not in captured.out


def test_the_runtime_needs_numpy_only(tmp_path):
    # A None entry in sys.modules makes every import of scipy fail.
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from qenvelope import cli\n"
            f"sys.exit(cli.main(['price', '--d', '11', '--delta', '1', '--method', 'nisio', "
            f"'--n', '4', '--out', {str(tmp_path / 'price.csv')!r}]))")
    src = str(Path(qenvelope.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


def test_missing_config_file_is_a_usage_error(capsys):
    assert run_cli("validate", "--config", "/no/such/file.cfg") == 2
    assert "cannot read configuration file" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert run_cli("validate", "--frobnicate", "1") == 2


def test_help_exits_cleanly(capsys):
    assert run_cli("--help") == 0
    assert "price" in capsys.readouterr().out


# --------------------------------------------------------------------- price


def _read_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return header, cells


def test_price_writes_the_expected_csv(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--out", str(out)) == 0
    header, cells = _read_csv(out)
    assert header == ["state_index", "x", "payoff", "upper", "lower"]
    assert len(cells) == 11
    assert [c[0] for c in cells] == [str(i) for i in range(11)]
    printed = capsys.readouterr().out
    assert "upper: min=" in printed and "wrote" in printed


def test_price_reads_a_payoff_file(tmp_path):
    path, out = tmp_path / "payoff.txt", tmp_path / "bounds.csv"
    path.write_text("11\n" + " ".join(str(0.25 * i) for i in range(11)) + "\n")
    assert run_cli("price", *SMALL, "--payoff", f"file:{path}", "--out", str(out)) == 0
    _, cells = _read_csv(out)
    assert [float(c[2]) for c in cells] == [0.25 * i for i in range(11)]


@pytest.mark.parametrize("argv, code, message", [
    (("--payoff", "file:{missing}"), 1, "No such file"),
    (("--payoff", "straddle"), 2, "unknown payoff 'straddle' (expected butterfly | bull | file"),
    (("--q0", "file:{q}"), 1, "q0 has dimension 2, but the configured grid has d=11"),
])
def test_price_refuses_a_payoff_or_matrix_it_cannot_use(argv, code, message, tmp_path, capsys):
    q, out = tmp_path / "q.txt", tmp_path / "bounds.csv"
    write_matrix_file(q, two_state_generator(0.5, 0.5))
    argv = [arg.format(missing=tmp_path / "missing.txt", q=q) for arg in argv]
    assert run_cli("price", *SMALL, *argv, "--out", str(out)) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_price_full_size_default_curves_stay_in_payoff_range(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", "--out", str(out)) == 0
    header, cells = _read_csv(out)
    assert len(cells) == 101
    upper = np.array([float(c[3]) for c in cells])
    lower = np.array([float(c[4]) for c in cells])
    assert (upper >= lower - 1e-8).all()
    for curve in (upper, lower):
        assert (curve >= -1e-8).all() and (curve <= 1.0 + 1e-8).all()


def test_price_reference_columns_match_the_linear_prices(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--refs", "0,-1", "--out", str(out)) == 0
    header, cells = _read_csv(out)
    assert header[5:] == ["ref_0", "ref_-1"]
    pay = payoff_butterfly(StateGrid(11, 1.0), 4.0, 5.0)
    a, b = build_laplacian(11, 1.0), build_drift(11, 1.0)
    for col, lam in ((5, 0.0), (6, -1.0)):
        expected = linear_reference(a + lam * b, pay, 1.0)
        got = np.array([float(c[col]) for c in cells])
        assert np.abs(got - expected).max() < 1e-8


def test_price_zero_horizon_copies_the_payoff_column(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--t", "0", "--out", str(out)) == 0
    _, cells = _read_csv(out)
    for row in cells:
        assert row[3] == row[2] and row[4] == row[2]


@pytest.mark.parametrize("method", ["nisio", "ode-euler"])
def test_price_refuses_an_infinite_horizon(method, tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--t", "inf", "--method", method, "--out", str(out)) == 1
    assert "nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


def test_price_csv_values_round_trip_at_nine_digits(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--refs", "0.5", "--out", str(out)) == 0
    _, cells = _read_csv(out)
    for row in cells:
        for cell in row[1:]:
            assert format(float(cell), ".9g") == cell


def test_price_is_deterministic_byte_for_byte(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ("price", *SMALL, "--method", "nisio", "--n", "8", "--refs", "0,1")
    assert run_cli(*argv, "--out", str(first)) == 0
    assert run_cli(*argv, "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_price_warns_when_euler_steps_are_too_coarse(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", "--steps", "100", "--out", str(out)) == 0
    assert "warning:" in capsys.readouterr().err
    assert run_cli("price", "--steps", "1000", "--out", str(out)) == 0
    assert "warning:" not in capsys.readouterr().err


def test_stiffness_warning_uses_the_largest_exit_rate(tmp_path, capsys):
    # Volatility family at d=201: max|q_ii| = 1.5 * 2 / 0.05^2 = 1200, while
    # the row-sum norm is twice that.  1250 RK4 steps give h * 1200 = 0.96.
    vol = ("--d", "201", "--delta", "0.05", "--q0", "zero", "--q", "laplacian",
           "--lambda-low", "0.5", "--lambda-high", "1.5", "--payoff", "bull",
           "--method", "ode-rk4", "--out", str(tmp_path / "vol.csv"))
    assert run_cli("price", *vol, "--steps", "1250") == 0
    assert "warning:" not in capsys.readouterr().err
    assert run_cli("price", *vol, "--steps", "1000") == 0
    assert "warning:" in capsys.readouterr().err


def test_price_warns_when_nisio_euler_factors_are_too_long(tmp_path, capsys):
    # Each factor I + h q has h = 1 / (2^n k) and max|q_ii| = 210, so the
    # default k = 10 passes the limit at n = 0 but not at n = 10.
    out = str(tmp_path / "bounds.csv")
    assert run_cli("price", "--method", "nisio", "--n", "0", "--out", out) == 0
    assert ("warning: Euler factor length 0.1 times the largest exit rate 210 is 21 > 1; "
            "the nisio iteration may lose monotonicity (use --k > 210)") in capsys.readouterr().err
    for flags in (("--n", "10"), ("--n", "0", "--k", "0")):
        assert run_cli("price", "--method", "nisio", *flags, "--out", out) == 0
        assert "warning:" not in capsys.readouterr().err


def test_compare_warns_when_the_second_runs_euler_factors_are_too_long(tmp_path, capsys):
    out = str(tmp_path / "cmp.csv")
    assert run_cli("compare", "--n2", "2", "--out", out) == 1
    captured = capsys.readouterr()
    assert "EXCEEDED" in captured.out
    assert "Euler factor length 0.025" in captured.err and "(use --k > 53)" in captured.err


def test_price_refuses_a_horizon_whose_exponentials_overflow(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", "--method", "nisio", "--n", "0", "--k", "0", "--t", "1e20",
                   "--out", str(out)) == 1
    assert "error: e^(t a) for t=1e+20 with non-finite entries" in capsys.readouterr().err
    assert not out.exists()


def test_price_accepts_a_reference_list_starting_with_a_minus(tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run_cli("price", *SMALL, "--refs", "-1,0", "--out", str(spaced)) == 0
    assert run_cli("price", *SMALL, "--refs=-1,0", "--out", str(joined)) == 0
    header = spaced.read_text().splitlines()[0].split(",")
    assert header[-2:] == ["ref_-1", "ref_0"]
    assert spaced.read_bytes() == joined.read_bytes()


def test_price_rejects_malformed_refs_before_pricing(monkeypatch, capsys):
    def not_called(*args, **kwargs):
        raise AssertionError("price_bounds ran before --refs was parsed")

    monkeypatch.setattr(qenvelope.cli, "price_bounds", not_called)
    assert run_cli("price", "--refs", "abc") == 2
    assert "invalid value for 'refs'" in capsys.readouterr().err


def test_price_refuses_non_finite_refs_before_pricing(monkeypatch, capsys):
    def not_called(*args, **kwargs):
        raise AssertionError("price_bounds ran before --refs was checked")

    monkeypatch.setattr(qenvelope.cli, "price_bounds", not_called)
    assert run_cli("price", *SMALL, "--refs=0,inf") == 2
    assert "invalid value for 'refs'" in capsys.readouterr().err


def test_price_names_a_reference_that_overflows_before_pricing(tmp_path, monkeypatch, capsys):
    def not_called(*args, **kwargs):
        raise AssertionError("price_bounds ran before the reference matrices were checked")

    monkeypatch.setattr(qenvelope.cli, "price_bounds", not_called)
    out = tmp_path / "bounds.csv"
    assert run_cli("price", "--refs=0,1e308", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert "reference lambda=1e+308 with non-finite entries" in captured.err
    assert "RuntimeWarning" not in captured.err
    assert not out.exists()


def test_price_refuses_a_refinement_level_whose_step_underflows(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = run_cli("price", *SMALL, "--method", "nisio", "--n", "1024", "--k", "3",
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: refinement level n=1024 makes the step" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_an_overflowing_ode_price_prints_the_refusal_and_no_numpy_warning(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--method", "ode-euler", "--t", "1e300",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error: integration produced non-finite values at step 2 of 1000" in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_an_overflowing_nisio_price_prints_one_error_and_no_numpy_warning(tmp_path, capsys):
    # One Euler factor of length 2^-10 times the exit rate 20100 is 19.6.
    out = tmp_path / "bounds.csv"
    assert run_cli("price", "--d", "101", "--delta", "0.01", "--K", "0.4", "--L", "0.5",
                   "--method", "nisio", "--n", "10", "--k", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: the level-10 sweep with k=1 produced non-finite values; use a larger n or k"]
    assert "RuntimeWarning" not in err
    assert not out.exists()


def test_price_refuses_a_level_past_30_before_stepping(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--method", "nisio", "--n", "60", "--k", "0",
                   "--out", str(out)) == 1
    assert "error: refinement level n=60 takes 2^60" in capsys.readouterr().err
    assert not out.exists()


def test_stiffness_warning_writes_a_huge_step_count_with_an_exponent(tmp_path, capsys):
    assert run_cli("price", "--method", "ode-euler", "--t", "1e300",
                   "--out", str(tmp_path / "bounds.csv")) == 1
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1 and warnings[0].endswith("(use --steps > 2.1e+302)")


def test_price_refuses_a_non_finite_lambda_bound_by_name(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--lambda-high", "inf", "--out", str(out)) == 1
    assert "lambda_high must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_price_reads_each_matrix_once(tmp_path, monkeypatch):
    specs = []
    original = qenvelope.config._read_matrix

    def counting(spec, d, delta):
        specs.append(spec)
        return original(spec, d, delta)

    monkeypatch.setattr(qenvelope.config, "_read_matrix", counting)
    q0_path = tmp_path / "q0.txt"
    write_matrix_file(q0_path, build_laplacian(11, 1.0))
    out = tmp_path / "bounds.csv"
    assert run_cli("price", *SMALL, "--q0", f"file:{q0_path}", "--refs", "-1,0,1",
                   "--out", str(out)) == 0
    assert specs == [f"file:{q0_path}", "drift"]


def test_price_unwritable_output_is_a_domain_error(capsys):
    assert run_cli("price", *SMALL, "--out", "/no/such/dir/out.csv") == 1
    assert "error:" in capsys.readouterr().err


def test_price_unknown_method_is_a_domain_error(capsys):
    assert run_cli("price", *SMALL, "--method", "bisection") == 1
    assert "unknown method" in capsys.readouterr().err


def test_price_refuses_a_spacing_whose_square_overflows(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert run_cli("price", "--delta", "1e200", "--out", str(out)) == 1
    assert "grid spacing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, label", [
    (("price", "--method", "nisio", "--k", "-3"), "'k'"),
    (("compare", "--k2", "-3"), "'k2'"),
])
def test_a_negative_euler_factor_count_is_a_usage_error(argv, label, tmp_path, capsys):
    assert run_cli(*argv, *SMALL, "--out", str(tmp_path / "out.csv")) == 2
    assert f"invalid value for {label}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (("--k2", "-3"), 2, "invalid value for 'k2'"),
    (("--method2", "ode-euler", "--steps2", "0"), 1, "step count"),
    (("--method2", "nisio", "--n2", "-1"), 1, "refinement level"),
    (("--method2", "bisection"), 1, "unknown method"),
])
def test_compare_checks_both_runs_before_pricing_either(argv, code, message, monkeypatch,
                                                        tmp_path, capsys):
    def not_called(*args, **kwargs):
        raise AssertionError("price_bounds ran before both runs were checked")

    monkeypatch.setattr(qenvelope.cli, "price_bounds", not_called)
    assert run_cli("compare", *SMALL, *argv, "--out", str(tmp_path / "out.csv")) == code
    assert message in capsys.readouterr().err


# Files in tests/golden were written by an earlier version of the program
# with the same arguments; refactors must leave every byte of them unchanged.
GOLDEN = {
    "price_default.csv": ("price", "--refs=0,-1"),
    "compare_default.csv": ("compare",),
    "price_nisio_n8.csv": ("price", "--method", "nisio", "--n", "8", "--k", "0",
                           "--refs=-1,0,1"),
    # d = 201 and 401 take the banded Q-operator and the banded series.
    "price_euler_d201.csv": ("price", "--d", "201", "--delta", "0.05", "--method", "ode-euler",
                             "--steps", "5000", "--refs=0"),
    "price_rk4_vol_bull_d201.csv": ("price", "--d", "201", "--delta", "0.05", "--method",
                                    "ode-rk4", "--steps", "1250", "--q0", "zero", "--q",
                                    "laplacian", "--lambda-low", "0.5", "--lambda-high", "1.5",
                                    "--payoff", "bull"),
    "price_nisio_d401_n10.csv": ("price", "--d", "401", "--delta", "0.025", "--method", "nisio",
                                 "--n", "10", "--k", "0", "--refs=-1,0,1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_output_matches_the_golden_bytes(name, tmp_path):
    out = tmp_path / name
    assert run_cli(*GOLDEN[name], "--out", str(out)) == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / name).read_bytes()


# ------------------------------------------------------------------- compare


def test_compare_method_with_itself_is_exact(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run_cli("compare", *SMALL, "--method", "ode-euler", "--steps", "200",
                   "--method2", "ode-euler", "--steps2", "200", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "max |upper_a - upper_b| = 0" in printed
    assert "within" in printed
    header, cells = _read_csv(out)
    assert header == ["state_index", "x", "payoff", "upper_a", "lower_a",
                      "upper_b", "lower_b", "diff_upper", "diff_lower"]
    assert all(row[7] == "0" and row[8] == "0" for row in cells)


def test_compare_euler_against_dyadic_envelope_full_size(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run_cli("compare", "--method", "ode-euler", "--steps", "1000",
                   "--method2", "nisio", "--n2", "10", "--k2", "10", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "a = ode-euler(steps=1000)" in printed
    assert "b = nisio(n=10, k=10)" in printed
    assert "within" in printed


def test_compare_zero_tolerance_fails_for_different_methods(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = run_cli("compare", *SMALL, "--method", "ode-euler", "--steps", "500",
                   "--method2", "ode-rk4", "--steps2", "500", "--tol", "0", "--out", str(out))
    assert code == 1
    assert "EXCEEDED" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_compare_refuses_a_tolerance_before_any_run_is_priced(tmp_path, capsys, monkeypatch, tol):
    monkeypatch.setattr(qenvelope.cli, "price_bounds",
                        lambda *args, **kwargs: pytest.fail("priced"))
    out = tmp_path / "cmp.csv"
    assert run_cli("compare", *SMALL, f"--tol={tol}", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: tolerance must be nonnegative and finite, got ")
    assert captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------- expm


def _parse_expm_stdout(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = []
    for line in lines[1:]:
        left, _, tail = line.partition("| row_sum=")
        rows.append([float(tok) for tok in left.split()])
    return lines[0], np.array(rows)


def test_expm_matches_the_two_state_closed_form(tmp_path, capsys):
    path = tmp_path / "q.txt"
    write_matrix_file(path, two_state_generator(0.5, 0.5))
    assert run_cli("expm", "--q", f"file:{path}", "--t", "0.5") == 0
    head, got = _parse_expm_stdout(capsys.readouterr().out)
    assert head == "d=2 t=0.5 mode=exact"
    assert np.abs(got - two_state_exp(0.5, 0.5, 0.5)).max() < 1e-9


def test_expm_zero_horizon_prints_the_identity(tmp_path, capsys):
    path = tmp_path / "q.txt"
    write_matrix_file(path, two_state_generator(0.3, 0.9))
    assert run_cli("expm", "--q", f"file:{path}", "--t", "0") == 0
    _, got = _parse_expm_stdout(capsys.readouterr().out)
    assert np.array_equal(got, np.eye(2))


@pytest.mark.parametrize("k", [None, "3"])
def test_expm_refuses_an_infinite_horizon(k, tmp_path, capsys):
    path = tmp_path / "q.txt"
    write_matrix_file(path, two_state_generator(0.3, 0.9))
    extra = () if k is None else ("--k", k)
    assert run_cli("expm", "--q", f"file:{path}", "--t", "inf", *extra) == 1
    assert "nonnegative and finite" in capsys.readouterr().err


def test_expm_single_product_factor_is_one_euler_step(tmp_path, capsys):
    path = tmp_path / "q.txt"
    q = two_state_generator(0.3, 0.9)
    write_matrix_file(path, q)
    assert run_cli("expm", "--q", f"file:{path}", "--t", "0.25", "--k", "1") == 0
    head, got = _parse_expm_stdout(capsys.readouterr().out)
    assert "euler-product(k=1)" in head
    assert np.abs(got - (np.eye(2) + 0.25 * q)).max() < 1e-12


def test_expm_writes_a_matrix_file(tmp_path, capsys):
    path = tmp_path / "q.txt"
    out = tmp_path / "exp.txt"
    write_matrix_file(path, two_state_generator(0.5, 0.5))
    assert run_cli("expm", "--q", f"file:{path}", "--t", "1", "--out", str(out)) == 0
    saved = read_matrix_file(out)
    assert np.abs(saved - mat_exp(two_state_generator(0.5, 0.5), 1.0)).max() < 1e-15


def test_expm_banded_laplacian_rows_are_stochastic(tmp_path, capsys):
    out = tmp_path / "exp.txt"
    assert run_cli("expm", "--q", "laplacian", "--d", "101", "--delta", "0.1",
                   "--t", "0.5", "--out", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()[1:-1]
    printed = np.array([float(line.partition("| row_sum=")[2]) for line in lines])
    assert printed.shape == (101,)
    assert np.abs(printed - 1.0).max() <= 1e-12
    assert np.abs(read_matrix_file(out).sum(axis=1) - 1.0).max() <= 1e-12


def test_expm_bad_k_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "q.txt"
    write_matrix_file(path, two_state_generator(0.5, 0.5))
    assert run_cli("expm", "--q", f"file:{path}", "--k", "three") == 2
    assert "invalid value for '--k'" in capsys.readouterr().err
    assert run_cli("expm", "--q", f"file:{path}", "--k", "-2") == 2


def test_expm_malformed_matrix_file_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text("2\n1.0 2.0\n")
    assert run_cli("expm", "--q", f"file:{path}") == 1
    assert "expected 2x2 entries" in capsys.readouterr().err
