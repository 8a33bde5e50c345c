"""The benchmark's checks pass a correct output and reject corrupted ones,
its tracer restores the program after tracing it, and it refuses to run
without the program."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

AUDIT = wl.WORKLOADS["audit"]
K = wl.STRIKE_POOL[3]


@pytest.fixture(scope="module")
def refs():
    return oracle.load(AUDIT)


def _fmt(v):
    return format(float(v), ".9g")


def _output(refs, tmp_path):
    """A perfect audit job: the oracle's own curves in the program's CSV
    format, a replay equal to the upper curve, and refinement levels rising
    to the reference."""
    exp = AUDIT.round[0].experiment
    col = wl.STRIKE_POOL.index(K)
    upper = refs[f"{exp.name}.upper"][:, col].copy()
    columns = {
        "state_index": np.arange(AUDIT.d),
        "x": wl.grid_points(AUDIT.d, AUDIT.delta),
        "payoff": refs[f"{exp.name}.payoff"][:, col],
        "upper": upper,
        "lower": refs[f"{exp.name}.lower"][:, col].copy(),
    }
    for lam, curve in zip(wl.reference_lambdas(exp), refs[f"{exp.name}.linear"][:, :, col]):
        columns[f"ref_{lam:g}"] = curve.copy()
    levels = np.stack([upper - 0.05 * 2.0**-n for n in range(12)] + [upper])
    arrays = {"p0j0.replay": upper.copy(), "p0j0.levels": levels,
              "p0j0.converged": np.array(True)}
    record = {"key": "p0j0", "template": 0, "K": K, "ok": [False, True, True, True]}
    return columns, arrays, record


def _check(columns, arrays, record, refs, tmp_path):
    path = tmp_path / "p0j0.csv"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(AUDIT.d):
            fh.write(",".join(_fmt(col[i]) for col in columns.values()) + "\n")
    return checks.check_job(AUDIT, record, refs, path, arrays)


def test_correct_output_passes(refs, tmp_path):
    assert _check(*_output(refs, tmp_path), refs, tmp_path) == []


def test_swapped_curves_are_rejected(refs, tmp_path):
    columns, arrays, record = _output(refs, tmp_path)
    columns["upper"], columns["lower"] = columns["lower"], columns["upper"]
    problems = _check(columns, arrays, record, refs, tmp_path)
    assert any("lower above upper" in p for p in problems)


@pytest.mark.parametrize("curve", ["upper", "lower"])
def test_curve_shifted_by_1e2_is_rejected(refs, tmp_path, curve):
    columns, arrays, record = _output(refs, tmp_path)
    columns[curve] = columns[curve] + 1e-2
    problems = _check(columns, arrays, record, refs, tmp_path)
    assert any(p.startswith(f"{curve}: off the reference") for p in problems)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_tolerance_rejects_a_1e2_shift(workload):
    for tpl in wl.WORKLOADS[workload].round:
        assert tpl.tolerance() < 1e-2


def test_replay_off_by_1e6_is_rejected(refs, tmp_path):
    columns, arrays, record = _output(refs, tmp_path)
    arrays["p0j0.replay"][AUDIT.d // 2] += 1e-6
    problems = _check(columns, arrays, record, refs, tmp_path)
    assert any(p.startswith("replayed control") for p in problems)


def test_reference_column_outside_the_band_is_rejected(refs, tmp_path):
    columns, arrays, record = _output(refs, tmp_path)
    i = int(np.argmax(columns["upper"] - columns["lower"]))
    columns["ref_0"][i] = columns["upper"][i] + 1e-2
    problems = _check(columns, arrays, record, refs, tmp_path)
    assert any(p.startswith("ref_0 above upper") for p in problems)


def test_decreasing_or_unconverged_refinement_is_rejected(refs, tmp_path):
    columns, arrays, record = _output(refs, tmp_path)
    arrays["p0j0.levels"][5] += 1e-3
    arrays["p0j0.converged"] = np.array(False)
    problems = _check(columns, arrays, record, refs, tmp_path)
    assert "refinement did not converge" in problems
    assert any(p.startswith("upper curve fell") for p in problems)


def test_failed_operations_are_not_checked(refs, tmp_path):
    columns, arrays, record = _output(refs, tmp_path)
    columns["upper"] = columns["upper"] + 1.0
    record["ok"] = [False, False, False, False]
    assert _check(columns, arrays, record, refs, tmp_path) == []


def test_tracer_records_nested_spans_and_restores_the_program():
    import qenvelope
    from qenvelope import ode, pricing

    originals = (qenvelope.price_bounds, pricing.solve_euler, ode.apply_q_operator)
    fam = qenvelope.interval_generator(qenvelope.build_laplacian(11, 1.0),
                                       qenvelope.build_drift(11, 1.0), -1.0, 1.0)
    pay = qenvelope.payoff_butterfly(qenvelope.StateGrid(11, 1.0), 4.0, 5.0)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert ode.apply_q_operator is not originals[2]
        qenvelope.price_bounds(fam, pay, 1.0, "ode-euler", steps=20)
    finally:
        tr.uninstall()
    assert (qenvelope.price_bounds, pricing.solve_euler, ode.apply_q_operator) == originals
    summary = tr.summary()
    assert summary["by_name"]["generators.apply_q_operator"]["calls"] == 40
    assert summary["counts"]["ode.steps"] == 40
    spans = tr.arrays()
    names = list(spans["names"])
    root = names.index("pricing.price_bounds")
    assert spans["parent"][0] == -1 and spans["name_id"][0] == root
    layers = tracer.per_layer(summary, jobs=1)
    busy = layers["pricing.price_bounds.s"]
    total_self = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total_self == pytest.approx(busy, rel=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for source in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / source.name).write_bytes(source.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stepping", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
