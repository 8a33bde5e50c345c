"""Tests for the explicit Euler and Runge-Kutta steppers."""

import numpy as np
import pytest

from qenvelope import (
    GeneratorFamily,
    apply_q_operator,
    mat_exp,
    op_norm_inf,
    solve_euler,
    solve_rk4,
)
from _helpers import random_family, random_rate_matrix, two_state_exp, two_state_generator


def _drift_uncertainty_problem():
    from qenvelope import StateGrid, build_drift, build_laplacian, interval_generator, payoff_butterfly

    d, delta = 11, 1.0
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    pay = payoff_butterfly(StateGrid(d, delta), 4.0, 5.0)
    return fam, pay.values


def test_single_euler_step_is_the_update_formula():
    rng = np.random.default_rng(0)
    fam = random_family(rng, 4, members=2, convex=True)
    u0 = rng.standard_normal(4)
    traj = solve_euler(fam, u0, 0.3, 1, snapshots=None)
    assert np.array_equal(traj.final, u0 + 0.3 * apply_q_operator(fam, u0))


def test_single_rk4_step_is_the_four_stage_formula():
    rng = np.random.default_rng(1)
    fam = random_family(rng, 4, members=2)
    u0 = rng.standard_normal(4)
    h = 0.3
    k1 = apply_q_operator(fam, u0)
    k2 = apply_q_operator(fam, u0 + 0.5 * h * k1)
    k3 = apply_q_operator(fam, u0 + 0.5 * h * k2)
    k4 = apply_q_operator(fam, u0 + h * k3)
    expected = u0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.array_equal(solve_rk4(fam, u0, h, 1).final, expected)


@pytest.mark.parametrize("solver", [solve_euler, solve_rk4])
def test_constant_initial_vector_stays_put(solver):
    # Q maps constants to zero exactly (the zero-penalty member attains the sup),
    # so every update leaves the vector untouched bit for bit.
    rng = np.random.default_rng(2)
    fam = random_family(rng, 5, members=3, convex=True)
    alpha = np.full(5, -1.75)
    traj = solver(fam, alpha, 1.0, 20, snapshots=None)
    assert np.array_equal(traj.values, np.tile(alpha, (21, 1)))


def test_euler_reaches_two_state_exponential():
    q = two_state_generator(0.7, 0.4)
    fam = GeneratorFamily((q,))
    u0 = np.array([1.0, -2.0])
    final = solve_euler(fam, u0, 1.0, 10_000, snapshots=2).final
    exact = two_state_exp(0.7, 0.4, 1.0) @ u0
    assert np.abs(final - exact).max() < 1e-3


def test_rk4_reaches_two_state_exponential():
    q = two_state_generator(0.7, 0.4)
    fam = GeneratorFamily((q,))
    u0 = np.array([1.0, -2.0])
    final = solve_rk4(fam, u0, 1.0, 100, snapshots=2).final
    exact = two_state_exp(0.7, 0.4, 1.0) @ u0
    assert np.abs(final - exact).max() < 1e-9


def test_rk4_matches_matrix_exponential_for_one_member():
    rng = np.random.default_rng(5)
    q = random_rate_matrix(rng, 5)
    fam = GeneratorFamily((q,))
    u0 = rng.standard_normal(5)
    final = solve_rk4(fam, u0, 1.0, 200, snapshots=2).final
    assert np.abs(final - mat_exp(q, 1.0) @ u0).max() < 1e-9


def test_trajectory_records_every_step_on_request():
    rng = np.random.default_rng(3)
    fam = random_family(rng, 3)
    u0 = rng.standard_normal(3)
    traj = solve_euler(fam, u0, 0.8, 16, snapshots=None)
    assert traj.times.shape == (17,)
    assert traj.values.shape == (17, 3)
    assert np.allclose(traj.times, np.linspace(0.0, 0.8, 17), atol=1e-15)
    assert np.array_equal(traj.values[0], u0)
    assert np.array_equal(traj.final, traj.values[-1])


def test_trajectory_default_decimation_keeps_101_snapshots():
    rng = np.random.default_rng(4)
    fam = random_family(rng, 3)
    traj = solve_euler(fam, rng.standard_normal(3), 1.0, 1000)
    assert len(traj.times) == 101
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0


def test_trajectory_two_snapshots_are_the_endpoints():
    rng = np.random.default_rng(6)
    fam = random_family(rng, 3)
    u0 = rng.standard_normal(3)
    traj = solve_rk4(fam, u0, 0.5, 64, snapshots=2)
    assert np.array_equal(traj.times, [0.0, 0.5])
    assert np.array_equal(traj.values[0], u0)


@pytest.mark.parametrize("solver", [solve_euler, solve_rk4])
def test_an_infinite_horizon_is_rejected(solver):
    fam = random_family(np.random.default_rng(8), 3)
    with pytest.raises(ValueError, match="positive and finite"):
        solver(fam, np.zeros(3), np.inf, 10)


@pytest.mark.parametrize("t", [None, "x"])
@pytest.mark.parametrize("solver", [solve_euler, solve_rk4])
def test_a_horizon_that_is_no_number_is_rejected(solver, t):
    fam = random_family(np.random.default_rng(8), 3)
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        solver(fam, np.zeros(3), t, 10)


def test_snapshot_count_below_two_is_rejected():
    fam = random_family(np.random.default_rng(7), 3)
    with pytest.raises(ValueError, match="endpoint snapshots"):
        solve_euler(fam, np.zeros(3), 1.0, 10, snapshots=1)


@pytest.mark.parametrize("solver", [solve_euler, solve_rk4])
def test_bad_arguments_are_rejected(solver):
    fam = random_family(np.random.default_rng(8), 3)
    u0 = np.zeros(3)
    with pytest.raises(ValueError, match="horizon"):
        solver(fam, u0, 0.0, 10)
    with pytest.raises(ValueError, match="horizon"):
        solver(fam, u0, -1.0, 10)
    with pytest.raises(ValueError, match="step count"):
        solver(fam, u0, 1.0, 0)
    with pytest.raises(ValueError, match="step count"):
        solver(fam, u0, 1.0, 2.5)
    with pytest.raises(ValueError, match="length 3"):
        solver(fam, np.zeros(4), 1.0, 10)
    with pytest.raises(ValueError, match="non-finite"):
        solver(fam, np.array([1.0, np.nan, 0.0]), 1.0, 10)


@pytest.mark.parametrize("solver", [solve_euler, solve_rk4])
@pytest.mark.parametrize("steps, snapshots", [(10, 2.5), (10, np.inf), (10, "3"), (None, 2),
                                              (np.inf, 2)])
def test_counts_that_are_no_integers_are_rejected(solver, steps, snapshots):
    fam = random_family(np.random.default_rng(8), 3)
    with pytest.raises(ValueError, match="count"):
        solver(fam, np.zeros(3), 1.0, steps, snapshots=snapshots)


def test_euler_iterates_stay_bounded_with_kernel_steps():
    # with h * max op_norm_inf(q) <= 1 each update is a transition-kernel
    # average, so the sup norm cannot grow
    rng = np.random.default_rng(31)
    for _ in range(5):
        fam = random_family(rng, 6, members=3)
        u0 = rng.standard_normal(6)
        steps = int(np.ceil(max(op_norm_inf(m) for m in fam.matrices))) + 1
        traj = solve_euler(fam, u0, 1.0, steps, snapshots=None)
        assert np.abs(traj.values).max() <= np.abs(u0).max() + 1e-8


def test_euler_preserves_componentwise_ordering():
    rng = np.random.default_rng(32)
    for _ in range(5):
        fam = random_family(rng, 6, members=2)
        u0 = rng.standard_normal(6)
        v0 = u0 + rng.uniform(0.0, 1.0, size=6)
        steps = int(np.ceil(max(op_norm_inf(m) for m in fam.matrices))) + 1
        lo = solve_euler(fam, u0, 1.0, steps, snapshots=2).final
        hi = solve_euler(fam, v0, 1.0, steps, snapshots=2).final
        assert (lo <= hi + 1e-10).all()


@pytest.mark.parametrize("solver", [solve_euler, solve_rk4])
def test_constant_translation_commutes_with_solving(solver):
    rng = np.random.default_rng(33)
    fam = random_family(rng, 5, members=2, convex=True)
    u0 = rng.standard_normal(5)
    base = solver(fam, u0, 1.0, 50, snapshots=None)
    shifted = solver(fam, u0 + 2.5, 1.0, 50, snapshots=None)
    assert np.abs(shifted.values - (base.values + 2.5)).max() < 1e-10


def test_euler_self_convergence_is_first_order():
    fam, u0 = _drift_uncertainty_problem()
    finals = {m: solve_euler(fam, u0, 1.0, m, snapshots=2).final for m in (250, 500, 1000, 2000)}
    diffs = [np.abs(finals[m] - finals[2 * m]).max() for m in (250, 500, 1000)]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 1.7 < coarse / fine < 2.3


def test_rk4_self_convergence_is_fourth_order():
    fam, u0 = _drift_uncertainty_problem()
    finals = {m: solve_rk4(fam, u0, 1.0, m, snapshots=2).final for m in (250, 500, 1000, 2000)}
    diffs = [np.abs(finals[m] - finals[2 * m]).max() for m in (250, 500, 1000)]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_methods_agree_on_the_drift_uncertainty_grid():
    fam, u0 = _drift_uncertainty_problem()
    euler = solve_euler(fam, u0, 1.0, 1000, snapshots=2).final
    rk4 = solve_rk4(fam, u0, 1.0, 1000, snapshots=2).final
    assert np.abs(euler - rk4).max() < 1e-3


@pytest.mark.parametrize("solver, step_word", [(solve_euler, "step 2 of 3"), (solve_rk4, "step 1 of 3")])
def test_overflow_aborts_and_names_the_step(solver, step_word):
    fam = GeneratorFamily((two_state_generator(1e200, 1e200),))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=step_word):
            solver(fam, np.array([1.0, -1.0]), 1.0, 3, snapshots=2)


def _dense_q(fam, u):
    """The family operator through the dense member stack, by hand."""
    blocks = (fam._members.matrix @ u + fam._members.offset).reshape(fam.n_members, fam.dim)
    return blocks.max(axis=0) if fam.direction == "upper" else blocks.min(axis=0)


@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_solvers_on_a_banded_family_match_a_dense_loop(direction):
    from qenvelope import StateGrid, build_drift, build_laplacian, interval_generator, payoff_butterfly

    d, delta, t = 201, 0.05, 0.1
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0,
                             direction=direction)
    assert fam._members.diagonals is not None
    u0 = payoff_butterfly(StateGrid(d, delta), 4.0, 5.0).values
    euler_steps, rk4_steps = 500, 125          # h * max|q_ii| = 0.164 and 0.656
    u = u0.copy()
    h = t / euler_steps
    for _ in range(euler_steps):
        u = u + h * _dense_q(fam, u)
    assert np.abs(solve_euler(fam, u0, t, euler_steps).final - u).max() < 1e-12
    u = u0.copy()
    h = t / rk4_steps
    for _ in range(rk4_steps):
        k1 = _dense_q(fam, u)
        k2 = _dense_q(fam, u + 0.5 * h * k1)
        k3 = _dense_q(fam, u + 0.5 * h * k2)
        k4 = _dense_q(fam, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.abs(solve_rk4(fam, u0, t, rk4_steps).final - u).max() < 1e-12
