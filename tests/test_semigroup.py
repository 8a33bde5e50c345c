"""One-step envelopes, dyadic refinement, and worst-case controls."""

import math

import numpy as np
import pytest

from qenvelope import generators, linalg
from qenvelope import (
    Control,
    ControlStep,
    GeneratorFamily,
    StateGrid,
    affine_flow,
    build_drift,
    build_laplacian,
    control_evaluate,
    envelope,
    envelope_pair,
    envelope_refined,
    extract_worst_case_control,
    interval_generator,
    iterate_partition,
    linear_reference,
    mat_exp,
    one_step,
    one_step_argmax,
    op_norm_inf,
    payoff_bull,
    payoff_butterfly,
)

from _helpers import dense_flow_stack, grid_family, jump_diffusion, random_family, \
    random_rate_matrix


# ------------------------------------------------------------------ one_step


def test_one_step_zero_length_returns_input():
    fam = random_family(np.random.default_rng(0), 4, members=2)
    u = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(one_step(fam, 0.0, u), u)


def test_one_step_single_member_is_the_member_flow():
    rng = np.random.default_rng(1)
    q = random_rate_matrix(rng, 5)
    fam = GeneratorFamily((q,))
    u = rng.standard_normal(5)
    assert np.array_equal(one_step(fam, 0.7, u), affine_flow(q, np.zeros(5), 0.7).apply(u))


def test_one_step_takes_componentwise_maximum():
    rng = np.random.default_rng(2)
    q1, q2 = random_rate_matrix(rng, 4), random_rate_matrix(rng, 4)
    fam = GeneratorFamily((q1, q2))
    u = rng.standard_normal(4)
    manual = np.maximum(mat_exp(q1, 0.3) @ u, mat_exp(q2, 0.3) @ u)
    assert np.abs(one_step(fam, 0.3, u) - manual).max() < 1e-13


def test_one_step_lower_mirrors_upper_for_sublinear_families():
    rng = np.random.default_rng(3)
    fam = random_family(rng, 5, members=3)
    u = rng.standard_normal(5)
    lower = one_step(fam.flipped(), 0.4, u)
    mirrored = -one_step(fam, 0.4, -u)
    assert np.abs(lower - mirrored).max() < 1e-14


@pytest.mark.parametrize("h", [0.01, 0.1, 1.0])
def test_one_step_kernel_properties(h):
    rng = np.random.default_rng(4)
    for trial in range(60):
        fam = random_family(rng, 5, members=2, convex=bool(trial % 2))
        u = rng.standard_normal(5)
        v = u + rng.uniform(0.0, 1.0, 5)
        # monotone
        assert (one_step(fam, h, u) <= one_step(fam, h, v) + 1e-12).all()
        # preserves constants (some member has zero penalty)
        alpha = float(rng.uniform(-3, 3))
        assert np.abs(one_step(fam, h, np.full(5, alpha)) - alpha).max() < 1e-10
        # convex in the terminal vector
        lam = float(rng.uniform())
        mixed = one_step(fam, h, lam * u + (1 - lam) * v)
        assert (mixed <= lam * one_step(fam, h, u) + (1 - lam) * one_step(fam, h, v) + 1e-12).all()


def test_one_step_euler_product_mode_uses_product_kernels():
    rng = np.random.default_rng(5)
    q1, q2 = random_rate_matrix(rng, 4), random_rate_matrix(rng, 4)
    fam = GeneratorFamily((q1, q2))
    u = rng.standard_normal(4)
    k = 8
    manual = np.maximum(
        np.linalg.matrix_power(np.eye(4) + 0.5 / k * q1, k) @ u,
        np.linalg.matrix_power(np.eye(4) + 0.5 / k * q2, k) @ u,
    )
    assert np.abs(one_step(fam, 0.5, u, k=k) - manual).max() < 1e-13


def test_one_step_argmax_matches_values_and_ties_go_low():
    rng = np.random.default_rng(6)
    q = random_rate_matrix(rng, 4)
    fam = GeneratorFamily((q, q))  # identical members: every state is a tie
    u = rng.standard_normal(4)
    values, picks = one_step_argmax(fam, 0.2, u)
    assert np.array_equal(values, one_step(fam, 0.2, u))
    assert np.array_equal(picks, np.zeros(4, dtype=int))


def test_flow_cache_reuses_flows_per_step_length():
    fam = random_family(np.random.default_rng(7), 3, members=2)
    assert fam.flows(0.25) is fam.flows(0.25)
    assert fam.flows(0.25) is not fam.flows(0.125)
    assert fam.flows(0.25, k=4) is not fam.flows(0.25)


def test_one_step_rejects_negative_step():
    fam = random_family(np.random.default_rng(8), 3)
    with pytest.raises(ValueError):
        one_step(fam, -0.1, np.zeros(3))


def test_one_step_names_a_step_whose_flows_overflow():
    fam = interval_generator(build_laplacian(101, 0.1), build_drift(101, 0.1), -1.0, 1.0)
    with pytest.raises(ValueError, match="t=1e\\+300 with non-finite entries"):
        one_step(fam, 1e300, np.zeros(101))


# ---------------------------------------------------------------- partitions


def test_partition_with_only_zero_is_identity():
    fam = random_family(np.random.default_rng(9), 3)
    u = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(iterate_partition(fam, [0.0], u), u)


def test_uniform_partition_equals_repeated_one_step():
    rng = np.random.default_rng(10)
    fam = random_family(rng, 4, members=2)
    u = rng.standard_normal(4)
    via_partition = iterate_partition(fam, [0.0, 0.25, 0.5, 0.75, 1.0], u)
    stepped = u
    for _ in range(4):
        stepped = one_step(fam, 0.25, stepped)
    assert np.array_equal(via_partition, stepped)


def test_partition_steps_apply_right_to_left():
    rng = np.random.default_rng(11)
    fam = random_family(rng, 4, members=2)
    u = rng.standard_normal(4)
    # [0, 0.5, 0.75]: the final subinterval (length 0.25) acts on u first
    manual = one_step(fam, 0.5, one_step(fam, 0.25, u))
    assert np.array_equal(iterate_partition(fam, [0.0, 0.5, 0.75], u), manual)


def test_partition_refinement_is_monotone():
    rng = np.random.default_rng(12)
    for _ in range(25):
        fam = random_family(rng, 3, members=2)
        u = rng.standard_normal(3)
        coarse = iterate_partition(fam, [0.0, 0.6, 1.0], u)
        fine = iterate_partition(fam, [0.0, 0.3, 0.6, 1.0], u)
        assert (fine >= coarse - 1e-10).all()


def test_partition_rejects_bad_time_lists():
    fam = random_family(np.random.default_rng(13), 3)
    u = np.zeros(3)
    with pytest.raises(ValueError):
        iterate_partition(fam, [0.1, 0.5], u)
    with pytest.raises(ValueError):
        iterate_partition(fam, [0.0, 0.5, 0.5], u)
    with pytest.raises(ValueError):
        iterate_partition(fam, [], u)


# ------------------------------------------------------------------ envelope


def test_envelope_zero_horizon_returns_input():
    fam = random_family(np.random.default_rng(14), 3)
    u = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(envelope(fam, 0.0, 5, u), u)


def test_envelope_rejects_an_infinite_horizon():
    fam = random_family(np.random.default_rng(14), 3)
    u = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="nonnegative and finite"):
        envelope(fam, np.inf, 2, u)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        envelope_pair(fam, np.inf, 2, u)


def test_envelope_single_member_matches_exponential():
    rng = np.random.default_rng(15)
    q = random_rate_matrix(rng, 6)
    fam = GeneratorFamily((q,))
    u = rng.standard_normal(6)
    for n in (0, 4, 8):
        assert np.abs(envelope(fam, 1.0, n, u) - mat_exp(q, 1.0) @ u).max() < 1e-9


def test_envelope_monotone_in_refinement_level():
    rng = np.random.default_rng(16)
    for _ in range(20):
        fam = random_family(rng, 5, members=2)
        u = rng.standard_normal(5)
        values = [envelope(fam, 1.0, n, u) for n in range(9)]
        for coarse, fine in zip(values, values[1:]):
            assert (fine >= coarse - 1e-10).all()


def test_envelope_lower_direction_decreases_with_level():
    rng = np.random.default_rng(17)
    fam = random_family(rng, 4, members=2, direction="lower")
    u = rng.standard_normal(4)
    values = [envelope(fam, 1.0, n, u) for n in range(7)]
    for coarse, fine in zip(values, values[1:]):
        assert (fine <= coarse + 1e-10).all()


def test_envelope_translates_constants():
    rng = np.random.default_rng(18)
    fam = random_family(rng, 5, members=3)
    u = rng.standard_normal(5)
    shifted = envelope(fam, 0.8, 6, u + 1.75)
    assert np.abs(shifted - (envelope(fam, 0.8, 6, u) + 1.75)).max() < 1e-10


def test_envelope_dominates_every_member_semigroup():
    rng = np.random.default_rng(19)
    for _ in range(20):
        fam = random_family(rng, 5, members=3, convex=True)
        u = rng.standard_normal(5)
        env = envelope(fam, 1.0, 6, u)
        for q, f in zip(fam.matrices, fam.penalties):
            assert (affine_flow(q, f, 1.0).apply(u) <= env + 1e-9).all()


def test_envelope_concatenation_is_exact_on_dyadic_grids():
    # running to horizon 0.25 and then 0.5 further equals the combined
    # partition: identical one-step sequences, so identical floats (the
    # steps near the combined end time act on u first)
    rng = np.random.default_rng(20)
    fam = random_family(rng, 4, members=2)
    u = rng.standard_normal(4)
    n = 3
    stage = envelope(fam, 0.25, n, u)
    two_stage = envelope(fam, 0.5, n, stage)
    combined_times = np.concatenate([
        np.linspace(0.0, 0.5, 2**n + 1),
        0.5 + np.linspace(0.0, 0.25, 2**n + 1)[1:],
    ])
    assert np.array_equal(iterate_partition(fam, combined_times, u), two_stage)


def test_envelope_lipschitz_bound_in_the_generator():
    rng = np.random.default_rng(21)
    for _ in range(30):
        fam = random_family(rng, 5, members=2, convex=True)
        u = rng.standard_normal(5)
        t = float(rng.uniform(0.1, 1.5))
        env = envelope(fam, t, 5, u)
        bound = t * max(
            float(np.abs(q @ u + f).max()) for q, f in zip(fam.matrices, fam.penalties)
        )
        assert np.abs(env - u).max() <= bound + 1e-8


def test_envelope_norm_bound_sublinear():
    rng = np.random.default_rng(22)
    for _ in range(30):
        fam = random_family(rng, 5, members=2)
        u = rng.standard_normal(5)
        t = float(rng.uniform(0.1, 1.0))
        rate = max(op_norm_inf(q) for q in fam.matrices)
        assert np.abs(envelope(fam, t, 5, u) - u).max() <= rate * t * np.abs(u).max() + 1e-8


# ---------------------------------------------------------------- refinement


def test_envelope_refined_converges_for_single_member():
    rng = np.random.default_rng(23)
    fam = GeneratorFamily((random_rate_matrix(rng, 4),))
    u = rng.standard_normal(4)
    values, diag = envelope_refined(fam, 1.0, u, tol=1e-10, n_max=12)
    assert diag.converged
    assert diag.final_level <= 6
    assert np.abs(values - mat_exp(fam.matrices[0], 1.0) @ u).max() < 1e-8


@pytest.mark.parametrize("t", [None, "x"])
def test_a_horizon_that_is_no_number_is_rejected(t):
    fam = random_family(np.random.default_rng(14), 3)
    u = np.array([1.0, 2.0, 3.0])
    for call in (envelope, envelope_pair, extract_worst_case_control):
        with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
            call(fam, t, 3, u)
    with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
        one_step(fam, t, u)
    with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
        fam.flows(t)


@pytest.mark.parametrize("k", [[1], 2.5, 0, np.inf])
def test_a_factor_count_that_is_no_positive_integer_is_refused_before_any_fill(k):
    fam = random_family(np.random.default_rng(14), 3, members=2)
    u = np.array([1.0, 2.0, 3.0])
    control = Control((ControlStep(np.zeros(3, dtype=int), 0.5),))
    for call in (lambda: fam.flows(0.5, k), lambda: one_step(fam, 0.5, u, k),
                 lambda: envelope_refined(fam, 1.0, u, tol=1e-3, k=k),
                 lambda: control_evaluate(fam, control, u, k=k)):
        with pytest.raises(ValueError, match="substep count must be an integer >= 1"):
            call()
    assert not fam._flow_cache


def test_envelope_refined_zero_horizon():
    fam = random_family(np.random.default_rng(24), 3)
    u = np.array([1.0, -1.0, 0.0])
    values, diag = envelope_refined(fam, 0.0, u, tol=1e-8)
    assert np.array_equal(values, u)
    assert diag.converged and diag.final_level == 0
    assert len(diag.levels) == 1 and diag.levels[0].max_abs_increment is None
    assert np.array_equal(diag.levels[0].values, u)
    assert not fam._flow_cache


def test_envelope_refined_reports_non_convergence_without_raising():
    rng = np.random.default_rng(25)
    fam = random_family(rng, 4, members=2, scale=3.0)
    u = rng.standard_normal(4) * 5
    values, diag = envelope_refined(fam, 1.0, u, tol=1e-16, n_max=3)
    assert not diag.converged
    assert diag.final_level == 3
    assert len(diag.levels) == 4
    assert np.isfinite(values).all()


@pytest.mark.parametrize("n_max", [2.5, "3", None])
def test_envelope_refined_rejects_a_level_cap_that_is_no_integer(n_max):
    fam = random_family(np.random.default_rng(25), 3)
    with pytest.raises(ValueError, match="n_max"):
        envelope_refined(fam, 1.0, np.zeros(3), tol=1e-3, n_max=n_max)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, "x", None, 0.0])
def test_envelope_refined_refuses_a_tolerance_that_is_no_finite_positive_real(tol):
    fam = random_family(np.random.default_rng(25), 3)
    with pytest.raises(ValueError, match="tolerance"):
        envelope_refined(fam, 1.0, np.zeros(3), tol=tol)


@pytest.mark.parametrize("n", [None, np.inf])
def test_envelope_rejects_a_level_that_is_no_integer(n):
    fam = random_family(np.random.default_rng(25), 3)
    with pytest.raises(ValueError, match="refinement level"):
        envelope(fam, 1.0, n, np.zeros(3))


@pytest.mark.parametrize("n", [1024, 1100])
def test_a_level_whose_step_underflows_is_refused_by_name(n):
    # 2^-1024 is subnormal and 2^-1100 rounds to 0; t / 2**n would overflow.
    fam = random_family(np.random.default_rng(25), 3)
    with pytest.raises(ValueError, match=f"refinement level n={n}"):
        envelope(fam, 1.0, n, np.zeros(3))
    with pytest.raises(ValueError, match=f"refinement level n={n}"):
        extract_worst_case_control(fam, 1.0, n, np.zeros(3))
    # At t = 0 no step is taken.
    assert np.array_equal(envelope(fam, 0.0, n, np.ones(3)), np.ones(3))
    assert extract_worst_case_control(fam, 0.0, n, np.ones(3)).steps == ()


def test_a_level_past_30_is_refused_by_name():
    fam = random_family(np.random.default_rng(25), 3)
    with pytest.raises(ValueError, match=r"refinement level n=31 takes 2\^31 = 2147483648 steps"):
        envelope(fam, 1.0, 31, np.zeros(3))


def test_an_euler_product_sweep_that_overflows_is_refused_without_a_warning():
    # The suite turns a RuntimeWarning into an error.  One factor I + h q per
    # step, h = 2^-10, with max|q_ii| = 20100 gives h * 20100 = 19.6, and the
    # values grow past the largest double.
    d, delta = 101, 0.01
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    u = payoff_butterfly(StateGrid(d, delta), 0.4, 0.5).values
    with pytest.raises(FloatingPointError, match="level-10 sweep with k=1 produced non-finite"):
        envelope_pair(fam, 1.0, 10, u, k=1)


def test_a_subnormal_horizon_is_not_refused_at_level_zero():
    # The step of a subnormal t is subnormal at any level; only a level that
    # takes a normal t below the smallest normal double is refused.
    fam = random_family(np.random.default_rng(25), 3)
    u = np.array([1.0, -2.0, 3.0])
    assert np.allclose(envelope(fam, 1e-310, 0, u), u, rtol=0, atol=1e-300)
    assert len(extract_worst_case_control(fam, 1e-310, 0, u).steps) == 1


def test_envelope_refined_level_records_are_monotone():
    # two-member increments shrink like the step length, so a mid-scale
    # tolerance is reached after a handful of levels
    rng = np.random.default_rng(26)
    fam = random_family(rng, 5, members=2)
    u = rng.standard_normal(5)
    _, diag = envelope_refined(fam, 1.0, u, tol=1e-4, n_max=14)
    assert diag.converged
    assert diag.levels[0].max_abs_increment is None
    for prev, cur in zip(diag.levels, diag.levels[1:]):
        assert cur.max_abs_increment >= 0.0
        assert (cur.values >= prev.values - 1e-10).all()
    assert diag.levels[-1].max_abs_increment <= 1e-4


def test_envelope_refined_drift_uncertainty_butterfly():
    from qenvelope import build_drift, build_laplacian, interval_generator, payoff_butterfly, StateGrid
    d, delta = 11, 1.0
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    pay = payoff_butterfly(StateGrid(d, delta), 4.0, 5.0)
    refined, diag = envelope_refined(fam, 1.0, pay.values, tol=1e-3, n_max=14)
    assert diag.converged
    assert diag.final_level <= 12
    # the refined value dominates the level-6 one (refinement only raises it)
    assert (refined >= envelope(fam, 1.0, 6, pay.values) - 1e-10).all()


def _jump_family(penalised=False):
    """A dense jump-diffusion pair at d = 201 like the audit benchmark's:
    drift lambda in [-1, 1], or the two endpoints with a penalty on one."""
    d, delta = 201, 0.05
    q0, q = jump_diffusion(d, delta), build_drift(d, delta)
    if not penalised:
        return interval_generator(q0, q, -1.0, 1.0)
    return GeneratorFamily((q0 - q, q0 + q), (np.zeros(d), -0.1 * np.linspace(0.0, 1.0, d)))


# The families whose refinements fill their levels from one exponential per
# member.  Below d = 150 the drift family keeps its members dense, and each
# augmented exponential starts banded: at d = 101 its series is past the
# band, at d = 149 one banded squaring is.  The tridiagonal pair adds a
# penalty to one member, whose exponential is dense from the start.
_REFINED = {
    "jump": _jump_family,
    "penalised-jump": lambda: _jump_family(penalised=True),
    "drift-101": lambda: grid_family("drift", 101, 0.1),
    "drift-149": lambda: grid_family("drift", 149, 10.0 / 148),
    "tridiagonal-pair-101": lambda: GeneratorFamily(
        grid_family("drift", 101, 0.1).matrices,
        (np.zeros(101), -0.1 * np.linspace(0.0, 1.0, 101))),
}


def _level_keys(t, levels, k=None):
    return {(math.ldexp(t, -n).hex(), k) for n in levels}


@pytest.mark.parametrize("name, t, n_max", [("jump", 1.0, 16), ("jump", 0.7, 16),
                                            ("penalised-jump", 1.0, 16), ("jump", 1.0, 4),
                                            ("drift-149", 1.0, 16),
                                            ("tridiagonal-pair-101", 1.0, 16)])
def test_refinement_levels_match_fresh_envelopes_bit_for_bit(name, t, n_max):
    # One exponential per member fills the flows of every level its dense
    # squarings pass through (12 for the jump families, 10 for the others);
    # each level, and each flow, has the bits of a family that fills that
    # level alone.
    fam = _REFINED[name]()
    u = payoff_butterfly(StateGrid(fam.dim, 10.0 / (fam.dim - 1)), 4.5, 5.5).values
    _, diag = envelope_refined(fam, t, u, tol=1e-4, n_max=n_max)
    assert diag.final_level >= min(n_max, 10)
    for level in diag.levels:
        assert np.array_equal(level.values, envelope(_REFINED[name](), t, level.n, u))
    fresh = _REFINED[name]()
    for (h, k), flows in fam._flow_cache.items():
        alone = fresh.flows(float.fromhex(h), k)
        assert np.array_equal(flows.matrix, alone.matrix)
        assert np.array_equal(flows.offset, alone.offset)
    if n_max < 12:
        assert set(fam._flow_cache) == _level_keys(t, range(n_max + 1))
    else:
        assert set(fam._flow_cache) >= _level_keys(t, range(13))


def _counting_series(monkeypatch):
    """The horizons of the exponentials run from now on: every one runs its
    series in linalg._cut_exp."""
    series = []

    def counting(a, t, *rest):
        series.append(t)
        return cut_exp(a, t, *rest)

    cut_exp = linalg._cut_exp
    monkeypatch.setattr(linalg, "_cut_exp", counting)
    monkeypatch.setattr(generators, "_cut_exp", counting)
    return series


def test_refinement_runs_one_series_per_member(monkeypatch):
    # The level-0 exponentials take 7 squarings for the jump family and 10
    # for the drift family, whose augmented exponentials start banded; all
    # of them dense.  A fill per level would run 2 (n_max + 1) series.
    series = _counting_series(monkeypatch)
    jump_delta = 10.0 / 29
    jump = interval_generator(jump_diffusion(30, jump_delta), build_drift(30, jump_delta), -1.0, 1.0)
    for fam, delta in ((jump, jump_delta), (_REFINED["drift-101"](), 0.1)):
        series.clear()
        u = payoff_butterfly(StateGrid(fam.dim, delta), 4.5, 5.5).values
        _, diag = envelope_refined(fam, 1.0, u, tol=1e-15, n_max=6)
        assert diag.final_level == 6 and not diag.converged
        assert series == [1.0, 1.0]
        assert set(fam._flow_cache) == _level_keys(1.0, range(7))


def test_refinement_ladders_again_unless_every_level_is_cached(monkeypatch):
    # A cached level 0 alone does not stop the one exponential per member
    # that fills the other levels; once they are all cached, nothing runs.
    series = _counting_series(monkeypatch)
    fam = _REFINED["drift-101"]()
    u = payoff_butterfly(StateGrid(fam.dim, 0.1), 4.5, 5.5).values
    envelope(fam, 1.0, 0, u)
    level0 = fam.flows(1.0)
    assert series == [1.0, 1.0]
    series.clear()
    envelope_refined(fam, 1.0, u, tol=1e-15, n_max=6)
    assert series == [1.0, 1.0]
    assert fam.flows(1.0) is level0
    assert set(fam._flow_cache) == _level_keys(1.0, range(7))
    series.clear()
    envelope_refined(fam, 1.0, u, tol=1e-15, n_max=6)
    assert series == []


@pytest.mark.parametrize("kind, k", [("cut", None), ("euler", 4)])
def test_refinement_without_a_ladder_fills_each_level_alone(kind, k):
    # Banded cut flows and Euler products fill only the levels the refinement runs.
    if kind == "cut":
        fam = grid_family("drift", 201, 0.05)
    else:
        fam = random_family(np.random.default_rng(32), 30, members=2)
    u = np.sin(np.arange(fam.dim))
    _, diag = envelope_refined(fam, 1.0, u, tol=1e-15, n_max=3, k=k)
    assert set(fam._flow_cache) == _level_keys(1.0, range(diag.final_level + 1), k)


@pytest.mark.parametrize("t", [np.inf, np.nan, -1.0, "1"])
def test_envelope_refined_checks_its_arguments_before_any_fill(t):
    fam = random_family(np.random.default_rng(33), 3)
    u = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
        envelope_refined(fam, t, u, tol=1e-3)
    for bad in ({"tol": 0.0}, {"tol": 1e-3, "n_max": -1}):
        with pytest.raises(ValueError, match="tolerance|n_max"):
            envelope_refined(fam, 1.0, u, **bad)
    with pytest.raises(ValueError, match="state vector"):
        envelope_refined(fam, 1.0, u[:2], tol=1e-3)
    assert not fam._flow_cache


# ------------------------------------------------------------------ controls


def test_control_constant_selection_is_one_member_flow():
    rng = np.random.default_rng(27)
    q1, q2 = random_rate_matrix(rng, 4), random_rate_matrix(rng, 4)
    fam = GeneratorFamily((q1, q2))
    u = rng.standard_normal(4)
    ctrl = Control((ControlStep(np.ones(4, dtype=int), 0.6),))
    assert np.abs(control_evaluate(fam, ctrl, u) - mat_exp(q2, 0.6) @ u).max() < 1e-12


def test_control_steps_compose_right_to_left():
    rng = np.random.default_rng(28)
    q1, q2 = random_rate_matrix(rng, 3), random_rate_matrix(rng, 3)
    fam = GeneratorFamily((q1, q2))
    u = rng.standard_normal(3)
    ctrl = Control((
        ControlStep(np.zeros(3, dtype=int), 0.5),   # outermost: q1 for 0.5
        ControlStep(np.ones(3, dtype=int), 0.25),   # applied to u first: q2 for 0.25
    ))
    manual = mat_exp(q1, 0.5) @ (mat_exp(q2, 0.25) @ u)
    assert np.abs(control_evaluate(fam, ctrl, u) - manual).max() < 1e-12
    assert ctrl.total_duration == 0.75


def test_control_mixes_member_rows_per_state():
    rng = np.random.default_rng(29)
    q1, q2 = random_rate_matrix(rng, 3), random_rate_matrix(rng, 3)
    fam = GeneratorFamily((q1, q2))
    u = rng.standard_normal(3)
    sel = np.array([0, 1, 0])
    ctrl = Control((ControlStep(sel, 0.4),))
    m1, m2 = mat_exp(q1, 0.4), mat_exp(q2, 0.4)
    expected = np.array([m1[0] @ u, m2[1] @ u, m1[2] @ u])
    assert np.abs(control_evaluate(fam, ctrl, u) - expected).max() < 1e-12


def test_control_validation_rejects_bad_steps():
    fam = random_family(np.random.default_rng(30), 3, members=2)
    u = np.zeros(3)
    with pytest.raises(ValueError):
        control_evaluate(fam, Control((ControlStep(np.array([0, 1, 2]), 0.5),)), u)
    with pytest.raises(ValueError):
        control_evaluate(fam, Control((ControlStep(np.zeros(3, dtype=int), 0.0),)), u)
    with pytest.raises(ValueError):
        control_evaluate(fam, Control((ControlStep(np.zeros(2, dtype=int), 0.5),)), u)


@pytest.mark.parametrize("last, message", [
    (ControlStep(np.zeros(2, dtype=int), 0.25), "integer vector with one entry per state"),
    (ControlStep(np.array([0, 1, 2]), 0.25), r"selection indices must lie in \[0, 2\)"),
    (ControlStep(np.zeros(3, dtype=int), 0.0), "step durations must be positive"),
])
def test_a_control_is_checked_whole_before_any_flow_is_filled(monkeypatch, last, message):
    # The last step acts on u first, so a replay that checked step by step
    # would fill its flows before it reached the bad step.
    fam = random_family(np.random.default_rng(30), 3, members=2)
    fills = []
    fill = GeneratorFamily._fill
    monkeypatch.setattr(GeneratorFamily, "_fill",
                        lambda self, *args: fills.append(args) or fill(self, *args))
    good = ControlStep(np.array([0, 1, 0]), 0.5)
    with pytest.raises(ValueError, match=message):
        control_evaluate(fam, Control((good, good, last)), np.zeros(3))
    assert fills == [] and not fam._flow_cache
    control_evaluate(fam, Control((good, good)), np.zeros(3))
    assert fills == [(0.5, None)]


def test_a_replay_that_overflows_is_refused_by_k_without_a_warning():
    # The Euler factors of the sweep that overflows above, 1024 steps of one
    # member; the suite turns a RuntimeWarning into an error.
    d, delta = 101, 0.01
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    u = payoff_butterfly(StateGrid(d, delta), 0.4, 0.5).values
    control = Control((ControlStep(np.zeros(d, dtype=int), 2.0**-10),) * 1024)
    with pytest.raises(FloatingPointError, match="replay with k=1 gave non-finite values"):
        control_evaluate(fam, control, u, k=1)


@pytest.mark.parametrize("duration", [None, "x", np.inf, np.nan])
def test_control_validation_rejects_a_duration_that_is_no_number(duration):
    fam = random_family(np.random.default_rng(30), 3, members=2)
    step = ControlStep(np.zeros(3, dtype=int), duration)
    with pytest.raises(ValueError, match="step durations must be positive"):
        control_evaluate(fam, Control((step,)), np.zeros(3))


def test_extracted_control_replays_the_envelope():
    rng = np.random.default_rng(31)
    for convex in (False, True):
        fam = random_family(rng, 5, members=3, convex=convex)
        u = rng.standard_normal(5)
        ctrl = extract_worst_case_control(fam, 1.0, 6, u)
        assert len(ctrl.steps) == 64
        assert ctrl.total_duration == pytest.approx(1.0)
        replay = control_evaluate(fam, ctrl, u)
        assert np.abs(replay - envelope(fam, 1.0, 6, u)).max() < 1e-9


def test_extracted_control_zero_horizon_is_empty():
    fam = random_family(np.random.default_rng(32), 3)
    ctrl = extract_worst_case_control(fam, 0.0, 4, np.zeros(3))
    assert ctrl.steps == ()
    assert np.array_equal(control_evaluate(fam, ctrl, np.array([1.0, 2.0, 3.0])),
                          np.array([1.0, 2.0, 3.0]))


def test_no_control_beats_the_envelope():
    rng = np.random.default_rng(33)
    fam = random_family(rng, 5, members=3)
    u = rng.standard_normal(5)
    deep = envelope(fam, 1.0, 12, u)
    for _ in range(50):
        count = int(rng.integers(1, 7))
        weights = rng.uniform(0.2, 1.0, count)
        durations = weights / weights.sum()
        steps = tuple(
            ControlStep(rng.integers(0, 3, 5), float(dur)) for dur in durations
        )
        value = control_evaluate(fam, Control(steps), u)
        assert (value <= deep + 1e-8).all()


def test_worst_case_control_respects_lower_direction():
    rng = np.random.default_rng(34)
    fam = random_family(rng, 4, members=2, direction="lower")
    u = rng.standard_normal(4)
    ctrl = extract_worst_case_control(fam, 0.5, 5, u)
    replay = control_evaluate(fam, ctrl, u)
    assert np.abs(replay - envelope(fam, 0.5, 5, u)).max() < 1e-9


@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_stepped_one_step_argmax_picks_are_the_extracted_control(direction):
    rng = np.random.default_rng(43)
    fam = random_family(rng, 6, members=3, convex=True, direction=direction)
    u = rng.standard_normal(6)
    t, n = 0.8, 4
    value, picks = u, []
    for _ in range(2**n):
        value, sel = one_step_argmax(fam, t / 2**n, value)
        picks.append(sel)
    assert len(np.unique(picks)) > 1
    assert np.array_equal(value, envelope(fam, t, n, u))
    ctrl = extract_worst_case_control(fam, t, n, u)
    assert [step.duration for step in ctrl.steps] == [t / 2**n] * 2**n
    assert all(np.array_equal(step.selection, sel)
               for step, sel in zip(ctrl.steps, reversed(picks), strict=True))
    single = extract_worst_case_control(fam, t, 0, u)
    assert len(single.steps) == 1 and single.steps[0].duration == t
    assert np.array_equal(single.steps[0].selection, one_step_argmax(fam, t, u)[1])


def test_envelope_pair_ignores_the_family_direction():
    rng = np.random.default_rng(41)
    fam = random_family(rng, 5, members=3, convex=True)
    u = rng.standard_normal(5)
    upper, lower = envelope_pair(fam, 0.6, 4, u)
    flipped_upper, flipped_lower = envelope_pair(fam.flipped(), 0.6, 4, u)
    assert np.array_equal(upper, flipped_upper) and np.array_equal(lower, flipped_lower)
    assert np.allclose(upper, envelope(fam, 0.6, 4, u), rtol=0, atol=1e-13)
    assert np.allclose(lower, envelope(fam.flipped(), 0.6, 4, u), rtol=0, atol=1e-13)
    zero_upper, zero_lower = envelope_pair(fam, 0.0, 4, u)
    assert np.array_equal(zero_upper, u) and np.array_equal(zero_lower, u)


def test_envelope_sweeps_match_a_plain_loop_bit_for_bit():
    rng = np.random.default_rng(42)
    m, d, t, n = 3, 7, 0.6, 4
    fam = random_family(rng, d, members=m, convex=True)
    u = rng.standard_normal(d)
    flows = fam.flows(t / 2**n)
    upper = lower = u
    pair = np.column_stack((u, u))
    for _ in range(2**n):
        upper = (flows.matrix @ upper + flows.offset).reshape(m, d).max(axis=0)
        lower = (flows.matrix @ lower + flows.offset).reshape(m, d).min(axis=0)
        values = (flows.matrix @ pair + flows.offset[:, None]).reshape(m, d, 2)
        pair = np.column_stack((values[:, :, 0].max(axis=0), values[:, :, 1].min(axis=0)))
    assert np.array_equal(envelope(fam, t, n, u), upper)
    assert np.array_equal(envelope(fam.flipped(), t, n, u), lower)
    swept = envelope_pair(fam, t, n, u)
    assert np.array_equal(swept[0], pair[:, 0]) and np.array_equal(swept[1], pair[:, 1])


# --------------------------------------------------------------- banded flows
# Sublinear families with banded members sweep with flows cut to a half-band
# (GeneratorFamily.flows): each moves a sweep over [0, t] by at most
# 2^-53 t |u|_inf, so the paper's invariants hold on them to round-off.


def _banded_problem(kind, d, delta):
    fam = grid_family(kind, d, delta)
    grid = StateGrid(d, delta)
    pay = payoff_butterfly(grid, 4.0, 5.0) if kind == "drift" else payoff_bull(grid, 4.0, 5.0)
    return fam, pay


def _dense_sweep(fam, t, n, u):
    """Both level-n envelopes of u by a plain loop over the uncut flows."""
    stack, m, d = dense_flow_stack(fam, t / 2**n), fam.n_members, fam.dim
    pair = np.column_stack((u, u))
    for _ in range(2**n):
        values = (stack @ pair).reshape(m, d, 2)
        pair = np.column_stack((values[:, :, 0].max(axis=0), values[:, :, 1].min(axis=0)))
    return pair[:, 0], pair[:, 1]


@pytest.mark.parametrize("d, delta", [(401, 0.025), (801, 0.0125)])
@pytest.mark.parametrize("kind", ["drift", "vol"])
def test_banded_sweep_matches_the_dense_sweep(kind, d, delta):
    fam, pay = _banded_problem(kind, d, delta)
    t, n = 1.0, 10
    h, u = t / 2**n, pay.values - 0.3
    flows = fam.flows(h)
    assert flows.blocks is not None
    upper, lower = envelope_pair(fam, t, n, u)
    dense_upper, dense_lower = _dense_sweep(fam, t, n, u)
    # Both sweeps are nonexpansive, so 2^n steps move them apart by at most
    # 2^n times the flows' distance, plus a few ulps of round-off per step.
    # The flows lie within 2^-53 h + round-off of each other, and each
    # sweep's rounding adds up to about 1e-12 here; against an
    # extended-precision sweep at d = 401 the banded one is the closer.
    gap = np.abs(flows.matrix - dense_flow_stack(fam, h)).sum(axis=1).max()
    assert gap <= 2**-53 * h + 1e-14
    bound = 2**n * (gap + 2**-50) * np.abs(u).max()
    assert np.abs(upper - dense_upper).max() <= bound
    assert np.abs(lower - dense_lower).max() <= bound
    assert np.abs(envelope(fam.flipped(), t, n, u) - lower).max() <= 2**n * 2**-50


@pytest.mark.parametrize("kind", ["drift", "vol"])
def test_banded_envelopes_are_monotone_in_the_level_and_bracket_the_references(kind):
    d, delta, t = 401, 0.025, 1.0
    fam, pay = _banded_problem(kind, d, delta)
    slack = 2 * 2**-53 * t * np.abs(pay.values).max() + 1e-14
    curves = [envelope_pair(fam, t, n, pay.values) for n in range(6, 11)]
    for (upper, lower), (finer_upper, finer_lower) in zip(curves, curves[1:]):
        assert (finer_upper >= upper - slack).all()
        assert (finer_lower <= lower + slack).all()
    upper, lower = curves[-1]
    q0, q = (fam.matrices[0] + fam.matrices[1]) / 2, (fam.matrices[1] - fam.matrices[0]) / 2
    for lam in (-1.0, 0.0, 1.0):
        ref = linear_reference(q0 + lam * q, pay, t)
        assert (lower - slack <= ref).all() and (ref <= upper + slack).all()


@pytest.mark.parametrize("kind", ["drift", "vol"])
def test_banded_flows_map_constants_to_themselves(kind):
    fam = grid_family(kind, 401, 0.025)
    h = 2**-10
    assert fam.flows(h).blocks is not None
    for c in (1.0, 2.5, -3.0):
        assert np.abs(one_step(fam, h, np.full(401, c)) - c).max() <= 1e-15 * abs(c)


@pytest.mark.parametrize("kind", ["drift", "vol"])
def test_banded_worst_case_control_replays_the_envelope(kind):
    fam, pay = _banded_problem(kind, 401, 0.025)
    for direction in (fam, fam.flipped()):
        ctrl = extract_worst_case_control(direction, 1.0, 8, pay.values)
        replay = control_evaluate(direction, ctrl, pay.values)
        assert np.abs(replay - envelope(direction, 1.0, 8, pay.values)).max() <= 1e-14
