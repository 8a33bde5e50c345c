"""One-step envelopes, dyadic refinement, and worst-case controls."""

import numpy as np
import pytest

from qenvelope import (
    Control,
    ControlStep,
    GeneratorFamily,
    affine_flow,
    control_evaluate,
    envelope,
    envelope_pair,
    envelope_refined,
    extract_worst_case_control,
    iterate_partition,
    mat_exp,
    one_step,
    one_step_argmax,
    op_norm_inf,
)

from _helpers import random_family, random_rate_matrix


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


def test_envelope_refined_zero_horizon():
    fam = random_family(np.random.default_rng(24), 3)
    u = np.array([1.0, -1.0, 0.0])
    values, diag = envelope_refined(fam, 0.0, u, tol=1e-8)
    assert np.array_equal(values, u)
    assert diag.converged and diag.final_level == 0


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


@pytest.mark.parametrize("n", [None, np.inf])
def test_envelope_rejects_a_level_that_is_no_integer(n):
    fam = random_family(np.random.default_rng(25), 3)
    with pytest.raises(ValueError, match="refinement level"):
        envelope(fam, 1.0, n, np.zeros(3))


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
