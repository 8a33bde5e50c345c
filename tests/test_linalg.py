"""Exponentials, Euler products and affine flows against independent oracles."""

import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.linalg

from qenvelope import (
    GeneratorFamily,
    StateGrid,
    affine_flow,
    apply_q_operator,
    build_drift,
    build_laplacian,
    envelope,
    euler_product_exp,
    iterate_partition,
    mat_exp,
    op_norm_inf,
    payoff_custom,
    validate_rate_matrix,
)
from qenvelope import linalg
from qenvelope.linalg import _EXP_SCALE_THRESHOLD, _EXP_SERIES_ORDER, _band_diagonals, \
    _block_matrices, _blocked_apply, _cut_exp, _half_bandwidth, _row_blocks, _widest_band

from _helpers import jump_diffusion, off_to_rate, random_family, random_rate_matrix, \
    rk4_affine, trapezoid_flow_offset, two_state_exp, two_state_generator


def test_op_norm_inf_identity():
    assert op_norm_inf(np.eye(3)) == 1.0


def test_op_norm_inf_mixed_signs():
    assert op_norm_inf([[-2.0, 2.0], [1.0, -1.0]]) == 4.0


def test_op_norm_inf_laplacian_full_grid():
    from qenvelope import build_laplacian
    norm = op_norm_inf(build_laplacian(101, 0.1))
    assert norm == pytest.approx(400.0, rel=1e-12)


def test_op_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        op_norm_inf(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_op_norm_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        op_norm_inf(np.array([[0.0, bad], [0.0, 0.0]]))


def test_mat_exp_zero_time_is_identity():
    q = two_state_generator(1.0, 1.0)
    assert np.array_equal(mat_exp(q, 0.0), np.eye(2))


def test_mat_exp_symmetric_two_state_closed_form():
    # e^{0.5 q} for q = [[-1,1],[1,-1]] has entries (1 +- e^{-1})/2
    result = mat_exp(two_state_generator(1.0, 1.0), 0.5)
    expected = np.array([
        [0.6839397205857212, 0.31606027941427883],
        [0.31606027941427883, 0.6839397205857212],
    ])
    assert np.abs(result - expected).max() < 1e-12


@pytest.mark.parametrize("a,b,t", [(1.0, 1.0, 0.1), (2.0, 0.5, 1.0), (3.0, 0.2, 4.0)])
def test_mat_exp_asymmetric_closed_form(a, b, t):
    assert np.abs(mat_exp(two_state_generator(a, b), t) - two_state_exp(a, b, t)).max() < 1e-12


def test_mat_exp_matches_scipy_on_general_matrices():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = rng.integers(2, 8)
        m = rng.standard_normal((d, d))
        ours = mat_exp(m, 1.0)
        ref = scipy.linalg.expm(m)
        assert np.abs(ours - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def test_mat_exp_rows_stochastic_over_long_horizons():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 12))
        q = random_rate_matrix(rng, d)
        q *= 10.0 / max(op_norm_inf(q), 10.0)  # cap the norm at 10
        for t in (0.0, 0.3, 1.0, 4.0, 10.0):
            p = mat_exp(q, t)
            assert p.min() >= -1e-12
            assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-10


def test_mat_exp_semigroup_property():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 10))
        q = random_rate_matrix(rng, d, scale=2.0)
        s, t = rng.uniform(0.1, 2.0, 2)
        lhs = mat_exp(q, s + t)
        rhs = mat_exp(q, s) @ mat_exp(q, t)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_mat_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        mat_exp(np.array([[0.0, np.nan], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), -0.5)
    with pytest.raises(ValueError):
        mat_exp(np.zeros((2, 3)), 1.0)


# Entries that are no bool, integer or float.  A plain float cast drops an
# imaginary part with a ComplexWarning, parses "1" and raises a TypeError on a dict.
_NOT_REAL = [1j, "1", Decimal("1"), {}]
_FAMILY = GeneratorFamily((np.zeros((3, 3)),))


@pytest.mark.parametrize("bad", _NOT_REAL, ids=["complex", "str", "decimal", "dict"])
@pytest.mark.parametrize("call, what", [
    (lambda bad: mat_exp([[bad, 0], [0, 0]]), "an exponent matrix"),
    (lambda bad: GeneratorFamily(([[bad, 0], [0, 0]],)), "a family member"),
    (lambda bad: validate_rate_matrix([[bad, 0], [0, 0]]), "a rate matrix"),
    (lambda bad: payoff_custom(StateGrid(3, 1.0), [bad, 0, 0]), "a payoff"),
    (lambda bad: envelope(_FAMILY, 1.0, 2, [bad, 0, 0]), "a state vector"),
    (lambda bad: apply_q_operator(_FAMILY, [bad, 0, 0]), "a state vector"),
    (lambda bad: iterate_partition(_FAMILY, [0, bad], np.zeros(3)), "a partition"),
], ids=["mat_exp", "family", "rate_matrix", "payoff", "envelope", "apply", "partition"])
def test_input_that_is_no_real_array_is_refused_by_name(call, what, bad):
    with pytest.raises(ValueError, match=f"expected {what} of real numbers, got"):
        call(bad)


def test_mat_exp_refuses_a_scaled_matrix_that_overflows():
    q = np.array([[-1e300, 1e300], [0.0, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        mat_exp(q, 1e10)


def test_mat_exp_names_t_when_the_scaled_matrix_overflows():
    q = np.array([[-1e300, 1e300], [0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite") as excinfo:
        mat_exp(q, 1e10)
    assert "t=1e+10" in str(excinfo.value)


def test_euler_product_names_h_when_the_scaled_matrix_overflows():
    q = np.array([[-1e300, 1e300], [0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite") as excinfo:
        euler_product_exp(q, 1e10, 1)
    assert "h=1e+10" in str(excinfo.value)


def test_an_infinite_horizon_is_rejected():
    q = build_drift(5, 1.0)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        mat_exp(q, np.inf)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        euler_product_exp(q, np.inf, 3)


@pytest.mark.parametrize("t", [None, "x"])
def test_a_horizon_that_is_no_number_is_rejected(t):
    q = build_drift(5, 1.0)
    with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
        mat_exp(q, t)
    with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
        affine_flow(q, np.zeros(5), t)
    with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
        euler_product_exp(q, t, 2)


def _squarings(b):
    """The number of squarings mat_exp takes for the scaled matrix b."""
    norm = op_norm_inf(b)
    return int(np.ceil(np.log2(norm / _EXP_SCALE_THRESHOLD))) if norm > _EXP_SCALE_THRESHOLD else 0


def dense_horner_exp(a, t):
    """Scaling and squaring with a fresh dense product for every Horner step
    and every squaring: the series as written before it became band-aware."""
    b = t * np.asarray(a, dtype=float)
    squarings = _squarings(b)
    b /= 2.0**squarings
    eye = np.eye(b.shape[0])
    result = eye.copy()
    for order in range(_EXP_SERIES_ORDER, 0, -1):
        result = eye + (b @ result) / order
    for _ in range(squarings):
        result = result @ result
    return result


def _augmented(q, f):
    """affine_flow's block matrix [[q, f], [0, 0]]."""
    d = q.shape[0]
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = q
    aug[:d, d] = f
    return aug


def _banded_rate_matrix(d, w, seed):
    off = np.random.default_rng(seed).uniform(0.0, 50.0, (d, d))
    rows, cols = np.indices((d, d))
    off[np.abs(rows - cols) > w] = 0.0
    return off_to_rate(off)


# (name, matrix builder, half-bandwidth the exponential sees; None = dense
# path).  The banded exponential keeps diagonals up to the half-band
# _widest_band(d), 12 at d = 101 and 99 at d = 801, and finishes dense past
# it; the last three inputs pass it at different stages (see
# test_banded_exponential_finishes_dense_where_its_band_passes_the_limit).
_BANDED = [
    ("laplacian-101", lambda: build_laplacian(101, 0.1), 1),
    ("drift-101", lambda: build_drift(101, 0.1), 1),
    ("laplacian-401", lambda: build_laplacian(401, 0.025), 1),
    ("drift-401", lambda: build_drift(401, 0.025), 1),
    ("unpenalized-augmented-401",
     lambda: _augmented(build_laplacian(401, 0.025), np.zeros(401)), 1),
    ("pentadiagonal-101", lambda: _banded_rate_matrix(101, 2, 61), 2),
    ("diagonal-101", lambda: np.diag(-np.linspace(0.0, 300.0, 101)), 0),
    ("zero-101", lambda: np.zeros((101, 101)), 0),
    ("one-state", lambda: np.array([[-7.0]]), None),
    ("tridiagonal-101", lambda: _banded_rate_matrix(101, 1, 63), 1),
    ("laplacian-801", lambda: build_laplacian(801, 0.0125), 1),
    ("drift-801", lambda: build_drift(801, 0.0125), 1),
]
_BUILDERS = {name: build for name, build, _ in _BANDED}


@pytest.mark.parametrize("t", [2.0**-10, 2.0**-6, 1.0])
@pytest.mark.parametrize("build,width", [case[1:] for case in _BANDED],
                         ids=[case[0] for case in _BANDED])
def test_banded_series_matches_scipy_and_the_dense_series(build, width, t):
    a = build()
    assert _half_bandwidth(t * a, _widest_band(a.shape[0])) == width
    ours = mat_exp(a, t)
    ref = scipy.linalg.expm(t * a)
    assert np.abs(ours - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())
    assert np.abs(ours - dense_horner_exp(a, t)).max() < 1e-14


# (input, t, the stage at which the band passes the limit): the series band
# of a tridiagonal matrix, 16, is past 12 at d = 101; at d = 801 a band of
# 16 doubles past 99 in the squarings, and without squarings never does.
_STAGES = [("tridiagonal-101", 1.0, "series"),
           ("laplacian-801", 1.0, "squaring"),
           ("drift-801", 2.0**-10, "never")]


@pytest.mark.parametrize("name, t, stage", _STAGES)
def test_banded_exponential_finishes_dense_where_its_band_passes_the_limit(name, t, stage):
    # The stage sees each dense square before it is squared, with the
    # squarings still to come: j = s' down to 1, s' the dense squarings.
    staged = []
    a = _BUILDERS[name]()
    squarings = _squarings(t * a)
    result = linalg._exp(a, t, lambda square, j: staged.append((square.shape, j)))
    assert result.shape == a.shape and np.array_equal(result, mat_exp(a, t))
    dense = staged[0][1] if staged else 0
    assert staged == [(a.shape, j) for j in range(dense, 0, -1)]
    if stage == "series":
        assert dense == squarings
    elif stage == "squaring":
        assert 0 < dense < squarings
    else:
        assert staged == []


_RATE_MATRICES = [case for case in _BANDED if case[0] not in ("diagonal-101", "one-state")]


@pytest.mark.parametrize("t", [2.0**-10, 2.0**-6, 1.0])
@pytest.mark.parametrize("build", [case[1] for case in _RATE_MATRICES],
                         ids=[case[0] for case in _RATE_MATRICES])
def test_banded_exponential_of_a_rate_matrix_is_stochastic(build, t):
    # Each squaring about doubles the row sums' round-off; the laplacian at
    # d = 801 takes 16 and ends 1.2e-12 off 1 at t = 1.
    p = mat_exp(build(), t)
    assert (p >= 0).all()
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-11


@pytest.mark.parametrize("name, t, stage", _STAGES)
def test_banded_exponential_keeps_the_semigroup_property_at_each_stage(name, t, stage):
    # e^{ta} against (e^{ta/2})^2 for each stage at which the band passes
    # the limit.
    a = _BUILDERS[name]()
    half = mat_exp(a, t / 2)
    assert np.abs(mat_exp(a, t) - half @ half).max() < 1e-14


def _penalized_augmented():
    fam = random_family(np.random.default_rng(62), 120, convex=True, scale=20.0)
    return _augmented(fam.matrices[1], fam.penalties[1])


@pytest.mark.parametrize("build", [lambda: jump_diffusion(201, 0.05), _penalized_augmented],
                         ids=["jump-diffusion", "penalized-augmented"])
@pytest.mark.parametrize("t", [2.0**-10, 1.0])
def test_dense_series_is_bit_identical_to_the_plain_loop(build, t):
    matrix = build()
    assert _half_bandwidth(matrix, _widest_band(matrix.shape[0])) is None
    assert np.array_equal(mat_exp(matrix, t), dense_horner_exp(matrix, t))


def test_mat_exp_of_a_tridiagonal_matrix_makes_no_extra_dense_temporaries():
    d = 402
    a = build_laplacian(d, 0.025) * 1.5
    tracemalloc.start()
    try:
        mat_exp(a, 2.0**-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * d * d * 8 + 64 * 1024


def test_euler_product_zero_step_is_identity():
    assert np.array_equal(euler_product_exp(two_state_generator(1, 1), 0.0, 7), np.eye(2))


def test_euler_product_single_factor():
    q = two_state_generator(1.0, 2.0)
    assert np.allclose(euler_product_exp(q, 0.25, 1), np.eye(2) + 0.25 * q, atol=0, rtol=0)


def test_euler_product_converges_to_closed_form():
    q = two_state_generator(1.0, 1.0)
    approx = euler_product_exp(q, 0.5, 2**20)
    assert np.abs(approx - two_state_exp(1.0, 1.0, 0.5)).max() < 1e-5


def test_euler_product_error_decays_along_doubling_k():
    rng = np.random.default_rng(41)
    cases = [two_state_generator(1.0, 1.0), random_rate_matrix(rng, 5, 1.5)]
    for q in cases:
        exact = mat_exp(q, 0.7)
        errors = [np.abs(euler_product_exp(q, 0.7, 2**j) - exact).max() for j in range(4, 17)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-12


def test_euler_product_rejects_bad_k():
    with pytest.raises(ValueError):
        euler_product_exp(np.zeros((2, 2)), 1.0, 0)
    with pytest.raises(ValueError):
        euler_product_exp(np.zeros((2, 2)), 1.0, -3)


@pytest.mark.parametrize("k", [None, np.inf, [2, 3]])
def test_euler_product_rejects_a_factor_count_that_is_no_integer(k):
    with pytest.raises(ValueError, match="substep count"):
        euler_product_exp(np.zeros((2, 2)), 1.0, k)


def test_affine_flow_zero_penalty_reduces_to_exponential():
    q = two_state_generator(2.0, 0.5)
    fl = affine_flow(q, np.zeros(2), 0.8)
    assert np.abs(fl.matrix - mat_exp(q, 0.8)).max() < 1e-13
    assert np.array_equal(fl.offset, np.zeros(2))


def test_affine_flow_zero_matrix_integrates_the_offset():
    f = np.array([-0.5, -2.0])
    fl = affine_flow(np.zeros((2, 2)), f, 0.3)
    assert np.abs(fl.matrix - np.eye(2)).max() < 1e-14
    assert np.abs(fl.offset - 0.3 * f).max() < 1e-14


def test_affine_flow_offset_matches_quadrature():
    # offset = integral of e^{s q} f over [0, 0.5], trapezoid with 1e5 panels
    q = two_state_generator(1.0, 1.0)
    f = np.array([-1.0, 0.0])
    fl = affine_flow(q, f, 0.5)
    oracle = trapezoid_flow_offset(1.0, 1.0, f, 0.5)
    assert np.abs(fl.offset - oracle).max() < 1e-6


def test_affine_flow_matches_fine_rk4():
    rng = np.random.default_rng(51)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        q = random_rate_matrix(rng, d, 2.0)
        f = -np.abs(rng.uniform(0.0, 1.0, d))
        u0 = rng.standard_normal(d)
        h = float(rng.uniform(0.2, 1.0))
        direct = affine_flow(q, f, h).apply(u0)
        oracle = rk4_affine(q, f, u0, h, 10_000)
        assert np.abs(direct - oracle).max() < 1e-8


def test_affine_flow_euler_product_mode_matches_plain_product():
    q = two_state_generator(1.5, 0.7)
    fl = affine_flow(q, np.zeros(2), 0.4, k=10)
    assert np.abs(fl.matrix - euler_product_exp(q, 0.4, 10)).max() < 1e-14


def test_affine_flow_dimension_mismatch():
    with pytest.raises(ValueError):
        affine_flow(np.zeros((3, 3)), np.zeros(2), 1.0)


def test_affine_flow_apply_checks_length():
    fl = affine_flow(np.zeros((2, 2)), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        fl.apply(np.zeros(3))


# ------------------------------------------------------------ banded flows


@pytest.mark.parametrize("build, t", [(build_laplacian, 0.01), (build_drift, 0.3),
                                      (build_laplacian, 0.0)])
def test_cut_exponential_lies_within_its_budget_of_scipy(build, t):
    q = build(120, 0.1)
    budget = 2**-53 * t
    cut = _cut_exp(_band_diagonals(q[None], 1)[:, 0], t, budget, 59)
    band = _block_matrices(_row_blocks(cut[:, None], 16), 1, 120)[0]
    exact = scipy.linalg.expm(t * q)
    assert (band >= 0).all()
    # mat_exp itself lies 1e-14 from scipy here, in the same norm.
    assert np.abs(band - exact).sum(axis=1).max() <= budget + 5e-14
    assert np.abs(band.sum(axis=1) - 1.0).max() <= 1e-14
    assert cut.shape[0] < 2 * 120 - 1


def test_cut_exponential_finishes_dense_once_its_band_is_too_wide():
    lap = build_laplacian(120, 0.1)
    q = _band_diagonals(lap[None], 1)[:, 0]
    dense = _cut_exp(q, 0.1, 2**-53, 14)
    assert dense.shape == (120, 120)
    assert np.abs(dense - scipy.linalg.expm(0.1 * lap)).max() < 1e-14
    assert (dense >= 0).all()
    assert np.abs(dense.sum(axis=1) - 1.0).max() <= 1e-14
    assert _cut_exp(q, 0.1, 2**-53, 59).shape[0] > 2 * 14 + 1


def test_cut_exponential_names_t_when_the_scaled_matrix_overflows():
    q = _band_diagonals(build_drift(4, 1e-150)[None], 1)[:, 0]
    with pytest.raises(ValueError, match="t=1e\\+200"):
        _cut_exp(q, 1e200, 1.0, 1)


# Exponentials that overflow a double, each by a different path: the
# diagonal matrix keeps its band through every squaring, the tridiagonal one
# passes the band limit in its series (see _STAGES), the all-ones one is
# dense from the start.
_OVERFLOWING = [("diagonal-101", lambda: np.diag(np.linspace(0.0, 1000.0, 101)), 2.0),
                ("tridiagonal-101", lambda: -build_laplacian(101, 0.1), 1e3),
                ("dense-5", lambda: np.ones((5, 5)), 1e3)]


@pytest.mark.parametrize("build, t", [case[1:] for case in _OVERFLOWING],
                         ids=[case[0] for case in _OVERFLOWING])
def test_an_overflowing_exponential_names_t_and_warns_nothing(build, t):
    a = build()
    banded = _half_bandwidth(a, _widest_band(a.shape[0])) is not None
    assert banded == (a.shape[0] == 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"t={t:g} with non-finite entries"):
            mat_exp(a, t)


def test_an_overflowing_euler_product_names_h_and_k_and_warns_nothing():
    # (I + 10 * ones(3))^1000 has entries near 31^1000.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="h=10000, k=1000 with non-finite entries"):
            euler_product_exp(np.ones((3, 3)), 1e4, 1000)


def test_a_norm_near_the_largest_double_scales_without_overflow():
    # The norm 8e307 takes s = 1024 squarings; 2^1024 is no double, 2^-1024 is.
    q = np.array([[-4e307, 4e307], [0.0, 0.0]])
    assert np.array_equal(mat_exp(q, 1.0), [[0.0, 1.0], [0.0, 1.0]])


def test_an_empty_matrix_is_refused_under_the_callers_name():
    with pytest.raises(ValueError, match="an exponent matrix of square shape with at least one"):
        mat_exp(np.zeros((0, 0)))


@pytest.mark.parametrize("d, w, rows", [(37, 3, 8), (40, 0, 8), (16, 5, 16), (5, 2, 16)])
def test_row_blocks_hold_the_matrices_and_multiply_like_them(d, w, rows):
    rng = np.random.default_rng(d + w)
    mats = rng.standard_normal((3, d, d))
    far = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) > w
    mats[:, far] = 0.0
    blocks = _row_blocks(_band_diagonals(mats, w), rows)
    assert blocks.shape == (-(-d // rows), 3 * rows, rows + 2 * w)
    assert np.array_equal(_block_matrices(blocks, 3, d), mats)
    x = rng.standard_normal((d, 2))
    out = _blocked_apply(blocks, 3, x, np.empty((3 * d, 2)))
    assert np.allclose(out, mats.reshape(-1, d) @ x, rtol=0, atol=1e-13)
