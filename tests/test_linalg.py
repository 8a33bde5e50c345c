"""Exponentials, Euler products and affine flows against independent oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qenvelope import (
    affine_flow,
    build_drift,
    build_laplacian,
    euler_product_exp,
    mat_exp,
    op_norm_inf,
)
from qenvelope.linalg import _EXP_SCALE_THRESHOLD, _EXP_SERIES_ORDER, _half_bandwidth

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


def test_mat_exp_refuses_a_scaled_matrix_that_overflows():
    q = np.array([[-1e300, 1e300], [0.0, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        mat_exp(q, 1e10)


def test_an_infinite_horizon_is_rejected():
    q = build_drift(5, 1.0)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        mat_exp(q, np.inf)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        euler_product_exp(q, np.inf, 3)


def dense_horner_exp(a, t):
    """Scaling and squaring with a fresh dense product for every Horner step
    and every squaring: the series as written before it became band-aware."""
    b = t * np.asarray(a, dtype=float)
    norm = op_norm_inf(b)
    squarings = 0
    if norm > _EXP_SCALE_THRESHOLD:
        squarings = int(np.ceil(np.log2(norm / _EXP_SCALE_THRESHOLD)))
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


def _pentadiagonal_rate_matrix(d):
    off = np.random.default_rng(61).uniform(0.0, 50.0, (d, d))
    rows, cols = np.indices((d, d))
    off[np.abs(rows - cols) > 2] = 0.0
    return off_to_rate(off)


# (name, matrix builder, half-bandwidth the series sees; None = dense path)
_BANDED = [
    ("laplacian-101", lambda: build_laplacian(101, 0.1), 1),
    ("drift-101", lambda: build_drift(101, 0.1), 1),
    ("laplacian-401", lambda: build_laplacian(401, 0.025), 1),
    ("drift-401", lambda: build_drift(401, 0.025), 1),
    ("unpenalized-augmented-401",
     lambda: _augmented(build_laplacian(401, 0.025), np.zeros(401)), 1),
    ("pentadiagonal-101", lambda: _pentadiagonal_rate_matrix(101), 2),
    ("diagonal-101", lambda: np.diag(-np.linspace(0.0, 300.0, 101)), 0),
    ("zero-101", lambda: np.zeros((101, 101)), 0),
    ("one-state", lambda: np.array([[-7.0]]), None),
]


@pytest.mark.parametrize("t", [2.0**-10, 2.0**-6, 1.0])
@pytest.mark.parametrize("build,width", [case[1:] for case in _BANDED],
                         ids=[case[0] for case in _BANDED])
def test_banded_series_matches_scipy_and_the_dense_series(build, width, t):
    a = build()
    assert _half_bandwidth(t * a) == width
    ours = mat_exp(a, t)
    ref = scipy.linalg.expm(t * a)
    assert np.abs(ours - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())
    assert np.abs(ours - dense_horner_exp(a, t)).max() < 1e-14


def row_shifted_exp(a, t):
    """mat_exp with the banded series as it was first written: each Horner
    product adds the nonzero diagonals of the scaled matrix one at a time,
    in increasing order, as row-shifted multiply-adds into a zeroed block."""
    b = t * np.asarray(a, dtype=float)
    norm = op_norm_inf(b)
    squarings = 0
    if norm > _EXP_SCALE_THRESHOLD:
        squarings = int(np.ceil(np.log2(norm / _EXP_SCALE_THRESHOLD)))
        b /= 2.0**squarings
    d, w = b.shape[0], _half_bandwidth(b)
    diagonals = [(k, np.diagonal(b, k).copy()) for k in range(-w, w + 1)]
    diagonals = [(k, diagonal) for k, diagonal in diagonals if diagonal.any()]
    result, work, scratch = np.eye(d), np.empty((d, d)), np.empty((d, d))
    for order in range(_EXP_SERIES_ORDER, 0, -1):
        work.fill(0.0)
        for k, diagonal in diagonals:
            n = d - abs(k)
            rows, source = (slice(0, n), slice(k, d)) if k >= 0 else (slice(-k, d), slice(0, n))
            np.multiply(diagonal[:, None], result[source], out=scratch[:n])
            work[rows] += scratch[:n]
        work /= order
        work.reshape(-1)[::d + 1] += 1.0
        result, work = work, result
    for _ in range(squarings):
        np.matmul(result, result, out=work)
        result, work = work, result
    return result


_BANDED_ONLY = [case for case in _BANDED if case[2] is not None]


@pytest.mark.parametrize("t", [2.0**-10, 2.0**-6, 1.0])
@pytest.mark.parametrize("build", [case[1] for case in _BANDED_ONLY],
                         ids=[case[0] for case in _BANDED_ONLY])
def test_banded_series_is_bit_identical_to_the_row_shifted_loop(build, t):
    a = build()
    assert np.array_equal(mat_exp(a, t), row_shifted_exp(a, t))


def _penalized_augmented():
    fam = random_family(np.random.default_rng(62), 120, convex=True, scale=20.0)
    return _augmented(fam.matrices[1], fam.penalties[1])


@pytest.mark.parametrize("build", [lambda: jump_diffusion(201, 0.05), _penalized_augmented],
                         ids=["jump-diffusion", "penalized-augmented"])
@pytest.mark.parametrize("t", [2.0**-10, 1.0])
def test_dense_series_is_bit_identical_to_the_plain_loop(build, t):
    matrix = build()
    assert _half_bandwidth(matrix) is None
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
