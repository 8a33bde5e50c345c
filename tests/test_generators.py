"""Rate-matrix validation, difference builders, families, and the maximum principle."""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import qenvelope
from qenvelope import (
    GeneratorFamily,
    InvalidGeneratorError,
    InvalidRateMatrixError,
    StateGrid,
    affine_flow,
    apply_q_operator,
    build_drift,
    build_laplacian,
    check_pmp,
    interval_generator,
    payoff_butterfly,
    price_bounds,
    rate_matrix_violations,
    read_matrix_file,
    read_vector_file,
    validate_rate_matrix,
    write_matrix_file,
)

from qenvelope.cli import _stiffness_warning
from _helpers import dense_flow_stack, grid_family, jump_diffusion, off_to_rate, penta_family, \
    pentadiagonal, random_family, random_rate_matrix


# ---------------------------------------------------------------- validation


def test_validate_accepts_two_state_generator():
    q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    assert np.array_equal(validate_rate_matrix(q), q)


def test_validate_reports_all_three_conditions():
    # positive diagonal, negative off-diagonal, and a broken row sum at once
    m = np.array([[1.0, -1.0], [0.5, 0.0]])
    violations = rate_matrix_violations(m)
    kinds = {v.condition for v in violations}
    assert kinds == {"diagonal", "off_diagonal", "row_sum"}
    diag = next(v for v in violations if v.condition == "diagonal")
    assert (diag.row, diag.col) == (0, 0) and diag.magnitude == 1.0
    off = next(v for v in violations if v.condition == "off_diagonal")
    assert (off.row, off.col) == (0, 1) and off.magnitude == 1.0
    rowsum = next(v for v in violations if v.condition == "row_sum")
    assert rowsum.row == 1 and rowsum.magnitude == 0.5
    assert str(rowsum) == "row 1 sums to magnitude 0.5 instead of 0"


def test_validate_raises_with_violation_payload():
    with pytest.raises(InvalidRateMatrixError) as excinfo:
        validate_rate_matrix([[1.0, -1.0], [0.0, 0.0]])
    assert len(excinfo.value.violations) >= 2
    assert "diagonal" in str(excinfo.value)


def test_validate_tolerance_is_adjustable():
    almost = np.array([[-1.0, 1.0 + 5e-10], [1.0, -1.0]])
    assert rate_matrix_violations(almost, tol=1e-8) == []
    assert rate_matrix_violations(almost, tol=1e-12) != []


@pytest.mark.parametrize("d", [601, 801])
def test_stiff_dense_families_are_not_refused_over_round_off(d):
    # |q_ii| is about 2 / delta^2 = 7200 and 12800: the row sums round off
    # to 2.2e-12 and 2.5e-12, within 1e-12 times the rows' absolute sums.
    delta = 10.0 / (d - 1)
    fam = interval_generator(jump_diffusion(d, delta), build_drift(d, delta), -1.0, 1.0)
    assert fam.member_violations() == {}


def test_a_unit_scale_row_off_by_1e9_is_refused():
    off = np.array([[-1.0, 1.0], [0.5, -0.5 + 1e-9]])
    violations = rate_matrix_violations(off)
    assert [(v.condition, v.row) for v in violations] == [("row_sum", 1)]
    with pytest.raises(InvalidGeneratorError, match="row 1 sums to magnitude 1e-09"):
        interval_generator(off, np.zeros((2, 2)), 0.0, 1.0)


_BAD_TOLERANCES = [np.nan, np.inf, -1.0, "x", None]


@pytest.mark.parametrize("tol", _BAD_TOLERANCES)
def test_rate_checks_refuse_a_tolerance_that_is_no_finite_nonnegative_real(tol):
    bad = np.array([[1.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="tolerance"):
        rate_matrix_violations(bad, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        validate_rate_matrix(bad, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        GeneratorFamily((bad,)).member_violations(tol=tol)


def test_a_zero_tolerance_checks_the_rate_conditions_exactly():
    almost = np.array([[-1.0, 1.0 + 2.0**-40], [1.0, -1.0]])
    assert [v.condition for v in rate_matrix_violations(almost, tol=0)] == ["row_sum"]
    assert rate_matrix_violations(build_laplacian(5, 1.0), tol=0) == []


def test_full_grid_laplacian_is_valid():
    assert rate_matrix_violations(build_laplacian(101, 0.1)) == []
    assert rate_matrix_violations(build_drift(101, 0.1)) == []


# ------------------------------------------------------------------ builders


def test_laplacian_small_grid_entries():
    expected = np.array([
        [-1.0, 1.0, 0.0],
        [1.0, -2.0, 1.0],
        [0.0, 1.0, -1.0],
    ])
    assert np.array_equal(build_laplacian(3, 1.0), expected)


def test_laplacian_scaling_two_states():
    # delta = 0.5 puts a factor 4 in front of the two-state stencil
    expected = 4.0 * np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(build_laplacian(2, 0.5), expected, atol=0, rtol=0)


def test_drift_small_grid_entries():
    expected = np.array([
        [-1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0],
        [0.0, 0.0, 0.0],
    ])
    assert np.array_equal(build_drift(3, 1.0), expected)


def test_builders_reject_degenerate_sizes():
    with pytest.raises(ValueError):
        build_laplacian(1, 0.1)
    with pytest.raises(ValueError):
        build_drift(5, 0.0)


# A spacing whose square overflows or underflows would divide the Laplacian
# by inf or 0; a Decimal is no numbers.Real.
_BAD_GRIDS = [(2.5, 1.0), ("3", 1.0), (3, np.inf), (3, 1e200), (3, 1e-200), (3, Decimal("0.5"))]


@pytest.mark.parametrize("build", [build_laplacian, build_drift])
@pytest.mark.parametrize("d, delta", _BAD_GRIDS)
def test_builders_reject_a_fractional_count_or_a_spacing_without_a_finite_square(build, d, delta):
    with pytest.raises(ValueError, match="state count|grid spacing"):
        build(d, delta)


@pytest.mark.parametrize("dim, delta", _BAD_GRIDS)
def test_state_grid_rejects_what_the_builders_reject(dim, delta):
    with pytest.raises(ValueError, match="state count|grid spacing"):
        StateGrid(dim, delta)


def test_state_grid_stores_an_integral_dimension_as_an_int():
    grid = StateGrid(3.0, 0.5)
    assert type(grid.dim) is int and len(grid.points) == 3


def test_state_grid_points_span_the_interval():
    grid = StateGrid(101, 0.1)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == pytest.approx(10.0)
    assert len(grid.points) == 101


# ------------------------------------------------------------------ families


def test_family_defaults_to_sublinear():
    fam = random_family(np.random.default_rng(0), 4, members=3)
    assert fam.is_sublinear
    assert fam.n_members == 3
    assert fam.direction == "upper"


def test_family_rejects_positive_penalty():
    q = off_to_rate(np.ones((2, 2)))
    with pytest.raises(ValueError):
        GeneratorFamily((q, q), (np.zeros(2), np.array([0.1, 0.0])))


def test_family_requires_one_exactly_zero_penalty():
    q = off_to_rate(np.ones((2, 2)))
    with pytest.raises(ValueError):
        GeneratorFamily((q, q), (np.array([-0.1, 0.0]), np.array([0.0, -0.2])))
    fam = GeneratorFamily((q, q), (np.zeros(2), np.array([0.0, -0.2])))
    assert not fam.is_sublinear


def test_family_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        GeneratorFamily((np.zeros((2, 2)), np.zeros((3, 3))))


def test_family_refuses_an_empty_member_by_name():
    with pytest.raises(ValueError, match="a family member of square shape with at least one"):
        GeneratorFamily((np.zeros((0, 0)),))


@pytest.mark.parametrize("matrices, penalties, direction, message", [
    ((), None, "upper", "at least one member"),
    ((np.zeros((2, 2)),) * 2, (np.zeros(2),), "upper", "2 matrices but 1 penalties"),
    ((np.zeros((2, 2)),), None, "up", "direction must be 'upper' or 'lower', got 'up'"),
])
def test_family_refuses_arguments_it_cannot_build_from(matrices, penalties, direction, message):
    with pytest.raises(ValueError, match=message):
        GeneratorFamily(matrices, penalties, direction)


def test_family_permits_invalid_members_for_diagnostics():
    # deliberately broken member; construction must not insist on validity
    broken = np.array([[1.0, -1.0], [0.0, 0.0]])
    fam = GeneratorFamily((broken,))
    assert fam.member_violations()[0]


def test_flipped_swaps_direction_only():
    fam = random_family(np.random.default_rng(1), 3, members=2)
    low = fam.flipped()
    assert low.direction == "lower"
    assert all(np.array_equal(a, b) for a, b in zip(fam.matrices, low.matrices))


@pytest.mark.parametrize("d", [4, 201])
def test_flipped_twin_shares_members_and_flows(d):
    # At d = 201 the pentadiagonal members are kept as diagonals only, and
    # the stack behind ``matrices`` is built when first read.
    rng = np.random.default_rng(2)
    if d == 4:
        mats = (random_rate_matrix(rng, d), random_rate_matrix(rng, d))
    else:
        mats = (pentadiagonal(d, 0.05), build_drift(d, 0.05))
    pens = (np.zeros(d), -rng.uniform(0.0, 0.5, d))
    fam = GeneratorFamily(mats, pens)
    assert (fam._members.diagonals is None) == (d == 4)
    low = fam.flipped()
    held = fam.matrices + fam.penalties
    for given, member in zip(mats + pens, held):
        assert member.tobytes() == given.tobytes()
        assert not member.flags.writeable
    assert all(a is b for a, b in zip(held, fam.matrices + fam.penalties))
    assert all(a is b for a, b in zip(held, low.matrices + low.penalties))
    assert low.flows(0.3) is fam.flows(0.3)
    assert low.flows(0.2, k=4) is fam.flows(0.2, k=4)
    assert low.flipped().direction == "upper"


def test_members_are_read_only_copies_of_the_inputs():
    mats = [random_rate_matrix(np.random.default_rng(3), 4) for _ in range(3)]
    fam = GeneratorFamily(mats)
    for given, held in zip(mats, fam.matrices):
        assert np.array_equal(given, held)
        assert not np.shares_memory(given, held)
        assert not held.flags.writeable
    assert all(not p.flags.writeable and not p.any() for p in fam.penalties)


def test_flow_cache_holds_one_copy_of_each_flow():
    d, m, h = 6, 3, 0.25
    fam = random_family(np.random.default_rng(4), d, members=m, convex=True)
    flows = fam.flows(h)
    held = sum(fl.matrix.nbytes + fl.offset.nbytes
               for cached in fam._flow_cache.values() for fl in cached)
    assert held == m * (d * d + d) * 8
    assert flows.matrix.nbytes + flows.offset.nbytes == held
    for fl, q, f in zip(flows, fam.matrices, fam.penalties):
        assert np.shares_memory(fl.matrix, flows.matrix)
        assert np.shares_memory(fl.offset, flows.offset)
        assert not fl.matrix.flags.writeable
        exact = affine_flow(q, f, h)
        assert np.array_equal(fl.matrix, exact.matrix)
        assert np.array_equal(fl.offset, exact.offset)


def test_flow_cache_flushes_subnormal_entries_and_keeps_the_rest():
    # A penalty keeps the dense flows; below d = 150, where the members keep
    # no diagonals, no flow of these generators holds a subnormal entry.
    d, delta, h = 401, 0.025, 1 / 1024
    lap = build_laplacian(d, delta)
    fam = GeneratorFamily((0.5 * lap, 1.5 * lap), penalties=(np.zeros(d), np.full(d, -1.0)))
    flows = fam.flows(h)
    assert flows.blocks is None
    tiny = np.finfo(float).tiny

    def subnormal(x):
        return (x != 0) & (np.abs(x) < tiny)

    assert not subnormal(flows.matrix).any()
    flushed = 0
    for fl, q, f in zip(flows, fam.matrices, fam.penalties):
        exact = affine_flow(q, f, h).matrix
        gone = subnormal(exact)
        flushed += np.count_nonzero(gone)
        assert np.array_equal(fl.matrix[~gone], exact[~gone])
        assert not fl.matrix[gone].any()
    assert flushed > 0


@pytest.mark.parametrize("kind", ["drift", "vol"])
def test_banded_flows_keep_nonnegativity_row_sums_and_the_budget(kind):
    d, h = 401, 1 / 1024
    fam = grid_family(kind, d, 0.025)
    flows = fam.flows(h)
    assert flows.blocks is not None and "matrix" not in vars(flows)
    dense = dense_flow_stack(fam, h)
    band = flows.matrix
    assert band.shape == dense.shape and not band.flags.writeable
    assert (band >= 0).all()
    # The flows' row sums are e^{hq}'s, 1, to round-off; the dense flow's own
    # row sums are up to 2e-15 off 1 here.
    assert np.abs(band.sum(axis=1) - 1.0).max() <= 1e-15
    rows, cols = np.indices(dense.shape)
    offset = np.abs(rows % d - cols)
    outside = offset > offset[band != 0].max()
    assert 0 < np.count_nonzero(outside) and np.where(outside, dense, 0.0).max() > 0
    assert np.where(outside, dense, 0.0).sum(axis=1).max() <= 2**-53 * h
    assert np.abs(band - dense).sum(axis=1).max() <= 2**-53 * h + 1e-14
    rng = np.random.default_rng(7)
    for u in (rng.standard_normal(d), rng.standard_normal((d, 3))):
        assert np.allclose(flows.values(u), band @ u, rtol=0, atol=1e-15 * np.abs(u).max())
    for fl, block in zip(flows, band.reshape(fam.n_members, d, d)):
        assert np.shares_memory(fl.matrix, band) and np.array_equal(fl.matrix, block)
        assert not fl.offset.any()


def test_banded_flows_at_d1601_hold_no_dense_stack():
    d, h = 1601, 2**-10
    for kind in ("drift", "vol"):
        fam = grid_family(kind, d, 0.00625)
        tracemalloc.start()
        flows = fam.flows(h)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # Dense, one member's flow is 20.5 MB and the (m*d, d) stack 41 MB.
        assert peak < 20e6 and "matrix" not in vars(flows)
        assert flows.blocks.nbytes < 5e6
        rng = np.random.default_rng(8)
        u = rng.standard_normal((d, 2))
        assert flows.values(u).shape == (2 * d, 2)


def test_penalised_and_euler_product_flows_stay_dense():
    # Each flow is affine_flow's, with its subnormal entries set to zero;
    # the jump family is the dense one the audit benchmark prices.  A fill
    # expands a banded family's members one at a time and keeps no stack.
    # Below d = 150 the drift family keeps its members dense, and its exact
    # flows come from augmented exponentials that start banded.
    d, h = 401, 1 / 1024
    fam = grid_family("drift", d, 0.025)
    penalised = GeneratorFamily(grid_family("drift", d, 0.025).matrices,
                                penalties=(np.zeros(d), np.full(d, -0.5)))
    jump = interval_generator(jump_diffusion(201, 0.05), build_drift(201, 0.05), -1.0, 1.0)
    small = [grid_family("drift", n, 10.0 / (n - 1)) for n in (101, 149)]
    tiny = np.finfo(float).tiny
    for family, k in ((fam, 10), (penalised, None), (jump, None), (small[0], None),
                      (small[1], None)):
        flows = family.flows(h, k)
        assert flows.blocks is None
        if family.dim == d:
            assert family._members.diagonals is not None
            assert "matrix" not in vars(family._members)
        for fl, q, f in zip(flows, family.matrices, family.penalties):
            made = affine_flow(q, f, h, k)
            for held, exact in ((fl.matrix, made.matrix), (fl.offset, made.offset)):
                assert np.array_equal(held, np.where(np.abs(exact) < tiny, 0.0, exact))


def test_long_steps_fall_back_to_dense_flows():
    d, h = 401, 0.5
    fam = grid_family("vol", d, 0.025)
    flows = fam.flows(h)
    assert flows.blocks is None and flows.matrix.shape == (2 * d, d)
    band = flows.matrix
    assert not ((band != 0) & (np.abs(band) < np.finfo(float).tiny)).any()
    # Entry by entry: over a row, the round-off of either exponential adds up
    # to ~1e-13 against scipy here, far above the cut.
    assert np.abs(band - dense_flow_stack(fam, h)).max() <= 2**-53 * h + 1e-14


def test_a_long_step_fills_each_flow_once(monkeypatch):
    # The banded exponential finishes a flow too wide for the band dense
    # itself, so no member's flow is filled a second time.
    calls = []
    cut_exp = qenvelope.generators._cut_exp

    def counting(*args):
        calls.append(args[1])
        return cut_exp(*args)

    def refused(*args, **kwargs):
        raise AssertionError("a banded family's flow took the dense exponential")

    monkeypatch.setattr(qenvelope.generators, "_cut_exp", counting)
    monkeypatch.setattr(qenvelope.generators, "_exp", refused)
    monkeypatch.setattr(qenvelope.linalg, "mat_exp", refused)
    d = 401
    fam = grid_family("drift", d, 0.025)
    flows = fam.flows(0.5)
    assert flows.blocks is None and flows.matrix.shape == (2 * d, d)
    assert calls == [0.5] * fam.n_members


# --------------------------------------------------------- interval families


def test_interval_generator_stores_both_endpoints():
    d, delta = 101, 0.1
    a, b = build_laplacian(d, delta), build_drift(d, delta)
    fam = interval_generator(a, b, -1.0, 1.0)
    assert fam.n_members == 2
    assert np.allclose(fam.matrices[0], a - b, atol=0, rtol=0)
    assert np.allclose(fam.matrices[1], a + b, atol=0, rtol=0)
    assert fam.is_sublinear
    assert fam.member_violations() == {}


def test_interval_generator_volatility_band():
    d, delta = 101, 0.1
    a = build_laplacian(d, delta)
    fam = interval_generator(np.zeros((d, d)), a, 0.5, 1.5)
    assert np.allclose(fam.matrices[0], 0.5 * a, atol=0, rtol=0)
    assert np.allclose(fam.matrices[1], 1.5 * a, atol=0, rtol=0)


def test_interval_generator_zero_width_interval():
    a, b = build_laplacian(5, 1.0), build_drift(5, 1.0)
    fam = interval_generator(a, b, 0.5, 0.5)
    assert fam.n_members == 2
    assert np.array_equal(fam.matrices[0], fam.matrices[1])


def test_interval_generator_rejects_invalid_endpoint():
    # a spread large enough to push the low endpoint's diagonal positive
    a, b = build_laplacian(5, 1.0), build_drift(5, 1.0)
    with pytest.raises(InvalidGeneratorError) as excinfo:
        interval_generator(a, b, -3.0, 1.0)
    assert "lambda=-3" in str(excinfo.value)


def test_interval_generator_counts_the_violations_it_leaves_out():
    # lambda=-3 gives -2 times the Laplacian: 5 positive diagonal entries and
    # 8 negative off-diagonal ones, of which the message shows five
    a = build_laplacian(5, 1.0)
    with pytest.raises(InvalidGeneratorError) as excinfo:
        interval_generator(a, a, -3.0, 0.0)
    assert "(+8 more)" in str(excinfo.value)


@pytest.mark.parametrize("low, high, named", [
    (-1e308, 1.0, "lambda=-1e+308 gives an invalid rate matrix: non-finite entries"),
    (-1.0, 1e308, " lambda=1e+308 gives an invalid rate matrix: non-finite entries"),
    # both endpoints fail; the low one is named, as it is checked first
    (-50.0, 1e308, "lambda=-50 gives an invalid rate matrix: positive diagonal"),
], ids=["low-overflows", "high-overflows", "low-fails-first"])
def test_interval_generator_names_the_first_endpoint_that_overflows_or_fails(low, high, named):
    # 1e308 times the drift's entries of 10 overflows; the suite turns
    # numpy's overflow warning into an error, so none may be emitted.
    d, delta = 101, 0.1
    with pytest.raises(InvalidGeneratorError) as excinfo:
        interval_generator(build_laplacian(d, delta), build_drift(d, delta), low, high)
    assert named in str(excinfo.value)


def test_interval_generator_refuses_matrices_of_two_shapes():
    with pytest.raises(ValueError, match=r"q0 has shape \(3, 3\) but q has shape \(4, 4\)"):
        interval_generator(build_laplacian(3, 1.0), build_laplacian(4, 1.0), 0.0, 1.0)


def test_interval_generator_rejects_empty_interval():
    a = build_laplacian(3, 1.0)
    with pytest.raises(ValueError):
        interval_generator(a, a, 1.0, 0.0)


@pytest.mark.parametrize("low, high, name", [
    (-1.0, np.inf, "lambda_high"),
    (-np.inf, 1.0, "lambda_low"),
    (np.nan, 1.0, "lambda_low"),
    (None, 1.0, "lambda_low"),
    ("a", 1.0, "lambda_low"),
    (-1.0, None, "lambda_high"),
    (-1.0, "a", "lambda_high"),
])
def test_interval_generator_refuses_a_non_finite_endpoint_by_name(low, high, name):
    a, b = build_laplacian(5, 1.0), build_drift(5, 1.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        interval_generator(a, b, low, high)


# ------------------------------------------------------------ operator apply


def test_apply_constant_vector_vanishes():
    fam = random_family(np.random.default_rng(2), 5, members=3)
    out = apply_q_operator(fam, np.full(5, 3.7))
    assert np.abs(out).max() < 1e-12


def test_apply_two_member_sign_family():
    # members {+b, -b} acting on (0, 1): b u = (1, 0), -b u = (-1, 0)
    b = np.array([[-1.0, 1.0], [0.0, 0.0]])
    fam = GeneratorFamily((b, -b))
    out, pick = apply_q_operator(fam, np.array([0.0, 1.0]), return_argmax=True)
    assert np.array_equal(out, np.array([1.0, 0.0]))
    assert pick[0] == 0  # +b attains the first component
    assert pick[1] == 0  # tie resolved to the lowest index


def test_apply_lower_direction_takes_minimum():
    b = np.array([[-1.0, 1.0], [0.0, 0.0]])
    fam = GeneratorFamily((b, -b), direction="lower")
    assert np.array_equal(apply_q_operator(fam, np.array([0.0, 1.0])), np.array([-1.0, 0.0]))


def test_apply_one_member_is_plain_matvec_plus_penalty():
    rng = np.random.default_rng(3)
    q = random_rate_matrix(rng, 4)
    f = -np.zeros(4)
    fam = GeneratorFamily((q,), (f,))
    u = rng.standard_normal(4)
    assert np.array_equal(apply_q_operator(fam, u), q @ u + f)


def test_apply_penalties_shift_members_down():
    q = off_to_rate(np.ones((3, 3)))
    pen = np.array([0.0, -0.5, -0.1])
    fam = GeneratorFamily((q, q), (np.zeros(3), pen))
    u = np.array([1.0, -1.0, 0.5])
    # identical matrices: the unpenalised member wins everywhere
    out, pick = apply_q_operator(fam, u, return_argmax=True)
    assert np.array_equal(out, q @ u)
    assert np.array_equal(pick, np.zeros(3, dtype=int))


def test_apply_is_translation_invariant():
    rng = np.random.default_rng(4)
    fam = random_family(rng, 6, members=3, convex=True)
    u = rng.standard_normal(6)
    shifted = apply_q_operator(fam, u + 2.25)
    assert np.abs(shifted - apply_q_operator(fam, u)).max() < 1e-10


def test_apply_is_convex_across_inputs():
    rng = np.random.default_rng(5)
    fam = random_family(rng, 5, members=3, convex=True)
    for _ in range(50):
        u, v = rng.standard_normal((2, 5))
        lam = rng.uniform()
        mixed = apply_q_operator(fam, lam * u + (1 - lam) * v)
        bound = lam * apply_q_operator(fam, u) + (1 - lam) * apply_q_operator(fam, v)
        assert (mixed <= bound + 1e-12).all()


def test_apply_positive_homogeneity_sublinear():
    rng = np.random.default_rng(6)
    fam = random_family(rng, 5, members=2)
    u = rng.standard_normal(5)
    for c in (0.0, 0.5, 2.0):
        assert np.abs(apply_q_operator(fam, c * u) - c * apply_q_operator(fam, u)).max() < 1e-12


def test_apply_rejects_wrong_length():
    fam = random_family(np.random.default_rng(7), 4)
    with pytest.raises(ValueError):
        apply_q_operator(fam, np.zeros(5))


@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_apply_acts_on_each_column_of_a_block(direction):
    rng = np.random.default_rng(12)
    fam = random_family(rng, 5, members=3, convex=True, direction=direction)
    block = rng.standard_normal((5, 4))
    best, pick = apply_q_operator(fam, block, return_argmax=True)
    for j in range(4):
        col_best, col_pick = apply_q_operator(fam, block[:, j], return_argmax=True)
        assert np.allclose(best[:, j], col_best, rtol=0, atol=1e-13)
        assert np.array_equal(pick[:, j], col_pick)


def test_apply_rejects_a_three_dimensional_block():
    fam = random_family(np.random.default_rng(13), 4)
    with pytest.raises(ValueError):
        apply_q_operator(fam, np.zeros((4, 2, 2)))


# ------------------------------------------------------------- banded apply


def _dense_reference(fam, u):
    """The family operator by hand: the stack product plus penalties, then
    the extremum and its first attaining member in numpy."""
    values = fam._members.matrix @ u + (fam._members.offset if u.ndim == 1
                                        else fam._members.offset[:, None])
    blocks = values.reshape(fam.n_members, fam.dim, *u.shape[1:])
    if fam.direction == "upper":
        return blocks.max(axis=0), blocks.argmax(axis=0), blocks
    return blocks.min(axis=0), blocks.argmin(axis=0), blocks


def _banded_family(kind, d):
    delta = 10.0 / (d - 1)
    if kind == "drift":
        return interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    if kind == "vol":
        return interval_generator(np.zeros((d, d)), build_laplacian(d, delta), 0.5, 1.5)
    return penta_family(d)


_BANDED_CASES = [("drift", 201), ("drift", 401), ("vol", 201), ("vol", 401), ("penta", 401)]


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("kind, d", _BANDED_CASES)
def test_banded_apply_matches_the_dense_reference(kind, d, columns, direction):
    fam = _banded_family(kind, d)
    fam = fam if direction == fam.direction else fam.flipped()
    assert fam._members.diagonals is not None
    shape = (d,) if columns is None else (d, columns)
    u = np.random.default_rng(d + 7).standard_normal(shape)
    best, pick = apply_q_operator(fam, u, return_argmax=True)
    ref_best, ref_pick, blocks = _dense_reference(fam, u)
    row_sum = float(np.abs(fam._members.matrix).sum(axis=1).max())
    assert np.abs(best - ref_best).max() <= 1e-12 * np.abs(u).max() * row_sum
    assert np.array_equal(apply_q_operator(fam, u), best)
    if columns is not None:
        for j in range(columns):
            assert np.array_equal(apply_q_operator(fam, u[:, j]), best[:, j])
    separated = np.abs(blocks[0] - blocks[1]) > 1e-9
    assert separated.mean() > 0.5
    assert np.array_equal(pick[separated], ref_pick[separated])


@pytest.mark.parametrize("kind, d", _BANDED_CASES)
def test_a_square_block_gives_the_vector_applies_column_by_column(kind, d):
    # The public block contract: any (d, p) block, even a square one.
    fam = _banded_family(kind, d)
    u = np.random.default_rng(d + 11).standard_normal((d, d))
    for member in (fam, fam.flipped()):
        block = apply_q_operator(member, u)
        for j in range(d):
            assert np.array_equal(block[:, j], apply_q_operator(member, u[:, j]))


@pytest.mark.parametrize("kind, d", [("drift", 101), ("penta", 181)])
def test_a_square_block_on_the_member_stack_gives_the_vector_applies_to_round_off(kind, d):
    # The dense stack's product may sum a block's columns in another order
    # than a vector's, so its columns agree to round-off; the call repeats bitwise.
    fam = _banded_family(kind, d)
    assert fam._members.diagonals is None
    u = np.random.default_rng(d + 11).standard_normal((d, d))
    row_sum = float(np.abs(fam._members.matrix).sum(axis=1).max())
    for member in (fam, fam.flipped()):
        block = apply_q_operator(member, u)
        assert np.array_equal(apply_q_operator(member, u), block)
        columns = np.column_stack([apply_q_operator(member, u[:, j]) for j in range(d)])
        assert np.abs(block - columns).max() <= 1e-12 * np.abs(u).max() * row_sum


def test_banded_apply_adds_the_penalties():
    fam = _banded_family("penta", 401)
    assert not fam.is_sublinear
    u = np.zeros(401)
    # q @ 0 = 0, so the unpenalised member attains the supremum and the
    # penalised one the infimum.
    assert np.array_equal(apply_q_operator(fam, u), u)
    assert np.array_equal(apply_q_operator(fam.flipped(), u), fam.penalties[1])


def test_the_path_rule_keeps_small_grids_on_the_stack_product():
    assert _banded_family("drift", 101)._members.diagonals is None
    assert _banded_family("drift", 201)._members.diagonals.shape == (3, 2, 201)
    # a wider band needs a larger grid: five diagonals pay from d = 194
    assert _banded_family("penta", 181)._members.diagonals is None
    assert _banded_family("penta", 201)._members.diagonals.shape == (5, 2, 201)


def test_an_entry_outside_the_band_takes_the_dense_path():
    d = 201
    members = [np.array(m) for m in _banded_family("drift", d).matrices]
    members[1][5, 100] += 1.0
    members[1][5, 5] -= 1.0
    fam = GeneratorFamily(tuple(members))
    assert fam._members.diagonals is None
    u = np.random.default_rng(3).standard_normal((d, 2))
    for v in (u[:, 0], u):
        best, pick = apply_q_operator(fam, v, return_argmax=True)
        ref_best, ref_pick, _ = _dense_reference(fam, v)
        assert np.array_equal(best, ref_best)
        assert np.array_equal(pick, ref_pick)


def test_a_dense_family_takes_the_dense_path():
    d, delta = 201, 0.05
    fam = interval_generator(jump_diffusion(d, delta), build_drift(d, delta), -1.0, 1.0)
    assert fam._members.diagonals is None


@pytest.mark.parametrize("kind, d", [("drift", 101), ("penta", 201), ("vol flows", 401)])
def test_member_values_fill_a_given_buffer_on_either_path(kind, d):
    # The product with the stack, the banded apply, and the product with
    # the row blocks of banded flows.
    fam = _banded_family(kind.split()[0], d)
    maps = fam.flows(2.0**-10) if kind.endswith("flows") else fam._members
    assert (maps.blocks is not None) == kind.endswith("flows")
    for shape in ((d,), (d, 2)):
        u = np.random.default_rng(d).standard_normal(shape)
        out = np.empty((2 * d,) + shape[1:])
        assert maps.values(u, out=out) is out
        assert np.array_equal(out, maps.values(u))


def test_a_banded_family_is_built_without_its_member_stack():
    d = 801
    members = (build_laplacian(d, 0.05), build_drift(d, 0.05))
    tracemalloc.start()
    fam = GeneratorFamily(members)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert fam._members.diagonals is not None
    assert peak < members[0].nbytes / 2
    assert "matrix" not in vars(fam._members)


def test_validation_never_builds_a_banded_family_member_stack(capsys):
    d, delta = 801, 0.05
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    assert fam._members.diagonals is not None
    assert fam.member_violations() == {}
    assert check_pmp(fam).passed
    # max |q_ii| = 2 / delta^2 + 1 / delta = 820, and h = 1 / 100
    _stiffness_warning(fam, 1.0, 100, "ode-euler")
    assert "largest exit rate 820 is 8.2 > 1" in capsys.readouterr().err
    assert "matrix" not in vars(fam._members)


def test_banded_nisio_pricing_never_builds_the_member_stack():
    fam = _banded_family("vol", 401)
    pay = payoff_butterfly(StateGrid(401, 10.0 / 400), 4.0, 5.0)
    bounds = price_bounds(fam, pay, 0.25, "nisio", n=4)
    assert (bounds.upper >= bounds.lower).all()
    assert fam.dim == 401 and fam.penalties[0].shape == (401,)
    assert "matrix" not in vars(fam._members)


@pytest.mark.parametrize("method", ["ode-euler", "ode-rk4"])
def test_banded_ode_pricing_never_builds_the_member_stack(method):
    fam = _banded_family("drift", 401)
    pay = payoff_butterfly(StateGrid(401, 10.0 / 400), 4.0, 5.0)
    bounds = price_bounds(fam, pay, 0.01, method, steps=100)  # h max|q_ii| = 0.32
    assert (bounds.upper >= bounds.lower).all()
    assert fam._members.diagonals is not None
    assert "matrix" not in vars(fam._members)


def test_the_flipped_twin_shares_the_diagonals():
    fam = _banded_family("drift", 201)
    twin = fam.flipped()
    assert twin._members.diagonals is fam._members.diagonals
    assert not fam._members.diagonals.flags.writeable


# ----------------------------------------------------------------- check_pmp


def test_check_pmp_passes_interval_family():
    a, b = build_laplacian(11, 1.0), build_drift(11, 1.0)
    report = check_pmp(interval_generator(a, b, -1.0, 1.0), trials=50, rng_seed=123)
    assert report.passed
    assert report.failures == ()
    assert report.checks_run > 50


def test_check_pmp_flags_broken_member():
    broken = np.array([[1.0, -1.0], [0.0, 0.0]])  # sign pattern reversed
    report = check_pmp(GeneratorFamily((broken,)), trials=20, rng_seed=0)
    assert not report.passed
    assert any(v.magnitude > 0 for v in report.failures)
    # the counterexample should name a specific check
    assert any("e_" in v.detail or "trial" in v.detail for v in report.failures)


def test_check_pmp_constant_category_passes_for_valid_family():
    fam = random_family(np.random.default_rng(8), 7, members=2, convex=True)
    report = check_pmp(fam, trials=10, rng_seed=9)
    constants = next(cat for cat in report.categories if cat.name == "constants")
    assert constants.passed


def test_check_pmp_is_seed_deterministic():
    fam = random_family(np.random.default_rng(9), 5, members=2)
    r1 = check_pmp(fam, trials=30, rng_seed=77)
    r2 = check_pmp(fam, trials=30, rng_seed=77)
    assert r1.checks_run == r2.checks_run
    assert r1.passed == r2.passed


def test_check_pmp_passes_a_dense_jump_diffusion_at_d201():
    d, delta = 201, 0.05
    fam = interval_generator(jump_diffusion(d, delta), build_drift(d, delta), -1.0, 1.0)
    report = check_pmp(fam, trials=20, rng_seed=0)
    assert report.passed, report.failures[:3]


def test_check_pmp_flags_a_1e6_row_sum_defect_in_a_stiff_member():
    d, delta = 201, 0.05
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    defective = np.array(fam.matrices[1])
    defective[d // 2, d // 2 + 1] += 1e-6
    report = check_pmp(GeneratorFamily((fam.matrices[0], defective)), trials=5, rng_seed=0)
    constants = next(cat for cat in report.categories if cat.name == "constants")
    # Q(alpha 1) picks the defective row for alpha > 0 only: 1e-6 and 5e-6.
    assert [v.magnitude for v in constants.failures] == pytest.approx([1e-6, 5e-6], rel=1e-3)


def _spike_failures_one_vector_at_a_time(fam, tol):
    """The spike checks as per-vector applies, with check_pmp's scaled
    tolerance and its messages: (checks, details) for the own- and
    foreign-state categories."""
    d = fam.dim
    row_norm = max(float(np.abs(m).sum(axis=1).max()) for m in fam.matrices)
    own, foreign = [], []
    own_checks = foreign_checks = 0
    for lam in (0.5, 1.0, 10.0):
        bound = tol * max(1.0, lam * row_norm)
        for i in range(d):
            value = apply_q_operator(fam, lam * np.eye(d)[i])[i]
            own_checks += 1
            if value > bound:
                own.append(f"(Q ({lam:g} e_{i}))_{i} = {value:.6g} > {tol:g}")
    for lam in (0.5, 1.0, 10.0):
        bound = tol * max(1.0, lam * row_norm)
        for j in range(d):
            values = apply_q_operator(fam, -lam * np.eye(d)[j])
            for i in range(d):
                if i != j:
                    foreign_checks += 1
                    if values[i] > bound:
                        foreign.append(f"(Q (-{lam:g} e_{j}))_{i} = {values[i]:.6g} > {tol:g}")
    return (own_checks, own), (foreign_checks, foreign)


def _broken(m):
    broken = np.array(m)
    broken[1, 1] = 0.4                          # positive diagonal
    broken[2, 4] = -0.3                         # negative off-diagonal
    broken[4, 0] = -0.2
    return broken


@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_check_pmp_batched_spikes_match_single_vector_applies(direction, penalised):
    rng = np.random.default_rng(14)
    broken = _broken(random_rate_matrix(rng, 6, 1.0))
    other = random_rate_matrix(rng, 6, 1.0)
    # The infimum takes a valid member's entries, so both lower members are broken.
    other = other if direction == "upper" else _broken(other)
    penalties = (np.zeros(6), -rng.uniform(0.0, 0.3, 6)) if penalised else None
    fam = GeneratorFamily((other, broken), penalties, direction=direction)
    _assert_spikes_match_single_vector_applies(fam)


def _broken_banded(m):
    """A copy of a d=201 member of half-bandwidth 2 with defects inside its
    band: a positive diagonal at (7,7), negative off-diagonals at (9,11) and
    (150,149), and row 100's sum raised by 1e-3."""
    broken = np.array(m)
    broken[7, 7] = 0.4
    broken[9, 11] = -0.3
    broken[150, 149] = -0.2
    broken[100, 101] += 1e-3
    return broken


@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_check_pmp_batched_spikes_match_single_vector_applies_on_a_banded_family(
        direction, penalised):
    valid, other = _banded_family("penta", 201).matrices
    other = _broken_banded(other)
    valid = valid if direction == "upper" else _broken_banded(valid)
    penalties = _banded_family("penta", 201).penalties if penalised else None
    fam = GeneratorFamily((valid, other), penalties, direction=direction)
    assert fam._members.diagonals is not None
    _assert_spikes_match_single_vector_applies(fam)


def _dense_member_violations(m, tol):
    """The rate-matrix violations of one dense member, read with np.nonzero:
    the diagonal ones, then the off-diagonal ones row-major, then the row
    sums, each against tol times max(1, the row's absolute sum)."""
    diag, sums = np.diagonal(m), m.sum(axis=1)
    out = [("diagonal", i, i, diag[i]) for i in np.nonzero(diag > tol)[0]]
    negative = (m < -tol) & ~np.eye(len(m), dtype=bool)
    out += [("off_diagonal", i, j, -m[i, j]) for i, j in zip(*np.nonzero(negative))]
    limit = tol * np.maximum(1.0, np.abs(m).sum(axis=1))
    out += [("row_sum", i, i, abs(sums[i])) for i in np.nonzero(np.abs(sums) > limit)[0]]
    return out


@pytest.mark.parametrize("tol", [0.0, 1e-12, 0.25])
def test_banded_member_violations_match_the_dense_members(tol):
    # Dyadic rates, so that every row sum is exact in any order of addition
    # and tol = 0 compares the same sums on both layouts.
    d, delta = 201, 0.5
    valid = pentadiagonal(d, delta)
    members = (_broken_banded(valid), valid,
               _broken_banded(-0.5 * valid + build_drift(d, delta)))
    fam = GeneratorFamily(members)
    assert fam._members.diagonals is not None
    found = fam.member_violations(tol)
    assert "matrix" not in vars(fam._members)
    assert {0, 2} <= set(found)
    for idx, m in enumerate(members):
        expected = _dense_member_violations(m, tol)
        got = found.get(idx, [])
        assert [(v.condition, v.row, v.col) for v in got] == [e[:3] for e in expected]
        assert [v.magnitude for v in got] == pytest.approx([e[3] for e in expected], rel=1e-12)
        assert all(isinstance(v.row, int) and isinstance(v.col, int) for v in got)


def test_a_zero_tolerance_gives_one_verdict_on_either_layout():
    # Non-dyadic rates, whose row sums round off: tol = 0 flags each row
    # whose sum is not exactly 0, kept as diagonals or in the dense stack
    # that a dense third member forces.
    members = penta_family(201).matrices
    banded = GeneratorFamily(members)
    dense = GeneratorFamily(members + (jump_diffusion(201, 0.05),))
    assert banded._members.diagonals is not None and dense._members.diagonals is None
    found, stacked = banded.member_violations(0), dense.member_violations(0)
    assert found[0] and found[1]
    assert [found[0], found[1]] == [stacked[0], stacked[1]]


def _assert_spikes_match_single_vector_applies(fam):
    report = check_pmp(fam, trials=3, rng_seed=1)
    expected = _spike_failures_one_vector_at_a_time(fam, 1e-12)
    for name, (checks, details) in zip(("own-state spikes", "foreign-state spikes"), expected):
        cat = next(c for c in report.categories if c.name == name)
        assert cat.checks == checks
        assert [v.detail for v in cat.failures] == details
        assert details
    assert report.checks_run == sum(cat.checks for cat in report.categories)


def test_check_pmp_applies_the_family_to_no_block_wider_than_the_trials(monkeypatch):
    fam = _banded_family("penta", 201)
    shapes = []

    def recording(family, u, return_argmax=False):
        shapes.append(np.shape(u))
        return apply_q_operator(family, u, return_argmax)

    monkeypatch.setattr(qenvelope.generators, "apply_q_operator", recording)
    check_pmp(fam, trials=5)
    # one block of trial vectors, then one vector per constant
    assert shapes == [(201, 5), (201,), (201,), (201,)]


def test_a_wide_band_keeps_check_pmp_within_twice_the_member_stack():
    # The widest band the path rule keeps at d = 801: w = 42.
    d, w = 801, 42
    rng = np.random.default_rng(21)
    rows, columns = np.indices((d, d))
    near = (np.abs(rows - columns) <= w) & (rows != columns)
    fam = GeneratorFamily(tuple(off_to_rate(np.where(near, rng.uniform(0.0, 1.0, (d, d)), 0.0))
                                for _ in range(2)))
    assert fam._members.diagonals.shape == (2 * w + 1, 2, d)
    u = rng.standard_normal((d, 3))
    block = apply_q_operator(fam, u)
    for j in range(3):
        assert np.array_equal(block[:, j], apply_q_operator(fam, u[:, j]))
    tracemalloc.start()
    report = check_pmp(fam)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # The spike checks read the diagonals and never build the 10.3 MB member
    # stack; a (2w + 1, m, d, trials) product of the trial block would be 109 MB.
    assert "matrix" not in vars(fam._members)
    assert report.passed and peak < 2 * d * d * 8


@pytest.mark.parametrize("tol", _BAD_TOLERANCES)
def test_check_pmp_refuses_a_tolerance_that_is_no_finite_nonnegative_real(tol):
    broken = np.array([[1.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="tolerance"):
        check_pmp(GeneratorFamily((broken,)), tol=tol)


def test_check_pmp_refuses_members_whose_row_sums_overflow():
    # Row 0's absolute sum, 3e308, is past the largest double: every scaled
    # bound would be inf and every check would pass.
    fam = GeneratorFamily(([[-1e308, 1e308, 1e308], [0, 0, 0], [0, 0, 0]],))
    with pytest.raises(ValueError, match="row sums overflow"):
        check_pmp(fam)


@pytest.mark.parametrize("trials", [2.5, "3", None])
def test_check_pmp_rejects_a_trial_count_that_is_no_integer(trials):
    fam = random_family(np.random.default_rng(3), 3)
    with pytest.raises(ValueError, match="trials"):
        check_pmp(fam, trials=trials)


def _random_maxima_one_trial_at_a_time(fam, trials, rng_seed, tol):
    """check_pmp's random-maxima checks with one draw and one apply per
    trial: (checks, [(check, detail, magnitude)])."""
    rng = np.random.default_rng(rng_seed)
    row_norm = max(float(np.abs(m).sum(axis=1).max()) for m in fam.matrices)
    checks, fails = 0, []
    for trial in range(trials):
        u = rng.standard_normal(fam.dim)
        qu = apply_q_operator(fam, u)
        bound = tol * max(1.0, float(np.abs(u).max()) * row_norm)
        for i in np.nonzero(u == u.max())[0]:
            checks += 1
            if qu[i] > bound:
                detail = f"trial {trial}: (Qu)_{i} = {qu[i]:.6g} > {tol:g} at a maximum of u"
                fails.append(("random_max", detail, float(qu[i])))
    return checks, fails


def _row_sum_defect_family():
    d, delta = 201, 0.05
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    defective = np.array(fam.matrices[1])
    defective[d // 2, d // 2 + 1] += 1e-6
    return GeneratorFamily((fam.matrices[0], defective))


def _sign_broken_family():
    rng = np.random.default_rng(15)
    broken = random_rate_matrix(rng, 6, 1.0)
    broken[np.arange(6), np.arange(6)] *= -1.0  # positive diagonal throughout
    return GeneratorFamily((random_rate_matrix(rng, 6, 1.0), broken))


@pytest.mark.parametrize("make", [
    lambda: _banded_family("drift", 201),
    _row_sum_defect_family,
    _sign_broken_family,
])
def test_check_pmp_batched_random_maxima_match_single_trials(make):
    fam = make()
    trials, seed, tol = 100, 0, 1e-12
    report = check_pmp(fam, trials=trials, rng_seed=seed, tol=tol)
    checks, fails = _random_maxima_one_trial_at_a_time(fam, trials, seed, tol)
    random_maxima = report.categories[0]
    assert random_maxima.name == "random maxima"
    assert random_maxima.checks == checks
    assert [(v.check, v.detail) for v in random_maxima.failures] == [f[:2] for f in fails]
    assert [v.magnitude for v in random_maxima.failures] == pytest.approx(
        [f[2] for f in fails], rel=1e-12)
    d = fam.dim
    assert report.checks_run == checks + 3 * d + 3 * d * (d - 1) + 3
    assert [cat.name for cat in report.categories] == [
        "random maxima", "own-state spikes", "foreign-state spikes", "constants"]


def test_check_pmp_reports_the_row_sum_defect_and_random_failures():
    # The two defective families above fail where they are meant to, so the
    # comparison with single trials covers non-empty failure lists.
    defect = check_pmp(_row_sum_defect_family())
    assert [cat.name for cat in defect.categories if not cat.passed] == ["constants"]
    broken = check_pmp(_sign_broken_family())
    assert not broken.categories[0].passed


# ------------------------------------------------------------------- file io


def test_matrix_file_round_trip(tmp_path):
    path = tmp_path / "q.txt"
    q = random_rate_matrix(np.random.default_rng(10), 6, 3.0)
    write_matrix_file(path, q)
    assert np.array_equal(read_matrix_file(path), q)


def test_vector_file_reads_count_and_values(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("3\n0.5 -1.25\n7\n")
    assert np.array_equal(read_vector_file(path), np.array([0.5, -1.25, 7.0]))


def test_matrix_file_rejects_wrong_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 2 3\n")
    with pytest.raises(ValueError):
        read_matrix_file(path)


def test_matrix_file_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 2\nx 4\n")
    with pytest.raises(ValueError):
        read_matrix_file(path)


@pytest.mark.parametrize("read, text, message", [
    (read_matrix_file, "# nothing but a comment\n", "empty file"),
    (read_matrix_file, "two\n1 2\n3 4\n", "first line must be the dimension, got 'two'"),
    (read_matrix_file, "0\n", "dimension must be positive, got 0"),
    (read_vector_file, "-1\n", "dimension must be positive, got -1"),
    (read_vector_file, "3\n1 2\n", "expected 3 entries, found 2 values"),
])
def test_numeric_files_refuse_a_malformed_header_or_count(read, text, message, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_file_writer_refuses_non_finite_entries(bad, tmp_path):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="non-finite"):
        write_matrix_file(path, np.array([[0.0, bad], [0.0, 0.0]]))
    assert not path.exists()
