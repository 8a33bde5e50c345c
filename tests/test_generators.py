"""Rate-matrix validation, difference builders, families, and the maximum principle."""

import numpy as np
import pytest

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
    rate_matrix_violations,
    read_matrix_file,
    read_vector_file,
    validate_rate_matrix,
    write_matrix_file,
)

from _helpers import jump_diffusion, off_to_rate, random_family, random_rate_matrix


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


def test_validate_raises_with_violation_payload():
    with pytest.raises(InvalidRateMatrixError) as excinfo:
        validate_rate_matrix([[1.0, -1.0], [0.0, 0.0]])
    assert len(excinfo.value.violations) >= 2
    assert "diagonal" in str(excinfo.value)


def test_validate_tolerance_is_adjustable():
    almost = np.array([[-1.0, 1.0 + 5e-10], [1.0, -1.0]])
    assert rate_matrix_violations(almost, tol=1e-8) == []
    assert rate_matrix_violations(almost, tol=1e-12) != []


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
# by inf or 0.
_BAD_GRIDS = [(2.5, 1.0), ("3", 1.0), (3, np.inf), (3, 1e200), (3, 1e-200)]


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


def test_flipped_twin_shares_members_and_flows():
    fam = random_family(np.random.default_rng(2), 4, members=2, convex=True)
    low = fam.flipped()
    assert all(a is b for a, b in zip(fam.matrices, low.matrices))
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
    d, delta, h = 401, 0.025, 1 / 1024
    fam = interval_generator(np.zeros((d, d)), build_laplacian(d, delta), 0.5, 1.5)
    flows = fam.flows(h)
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


def test_interval_generator_rejects_empty_interval():
    a = build_laplacian(3, 1.0)
    with pytest.raises(ValueError):
        interval_generator(a, a, 1.0, 0.0)


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
    values = fam._stack @ u + (fam._offsets if u.ndim == 1 else fam._offsets[:, None])
    blocks = values.reshape(fam.n_members, fam.dim, *u.shape[1:])
    if fam.direction == "upper":
        return blocks.max(axis=0), blocks.argmax(axis=0), blocks
    return blocks.min(axis=0), blocks.argmin(axis=0), blocks


def _pentadiagonal(d, delta):
    """Rate matrix with jumps to the first and second neighbours."""
    off = np.zeros((d, d))
    i = np.arange(d)
    for k, rate in ((1, 1.0), (2, 0.25)):
        off[i[:-k], i[:-k] + k] = off[i[k:], i[k:] - k] = rate / delta**2
    return off_to_rate(off)


def _banded_family(kind, d):
    delta = 10.0 / (d - 1)
    if kind == "drift":
        return interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    if kind == "vol":
        return interval_generator(np.zeros((d, d)), build_laplacian(d, delta), 0.5, 1.5)
    pen = -np.random.default_rng(d).uniform(0.0, 0.5, d)
    members = (_pentadiagonal(d, delta), 0.5 * _pentadiagonal(d, delta) + build_drift(d, delta))
    return GeneratorFamily(members, (np.zeros(d), pen))


_BANDED_CASES = [("drift", 201), ("drift", 401), ("vol", 201), ("vol", 401), ("penta", 401)]


@pytest.mark.parametrize("direction", ["upper", "lower"])
@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("kind, d", _BANDED_CASES)
def test_banded_apply_matches_the_dense_reference(kind, d, columns, direction):
    fam = _banded_family(kind, d)
    fam = fam if direction == fam.direction else fam.flipped()
    assert fam._diagonals is not None
    shape = (d,) if columns is None else (d, columns)
    u = np.random.default_rng(d + 7).standard_normal(shape)
    best, pick = apply_q_operator(fam, u, return_argmax=True)
    ref_best, ref_pick, blocks = _dense_reference(fam, u)
    row_sum = float(np.abs(fam._stack).sum(axis=1).max())
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
    # check_pmp applies the family to (d, d) blocks.
    fam = _banded_family(kind, d)
    u = np.random.default_rng(d + 11).standard_normal((d, d))
    for member in (fam, fam.flipped()):
        block = apply_q_operator(member, u)
        for j in range(d):
            assert np.array_equal(block[:, j], apply_q_operator(member, u[:, j]))


def test_banded_apply_adds_the_penalties():
    fam = _banded_family("penta", 401)
    assert not fam.is_sublinear
    u = np.zeros(401)
    # q @ 0 = 0, so the unpenalised member attains the supremum and the
    # penalised one the infimum.
    assert np.array_equal(apply_q_operator(fam, u), u)
    assert np.array_equal(apply_q_operator(fam.flipped(), u), fam.penalties[1])


def test_the_path_rule_keeps_small_grids_on_the_stack_product():
    assert _banded_family("drift", 101)._diagonals is None
    assert _banded_family("drift", 201)._diagonals.shape == (3, 2, 201)
    # a wider band needs a larger grid: five diagonals pay from d = 194
    assert _banded_family("penta", 181)._diagonals is None
    assert _banded_family("penta", 201)._diagonals.shape == (5, 2, 201)


def test_an_entry_outside_the_band_takes_the_dense_path():
    d = 201
    members = [np.array(m) for m in _banded_family("drift", d).matrices]
    members[1][5, 100] += 1.0
    members[1][5, 5] -= 1.0
    fam = GeneratorFamily(tuple(members))
    assert fam._diagonals is None
    u = np.random.default_rng(3).standard_normal((d, 2))
    for v in (u[:, 0], u):
        best, pick = apply_q_operator(fam, v, return_argmax=True)
        ref_best, ref_pick, _ = _dense_reference(fam, v)
        assert np.array_equal(best, ref_best)
        assert np.array_equal(pick, ref_pick)


def test_a_dense_family_takes_the_dense_path():
    d, delta = 201, 0.05
    fam = interval_generator(jump_diffusion(d, delta), build_drift(d, delta), -1.0, 1.0)
    assert fam._diagonals is None


def test_the_flipped_twin_shares_the_diagonals():
    fam = _banded_family("drift", 201)
    twin = fam.flipped()
    assert twin._diagonals is fam._diagonals
    assert not fam._diagonals.flags.writeable


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


def test_check_pmp_batched_spikes_match_single_vector_applies():
    rng = np.random.default_rng(14)
    broken = random_rate_matrix(rng, 6, 1.0)
    broken[1, 1] = 0.4                          # positive diagonal
    broken[2, 4] = -0.3                         # negative off-diagonal
    broken[4, 0] = -0.2
    fam = GeneratorFamily((random_rate_matrix(rng, 6, 1.0), broken), direction="upper")
    report = check_pmp(fam, trials=3, rng_seed=1)
    expected = _spike_failures_one_vector_at_a_time(fam, 1e-12)
    for name, (checks, details) in zip(("own-state spikes", "foreign-state spikes"), expected):
        cat = next(c for c in report.categories if c.name == name)
        assert cat.checks == checks
        assert [v.detail for v in cat.failures] == details
        assert details
    assert report.checks_run == sum(cat.checks for cat in report.categories)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_file_writer_refuses_non_finite_entries(bad, tmp_path):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="non-finite"):
        write_matrix_file(path, np.array([[0.0, bad], [0.0, 0.0]]))
    assert not path.exists()
