"""Rate matrices and convex operator families built from them.

A rate matrix has nonpositive diagonal, nonnegative off-diagonal entries and
zero row sums.  A :class:`GeneratorFamily` collects finitely many (rate
matrix, penalty vector) pairs and acts on vectors through the componentwise
supremum (or infimum) of ``q @ u + f`` over its members.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .linalg import TOL, AffineFlow, _as_square, _as_vector, _banded_matmul, _half_bandwidth, \
    affine_flow


class InvalidRateMatrixError(ValueError):
    """Raised when a matrix fails the rate-matrix sign/row-sum conditions."""

    def __init__(self, message, violations):
        super().__init__(message)
        self.violations = tuple(violations)


class InvalidGeneratorError(ValueError):
    """Raised when a generator family cannot be built from valid members."""


@dataclass(frozen=True)
class RateMatrixViolation:
    """One failed rate-matrix condition, with its location and magnitude."""

    condition: str  # 'diagonal' | 'off_diagonal' | 'row_sum'
    row: int
    col: int
    magnitude: float

    def __str__(self):
        if self.condition == "diagonal":
            return f"positive diagonal entry at ({self.row},{self.col}): {self.magnitude:.6g}"
        if self.condition == "off_diagonal":
            return f"negative off-diagonal entry at ({self.row},{self.col}): -{self.magnitude:.6g}"
        return f"row {self.row} sums to magnitude {self.magnitude:.6g} instead of 0"


def rate_matrix_violations(m, tol: float = TOL.rate_matrix) -> list:
    """List every violated rate-matrix condition of ``m`` (empty if valid)."""
    m = _as_square(m)
    if not np.isfinite(m).all():
        raise ValueError("rate-matrix check on a matrix with non-finite entries")
    out = []
    diag = np.diagonal(m)
    for i in np.nonzero(diag > tol)[0]:
        out.append(RateMatrixViolation("diagonal", int(i), int(i), float(diag[i])))
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    for i, j in zip(*np.nonzero(off < -tol)):
        out.append(RateMatrixViolation("off_diagonal", int(i), int(j), float(-off[i, j])))
    sums = m.sum(axis=1)
    for i in np.nonzero(np.abs(sums) > tol)[0]:
        out.append(RateMatrixViolation("row_sum", int(i), int(i), float(abs(sums[i]))))
    return out


def _summary(violations: list) -> str:
    """The first five violations, and how many more the list holds."""
    shown = "; ".join(str(v) for v in violations[:5])
    return shown + (f" (+{len(violations) - 5} more)" if len(violations) > 5 else "")


def validate_rate_matrix(m, tol: float = TOL.rate_matrix) -> np.ndarray:
    """Return ``m`` as a float array if it is a rate matrix, else raise.

    The raised :class:`InvalidRateMatrixError` carries the full violation
    list on its ``violations`` attribute.
    """
    m = _as_square(m)
    violations = rate_matrix_violations(m, tol)
    if violations:
        raise InvalidRateMatrixError(f"not a rate matrix: {_summary(violations)}", violations)
    return m


def build_laplacian(d: int, delta: float) -> np.ndarray:
    """Second-difference rate matrix on a uniform grid with reflecting ends.

    Interior rows are (1, -2, 1) / delta^2; the first and last rows are
    (-1, 1) and (1, -1) over delta^2, so all row sums vanish.
    """
    if d < 2:
        raise ValueError(f"need at least two states, got d={d}")
    if not delta > 0:
        raise ValueError(f"grid spacing must be positive, got {delta}")
    m = np.zeros((d, d))
    idx = np.arange(d)
    m[idx, idx] = -2.0
    m[0, 0] = m[-1, -1] = -1.0
    m[idx[:-1], idx[:-1] + 1] = 1.0
    m[idx[1:], idx[1:] - 1] = 1.0
    return m / delta**2


def build_drift(d: int, delta: float) -> np.ndarray:
    """One-sided first-difference rate matrix; the last state is absorbing.

    Rows are (-1, 1) / delta with a zero final row.
    """
    if d < 2:
        raise ValueError(f"need at least two states, got d={d}")
    if not delta > 0:
        raise ValueError(f"grid spacing must be positive, got {delta}")
    m = np.zeros((d, d))
    idx = np.arange(d - 1)
    m[idx, idx] = -1.0
    m[idx, idx + 1] = 1.0
    return m / delta


@dataclass(frozen=True)
class StateGrid:
    """Uniform price grid x_i = i * delta for i = 0, ..., dim - 1."""

    dim: int
    delta: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"grid needs at least one state, got dim={self.dim}")
        if not self.delta > 0:
            raise ValueError(f"grid spacing must be positive, got {self.delta}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.dim) * self.delta


def _blocks(stack: np.ndarray, n_members: int) -> tuple:
    """The member blocks of a stacked array, as views: member i owns rows
    i*d to (i+1)*d of a (m*d, ...) stack."""
    return tuple(np.split(stack, n_members))


def _extremum(values: np.ndarray, n_members: int, direction: str, pick: bool = False,
              out: np.ndarray | None = None):
    """Componentwise max ('upper') or min ('lower') over the member blocks of
    a stacked (m*d,) or (m*d, p) array of member values.

    With ``pick=True`` also returns the attaining member index per entry,
    ties resolved to the lowest index.  ``out``, if given, receives the
    extremum.
    """
    blocks = values.reshape(n_members, -1, *values.shape[1:])
    upper = direction == "upper"
    if n_members == 2:
        # The same values as the reduction, without its set-up cost.
        best = (np.maximum if upper else np.minimum)(blocks[0], blocks[1], out=out)
    else:
        best = (blocks.max if upper else blocks.min)(axis=0, out=out)
    if not pick:
        return best
    return best, (blocks.argmax if upper else blocks.argmin)(axis=0)


# apply_q_operator multiplies by the members through their diagonals when all
# of them lie within a common half-bandwidth w that linalg._half_bandwidth
# detects and d^2 >= _Q_BAND_AREA * (2w + 1).  The banded apply costs a fixed
# ~10 us of numpy calls plus O(m d (2w + 1)); the dense one O(m d^2).  Two
# members, (d,) input, one BLAS thread, banded against dense in us: w = 1:
# 10 / 7 at d = 101, 10 / 10 at 141, 10 / 12 at 161, 14 / 18 at 201;
# w = 2: 14 / 14 at 161, 14 / 18 at 201; w = 4: 15 / 18 at 241, 13 / 25 at
# 281.  The crossover lies near d = 150 for w = 1 and moves up slowly with w,
# about as the square root of 2w + 1.  The rule follows that curve from the
# safe side: banded from d = 150, 194 and 260 for w = 1, 2 and 4.
_Q_BAND_AREA = 7500


# Smallest normal double; cached flows hold no entry of smaller magnitude.
_TINY = np.finfo(float).tiny


def _member_diagonals(mats: list) -> np.ndarray | None:
    """The members as one read-only (2w + 1, m, d) array of diagonals, or
    None when the banded apply does not pay for them (see _Q_BAND_AREA).

    Entry [j, i, r] is member i's entry (r, r + j - w), zero where that
    column lies outside the grid, so that row r of the product reads a
    window of the state padded with w zeros at either end.
    """
    widths = [_half_bandwidth(m) for m in mats]
    if None in widths:
        return None
    w, d = max(widths), mats[0].shape[0]
    if d * d < _Q_BAND_AREA * (2 * w + 1):
        return None
    diagonals = np.zeros((2 * w + 1, len(mats), d))
    for i, m in enumerate(mats):
        for k in range(-w, w + 1):
            diagonals[k + w, i, max(0, -k):d - max(0, k)] = np.diagonal(m, k)
    diagonals.setflags(write=False)
    return diagonals


def _banded_product(diagonals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The stacked member values q @ u, (m*d,) or (m*d, p), from the
    (2w + 1, m, d) diagonals, each row summed over its diagonals in
    increasing column order."""
    width, count, d = diagonals.shape
    w = width // 2
    if u.ndim == 1:
        # One product of the diagonals with the 2w + 1 shifted windows of u
        # padded with w zeros at either end (windows[j, 0] is
        # padded[j:j + d]) takes fewer numpy calls than a loop over the
        # diagonals; its (2w + 1, m, d) temporary is small.
        padded = np.zeros(d + 2 * w)
        padded[w:w + d] = u
        step = padded.strides[0]
        windows = np.ndarray((width, 1, d), buffer=padded, strides=(step, 0, step))
        return (diagonals * windows).sum(axis=0).reshape(count * d)
    # A block goes member by member through linalg's banded product, whose
    # only temporary is one (d, p) scratch block.
    values = np.empty((count, d, u.shape[1]))
    scratch = np.empty((d, u.shape[1]))
    for i in range(count):
        member = [(k, diagonals[k + w, i, max(0, -k):d - max(0, k)]) for k in range(-w, w + 1)]
        _banded_matmul(member, u, values[i], scratch)
    return values.reshape(count * d, u.shape[1])


class _MemberFlows(tuple):
    """Per-member :class:`AffineFlow` objects for one step length, stored as
    one stacked flow: ``matrix`` is (m*d, d) and ``offset`` (m*d,), and each
    member's flow is a read-only view into them."""

    def __new__(cls, matrix: np.ndarray, offset: np.ndarray, n_members: int):
        matrix.setflags(write=False)
        offset.setflags(write=False)
        members = zip(_blocks(matrix, n_members), _blocks(offset, n_members))
        self = super().__new__(cls, (AffineFlow(a, b) for a, b in members))
        self.matrix, self.offset = matrix, offset
        return self


@dataclass(eq=False)
class GeneratorFamily:
    """Finite family of (rate matrix, penalty) pairs with a fixed direction.

    Parameters
    ----------
    matrices : sequence of square arrays, all of one dimension
    penalties : optional sequence of vectors, one per matrix.  Penalties must
        be componentwise nonpositive and at least one member must carry an
        exactly zero penalty, so that constants are preserved.  Omitting them
        gives the sublinear case (all penalties zero).
    direction : 'upper' for the componentwise supremum, 'lower' for the
        infimum.

    The members are stored once, stacked into one read-only (m*d, d) array
    and one (m*d,) penalty vector; ``matrices`` and ``penalties`` are tuples
    of views into them, so every member apply is a single product with the
    stack.  When every member lies within a common half-bandwidth w and
    d^2 >= 7500 (2w + 1) (d >= 150 for tridiagonal members), the members
    are also kept as their diagonals, one read-only (2w + 1, m, d) array,
    and :func:`apply_q_operator` works through those instead of the stack.

    Matrices are *not* checked for the rate-matrix conditions here; that
    keeps deliberately broken families constructible for diagnostics (see
    :func:`check_pmp`).  Use :meth:`member_violations` or
    :func:`interval_generator` when validity matters.
    """

    matrices: tuple
    penalties: tuple | None = None
    direction: str = "upper"
    _flow_cache: dict = field(default_factory=dict, repr=False)
    _stack: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)
    _diagonals: np.ndarray | None = field(init=False, repr=False)
    _sublinear: bool = field(init=False, repr=False)

    def __post_init__(self):
        mats = [np.asarray(m, dtype=float) for m in self.matrices]
        if not mats:
            raise ValueError("a generator family needs at least one member")
        d = mats[0].shape[0] if mats[0].ndim == 2 else -1
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("all members must be square matrices of one dimension")
        count = len(mats)
        stack = np.empty((count * d, d))
        for block, m in zip(_blocks(stack, count), mats):
            block[...] = m
        if not np.isfinite(stack).all():
            raise ValueError("family member with non-finite entries")
        offsets = np.zeros(count * d)
        if self.penalties is not None:
            pens = [np.asarray(p, dtype=float) for p in self.penalties]
            if len(pens) != count:
                raise ValueError(f"{count} matrices but {len(pens)} penalties")
            for block, p in zip(_blocks(offsets, count), pens):
                block[...] = _as_vector(p, d, "a penalty")
                if (block > 0).any():
                    raise ValueError("penalties must be componentwise nonpositive")
            if not any((p == 0).all() for p in pens):
                raise ValueError("at least one member must carry an exactly zero penalty")
        if self.direction not in ("upper", "lower"):
            raise ValueError(f"direction must be 'upper' or 'lower', got {self.direction!r}")
        stack.setflags(write=False)
        offsets.setflags(write=False)
        self._stack, self._offsets = stack, offsets
        self._diagonals = _member_diagonals(mats)
        self._sublinear = not offsets.any()
        self.matrices = _blocks(stack, count)
        self.penalties = _blocks(offsets, count)

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    @property
    def n_members(self) -> int:
        return len(self.matrices)

    @property
    def is_sublinear(self) -> bool:
        return self._sublinear

    def flipped(self) -> "GeneratorFamily":
        """The same members with the opposite direction.

        The twin shares this family's member stack, diagonals and flow cache:
        all are read-only, and a flow does not depend on the direction.
        """
        twin = copy.copy(self)
        twin.direction = "lower" if self.direction == "upper" else "upper"
        return twin

    def member_violations(self, tol: float = TOL.rate_matrix) -> dict:
        """Map member index -> violation list, for members that fail."""
        out = {}
        for idx, m in enumerate(self.matrices):
            violations = rate_matrix_violations(m, tol)
            if violations:
                out[idx] = violations
        return out

    def flows(self, h: float, k: int | None = None) -> tuple:
        """Per-member affine flows for step length h, cached per (h, k).

        The result is a tuple of :class:`AffineFlow`, one per member, whose
        arrays are views into one stacked flow, available as its ``matrix``
        (m*d, d) and ``offset`` (m*d,) attributes.  The cache is filled at
        most once per key with deterministic values, so a rebuild race at
        worst repeats identical work.

        The cached flows hold no subnormal entries: every entry with
        |x| < ``np.finfo(float).tiny`` is set to zero.  Far from the diagonal
        the exponential of a banded generator decays into the subnormal
        range, and products with subnormal operands run several times slower
        on common CPUs.  Such an entry times a state value is below half an
        ulp of any sum above about 1e-290, so no value above that changes;
        nonnegativity and row sums are kept.
        """
        key = (float(h).hex(), k)
        flows = self._flow_cache.get(key)
        if flows is None:
            count = self.n_members
            matrix = np.empty_like(self._stack)
            offset = np.empty_like(self._offsets)
            blocks = zip(_blocks(matrix, count), _blocks(offset, count),
                         self.matrices, self.penalties)
            for matrix_block, offset_block, q, f in blocks:
                flow = affine_flow(q, f, h, k=k)
                matrix_block[...] = flow.matrix
                offset_block[...] = flow.offset
                for block in (matrix_block, offset_block):
                    block[np.abs(block) < _TINY] = 0.0
            flows = _MemberFlows(matrix, offset, count)
            self._flow_cache[key] = flows
        return flows


def interval_generator(
    q0,
    q,
    lambda_low: float,
    lambda_high: float,
    direction: str = "upper",
) -> GeneratorFamily:
    """Family for the uncertainty interval ``q0 + lambda * q``, lambda in [lo, hi].

    The componentwise extremum of an affine function of lambda sits at an
    interval endpoint, so only the two endpoint matrices are stored:
    ``{q0 + lambda_low * q, q0 + lambda_high * q}``, both with zero penalty.
    Both endpoints must satisfy the rate-matrix conditions.
    """
    q0 = _as_square(q0)
    q = _as_square(q)
    if q0.shape != q.shape:
        raise ValueError(f"q0 has shape {q0.shape} but q has shape {q.shape}")
    if not lambda_low <= lambda_high:
        raise ValueError(f"empty interval: lambda_low={lambda_low} > lambda_high={lambda_high}")
    members = []
    for lam in (lambda_low, lambda_high):
        member = q0 + lam * q
        violations = rate_matrix_violations(member)
        if violations:
            raise InvalidGeneratorError(
                f"endpoint lambda={lam:g} gives an invalid rate matrix: {_summary(violations)}"
            )
        members.append(member)
    return GeneratorFamily(tuple(members), direction=direction)


def apply_q_operator(fam: GeneratorFamily, u, return_argmax: bool = False):
    """Componentwise extremum of ``q @ u + f`` over the family members.

    ``u`` is a vector of length d, or a (d, p) array whose columns are
    operated on independently.  With ``return_argmax=True`` also returns the
    member index attaining the extremum in each component (ties resolved to
    the lowest index).

    The member values come from one of two paths, fixed when the family is
    built from d and the members' common half-bandwidth w alone.  Banded
    families with d^2 >= 7500 (2w + 1) (d >= 150 when tridiagonal) sum
    2w + 1 shifted multiply-adds over their diagonals, O(m d (2w + 1))
    work; all others, dense members included, take one product with the
    (m*d, d) member stack, O(m d^2).  The two paths agree to round-off:
    their sums run in different orders.  Sublinear families skip the add of
    their all-zero penalties.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[0] != fam.dim:
        raise ValueError(f"expected a vector of length {fam.dim} or a ({fam.dim}, p) array, "
                         f"got shape {u.shape}")
    if fam._diagonals is None:
        values = fam._stack @ u
    else:
        values = _banded_product(fam._diagonals, u)
    if not fam._sublinear:
        values += fam._offsets if u.ndim == 1 else fam._offsets[:, None]
    return _extremum(values, fam.n_members, fam.direction, return_argmax)


@dataclass(frozen=True)
class PmpViolation:
    """A single failed maximum-principle check."""

    check: str
    detail: str
    magnitude: float


@dataclass(frozen=True)
class PmpCategory:
    name: str
    checks: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class PmpReport:
    """Outcome of :func:`check_pmp`, by check category with counterexamples."""

    categories: tuple

    @property
    def passed(self) -> bool:
        return all(cat.passed for cat in self.categories)

    @property
    def failures(self) -> tuple:
        return tuple(v for cat in self.categories for v in cat.failures)

    @property
    def checks_run(self) -> int:
        return sum(cat.checks for cat in self.categories)


_PMP_SPIKE_SIZES = (0.5, 1.0, 10.0)
_PMP_CONSTANTS = (-2.5, 1.0, 5.0)


def check_pmp(fam: GeneratorFamily, trials: int = 100, rng_seed: int = 0,
              tol: float = 1e-12) -> PmpReport:
    """Probe the positive maximum principle and the operator sign axioms.

    Three kinds of checks are run against the family operator Q:

    * random vectors: at every component where the vector attains its
      maximum, Q u must be <= tol;
    * coordinate spikes: (Q (lam e_i))_i <= tol and (Q (-lam e_j))_i <= tol
      for i != j, for several spike sizes lam > 0;
    * constants: Q applied to a constant vector vanishes up to tol.

    Each check compares with ``tol`` scaled by the size of the terms that
    cancel in it, ``max(1, |u|_max * max_i sum_j |q_ij|)`` over the members,
    so that round-off in the row sums of large or stiff members is not
    reported as a violation; the messages quote the unscaled ``tol``.

    Returns a :class:`PmpReport`; counterexamples carry the offending values.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(rng_seed)
    d = fam.dim
    row_norm = float(np.abs(fam._stack).sum(axis=1).max())

    def limit(size):
        return tol * np.maximum(1.0, size * row_norm)

    categories = []

    # Row t of the draws is trial t's vector; all trials are one apply.
    draws = rng.standard_normal((trials, d))
    values = apply_q_operator(fam, draws.T).T
    bounds = limit(np.abs(draws).max(axis=1))
    at_max = draws == draws.max(axis=1, keepdims=True)
    fails = []
    for trial, i in zip(*np.nonzero(at_max & (values > bounds[:, None]))):
        fails.append(PmpViolation(
            "random_max",
            f"trial {trial}: (Qu)_{i} = {values[trial, i]:.6g} > {tol:g} at a maximum of u",
            float(values[trial, i]),
        ))
    categories.append(PmpCategory("random maxima", int(at_max.sum()), tuple(fails)))

    # Column j of Q(lam I) is Q(lam e_j), so each spike size is one apply.
    checks, fails = 0, []
    for lam in _PMP_SPIKE_SIZES:
        bound = limit(lam)
        values = np.diagonal(apply_q_operator(fam, lam * np.eye(d)))
        checks += d
        for i in np.nonzero(values > bound)[0]:
            fails.append(PmpViolation(
                "positive_spike",
                f"(Q ({lam:g} e_{i}))_{i} = {values[i]:.6g} > {tol:g}",
                float(values[i]),
            ))
    categories.append(PmpCategory("own-state spikes", checks, tuple(fails)))

    checks, fails = 0, []
    for lam in _PMP_SPIKE_SIZES:
        bound = limit(lam)
        # Transposed so that row j holds Q(-lam e_j), as the checks are ordered.
        values = apply_q_operator(fam, -lam * np.eye(d)).T
        checks += d * (d - 1)
        failing = values > bound
        np.fill_diagonal(failing, False)
        for j, i in zip(*np.nonzero(failing)):
            fails.append(PmpViolation(
                "negative_spike",
                f"(Q (-{lam:g} e_{j}))_{i} = {values[j, i]:.6g} > {tol:g}",
                float(values[j, i]),
            ))
    categories.append(PmpCategory("foreign-state spikes", checks, tuple(fails)))

    checks, fails = 0, []
    for alpha in _PMP_CONSTANTS:
        residual = float(np.abs(apply_q_operator(fam, np.full(d, alpha))).max())
        bound = limit(abs(alpha))
        checks += 1
        if residual > bound:
            fails.append(PmpViolation(
                "constant",
                f"||Q({alpha:g} * 1)|| = {residual:.6g} > {tol:g}",
                residual,
            ))
    categories.append(PmpCategory("constants", checks, tuple(fails)))

    return PmpReport(tuple(categories))


def read_matrix_file(path) -> np.ndarray:
    """Read a square matrix from the plain-text format: the dimension on the
    first line, then d rows of d whitespace-separated numbers."""
    d, tokens = _read_numeric_file(path)
    if len(tokens) != d * d:
        raise ValueError(f"{path}: expected {d}x{d} entries, found {len(tokens)} values")
    return np.array(tokens, dtype=float).reshape(d, d)


def read_vector_file(path) -> np.ndarray:
    """Read a vector: its length on the first line, then that many numbers."""
    d, tokens = _read_numeric_file(path)
    if len(tokens) != d:
        raise ValueError(f"{path}: expected {d} entries, found {len(tokens)} values")
    return np.array(tokens, dtype=float)


def write_matrix_file(path, m) -> None:
    """Write a matrix in the same plain-text format, at full precision."""
    m = _as_square(m)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]}\n")
        for row in m:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def _read_numeric_file(path):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    body = []
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            body.append(stripped)
    if not body:
        raise ValueError(f"{path}: empty file")
    try:
        d = int(body[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the dimension, got {body[0]!r}") from None
    if d < 1:
        raise ValueError(f"{path}: dimension must be positive, got {d}")
    try:
        tokens = [float(tok) for line in body[1:] for tok in line.split()]
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric entry ({exc})") from None
    return d, tokens
