"""Rate matrices and convex operator families built from them.

A rate matrix has nonpositive diagonal, nonnegative off-diagonal entries and
zero row sums.  A :class:`GeneratorFamily` collects finitely many (rate
matrix, penalty vector) pairs and acts on vectors through the componentwise
supremum (or infimum) of ``q @ u + f`` over its members.
"""

import copy
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import _TINY, AffineFlow, _as_count, _as_floats, _as_real, _as_square, _as_vector, \
    _augmented, _band_diagonals, _banded_apply, _block_matrices, _blocked_apply, _cut_exp, \
    _diagonal_matrices, _exp, _half_bandwidth, _row_blocks, _widest_band, euler_product_exp


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


def rate_matrix_violations(m, tol: float = 1e-12) -> list:
    """List every violated rate-matrix condition of ``m`` (empty if valid);
    ``tol`` is a finite real >= 0, and 0 checks the conditions exactly."""
    m = _as_square(m, "a rate matrix")
    return GeneratorFamily((m,)).member_violations(tol).get(0, [])


def _summary(violations: list) -> str:
    """The first five violations, and how many more the list holds."""
    shown = "; ".join(str(v) for v in violations[:5])
    return shown + (f" (+{len(violations) - 5} more)" if len(violations) > 5 else "")


def validate_rate_matrix(m, tol: float = 1e-12) -> np.ndarray:
    """Return ``m`` as a float array if it is a rate matrix, else raise.

    The raised :class:`InvalidRateMatrixError` carries the full violation
    list on its ``violations`` attribute.
    """
    m = _as_square(m, "a rate matrix")
    violations = rate_matrix_violations(m, tol)
    if violations:
        raise InvalidRateMatrixError(f"not a rate matrix: {_summary(violations)}", violations)
    return m


def _check_grid(d, delta, least: int) -> int:
    """``d`` as a state count of at least ``least``, on a grid whose spacing
    ``delta`` is positive with a finite, nonzero square (the Laplacian
    divides by it)."""
    spacing = _as_real(delta, "grid spacing", "positive")
    if not 0.0 < spacing * spacing < np.inf:
        raise ValueError(f"grid spacing must have a finite, nonzero square, got {delta!r}")
    return _as_count(d, "state count", least)


def build_laplacian(d: int, delta: float) -> np.ndarray:
    """Second-difference rate matrix on a uniform grid with reflecting ends.

    Interior rows are (1, -2, 1) / delta^2; the first and last rows are
    (-1, 1) and (1, -1) over delta^2, so all row sums vanish.
    """
    d = _check_grid(d, delta, 2)
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
    d = _check_grid(d, delta, 2)
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
        object.__setattr__(self, "dim", _check_grid(self.dim, self.delta, 1))

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.dim) * self.delta


# apply_q_operator multiplies by the members through their diagonals when all
# of them lie within a common half-bandwidth w that linalg._half_bandwidth
# detects and d^2 >= _Q_BAND_AREA * (2w + 1).  The banded apply costs a fixed
# ~4.5 us of numpy calls plus O(m d (2w + 1)); the dense one O(m d^2).  The
# kernels alone, two members, (d,) input, one BLAS thread, banded against
# dense in us: w = 1: 4.6 / 3.5 at d = 101, 4.6 / 4.8 at 121, 5.0 / 6.6 at
# 149, 5.3 / 10.6 at 201; w = 2: 5.2 / 4.8 at 121, 5.5 / 5.8 at 141, 6.3 /
# 10.6 at 201; w = 4: 7.0 / 7.3 at 161, 7.5 / 14.8 at 241, 8.9 / 21.8 at 281.
# The crossover lies near d = 120, 140 and 160 for w = 1, 2 and 4.  The rule,
# banded from d = 150, 194 and 260, stays above it: a family with banded
# members also takes banded cut flows (below), whose bits differ from the
# dense flows', so moving it down would change the prices of grids between.
_Q_BAND_AREA = 7500


# Banded flows: a sublinear family whose members keep their diagonals takes
# its exact flows cut to the narrowest half-band W that changes a flow by at
# most _FLOW_BUDGET * h in the sup norm (linalg._cut_exp); while every W fits
# linalg's band limit, the flows are kept as dense blocks of _FLOW_BLOCK_ROWS
# rows (linalg._row_blocks).  At d = 401 and h = 2^-10 the drift and vol
# families give W = 23 and 27; a step of (d, 2) values takes about 25 us
# against 120 us for the dense (2d, d) product, one BLAS thread.  Blocks of
# 16 rows step as fast as 32 and hold 4.8 MB against 5.3 MB for the vol
# family at d = 1601 (W = 85).
_FLOW_BUDGET = 2.0**-53
_FLOW_BLOCK_ROWS = 16


class _AffineMaps(Sequence):
    """m affine maps ``u -> b_i @ u + c_i`` of one dimension d, stored once.

    ``offset`` is the read-only (m*d,) stack of the c_i (map i owns entries
    i*d to (i+1)*d), ``offsets`` the c_i as views into it.  The b_i come in
    one form, the others None: (m, d, d) ``matrices``, linalg's banded
    ``diagonals``, (2w + 1, m, d), or row ``blocks`` (``linalg._row_blocks``);
    :meth:`rows` reads the first two.  ``matrix``, their read-only (m*d, d)
    stack, and the items, the maps as :class:`AffineFlow` views, are made
    when first read, the stack from a banded form if that is the one given.
    """

    def __init__(self, offsets: np.ndarray, matrices: np.ndarray | None = None,
                 diagonals: np.ndarray | None = None, blocks: np.ndarray | None = None):
        offsets.setflags(write=False)
        self.offset, self.diagonals, self.blocks = offsets.reshape(-1), diagonals, blocks
        self.linear = not offsets.any()
        self._count, self.dim = offsets.shape
        if matrices is not None:
            matrices.setflags(write=False)
            self.matrix = matrices.reshape(-1, self.dim)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        matrices = (_diagonal_matrices(self.diagonals, self.dim) if self.blocks is None
                    else _block_matrices(self.blocks, self._count, self.dim))
        matrices.setflags(write=False)
        return matrices.reshape(-1, self.dim)

    @functools.cached_property
    def offsets(self) -> tuple:
        return tuple(self.offset.reshape(self._count, self.dim))

    @functools.cached_property
    def _items(self) -> tuple:
        return tuple(map(AffineFlow, self.matrix.reshape(-1, self.dim, self.dim), self.offsets))

    def rows(self) -> tuple:
        """The b_i as views ``(values, columns, own)``: row r of b_i is the n
        entries ``values[i, r]`` in the columns ``columns[r]``, ``own`` true at
        column r; n = d for the stack, 2w + 1 for the diagonals (0 off the grid)."""
        d = self.dim
        if self.diagonals is None:
            values, columns = self.matrix.reshape(-1, d, d), np.broadcast_to(np.arange(d), (d, d))
        else:
            values, w = self.diagonals.transpose(1, 2, 0), len(self.diagonals) // 2
            columns = np.arange(d)[:, None] + np.arange(-w, w + 1)
        return values, columns, columns == np.arange(d)[:, None]

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._items[index]

    def values(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The stacked values b_i @ u + c_i of a (d,) or (d, p) float ``u``,
        (m*d,) or (m*d, p), written into ``out`` if given: one batched product
        with the row blocks if set, else one banded apply on ``diagonals`` if
        set, else one product with the stack.  Linear maps skip the offset add."""
        if self.blocks is not None:
            values = _blocked_apply(self.blocks, len(self), u, out)
        elif self.diagonals is not None:
            values = _banded_apply(self.diagonals, u, out)
        else:
            values = np.matmul(self.matrix, u, out=out)
        return values if self.linear else self.offset_added(values)

    def offset_added(self, values: np.ndarray) -> np.ndarray:
        """Stacked (m*d,) or (m*d, p) ``values`` with each map's offset added
        in place, unless every offset is zero."""
        if not self.linear:
            values += self.offset if values.ndim == 1 else self.offset[:, None]
        return values

    def extremum(self, values: np.ndarray, direction: str, pick: bool = False,
                 out: np.ndarray | None = None):
        """Componentwise max ('upper') or min ('lower') over the m blocks of
        stacked (m*d,) or (m*d, p) ``values``.

        With ``pick=True`` also returns the attaining map index per entry,
        ties resolved to the lowest index.  ``out``, if given, receives the
        extremum.
        """
        count = len(self)
        blocks = values.reshape(count, -1, *values.shape[1:])
        upper = direction == "upper"
        if count == 2:
            # The same values as the reduction, without its set-up cost.
            best = (np.maximum if upper else np.minimum)(blocks[0], blocks[1], out=out)
        else:
            best = (blocks.max if upper else blocks.min)(axis=0, out=out)
        if not pick:
            return best
        return best, (blocks.argmax if upper else blocks.argmin)(axis=0)

    def select(self, values: np.ndarray, selection: np.ndarray) -> np.ndarray:
        """Entry i of map ``selection[i]``'s block of (m*d,) ``values``, for each i."""
        blocks = values.reshape(len(self), -1)
        return blocks[selection, np.arange(blocks.shape[1])]


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

    The members are stored once: one (m*d,) penalty stack, and the matrices
    in one form.  When all lie within a common half-bandwidth w and
    d^2 >= 7500 (2w + 1) (d >= 150 for tridiagonal members), that form is
    linalg's read-only (2w + 1, m, d) diagonals, which the banded apply of
    :func:`apply_q_operator` and every check read; the (m*d, d) stack behind
    ``matrices`` is built when first read.  Otherwise the form is that
    stack, and the apply one product with it.  A banded family, if
    sublinear, takes banded exact flows: each e^{h q} cut to the half-band
    that changes it by at most 2^-53 h in the sup norm, as row blocks,
    O(m d W) memory, or dense for steps too long for the band (see
    :meth:`flows`).

    Matrices are *not* checked for the rate-matrix conditions here; that
    keeps deliberately broken families constructible for diagnostics (see
    :func:`check_pmp`).  Use :meth:`member_violations` or
    :func:`interval_generator` when validity matters.
    """

    def __init__(self, matrices, penalties=None, direction: str = "upper"):
        mats = [_as_square(m, "a family member") for m in matrices]
        if not mats:
            raise ValueError("a generator family needs at least one member")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("all members must be square matrices of one dimension")
        offsets = np.zeros((len(mats), d))
        if penalties is not None:
            pens = [_as_vector(p, d, "a penalty") for p in penalties]
            if len(pens) != len(mats):
                raise ValueError(f"{len(mats)} matrices but {len(pens)} penalties")
            if any((p > 0).any() for p in pens):
                raise ValueError("penalties must be componentwise nonpositive")
            offsets[...] = pens
            if not any((p == 0).all() for p in pens):
                raise ValueError("at least one member must carry an exactly zero penalty")
        if direction not in ("upper", "lower"):
            raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
        widths = [_half_bandwidth(m, (d * d // _Q_BAND_AREA - 1) // 2) for m in mats]
        if None in widths:
            self._members = _AffineMaps(offsets, np.stack(mats))
        else:
            self._members = _AffineMaps(offsets, diagonals=_band_diagonals(mats, max(widths)))
        self.direction = direction
        self._flow_cache = {}

    @property
    def matrices(self) -> tuple:
        return tuple(member.matrix for member in self._members)

    @property
    def penalties(self) -> tuple:
        return self._members.offsets

    @property
    def dim(self) -> int:
        return self._members.dim

    @property
    def n_members(self) -> int:
        return len(self._members)

    @property
    def is_sublinear(self) -> bool:
        return self._members.linear

    def flipped(self) -> "GeneratorFamily":
        """The same members with the opposite direction.

        The twin shares this family's members and flow cache: both are
        read-only, and a flow does not depend on the direction.
        """
        twin = copy.copy(self)
        twin.direction = "lower" if self.direction == "upper" else "upper"
        return twin

    def member_violations(self, tol: float = 1e-12) -> dict:
        """Map member index -> violation list, for members that fail.  Rows
        add up column by column, so a banded and a dense copy of a member get
        the same sums (zeros off the band change none) and the same verdicts.
        A row sum is compared with ``tol`` times ``max(1, the row's absolute
        sum)``, the size of the terms that cancel in it, as in
        :func:`check_pmp`, so that round-off in the rows of stiff members is
        no violation; the entries' signs are compared with ``tol`` itself."""
        tol = _as_real(tol, "tolerance", "nonnegative")
        values, columns, own = self._members.rows()
        sums, sizes = np.zeros(values.shape[:2]), np.zeros(values.shape[:2])
        with np.errstate(over="ignore"):
            for column in np.moveaxis(values, 2, 0):
                sums += column
                sizes += np.abs(column)
        off = np.abs(sums) > (tol * np.maximum(1.0, sizes) if tol else 0.0)
        sums = np.broadcast_to(sums[..., None], values.shape)
        out = {}
        for name, entries, failed in (("diagonal", values, own & (values > tol)),
                                      ("off_diagonal", values, ~own & (values < -tol)),
                                      ("row_sum", sums, own & off[..., None])):
            for i, r, k in zip(*np.unravel_index(np.flatnonzero(failed), failed.shape)):
                out.setdefault(int(i), []).append(RateMatrixViolation(
                    name, int(r), int(columns[r, k]), float(abs(entries[i, r, k]))))
        return dict(sorted(out.items()))

    def flows(self, h: float, k: int | None = None) -> _AffineMaps:
        """Per-member affine flows for step length h, cached per (h, k); h
        and k are checked before the cache is read, so a bad key raises the
        same ValueError on a hit as on a miss.

        The result is a sequence of :class:`AffineFlow`, one per member,
        whose arrays are views into one stacked flow, available as its
        ``matrix`` (m*d, d) and ``offset`` (m*d,) attributes.  The cache is
        filled at most once per key with deterministic values, so a rebuild
        race at worst repeats identical work; the flipped twin shares it.

        One rule fills every flow.  Where it comes from: an exact flow
        (k None) of a sublinear family that keeps its members as diagonals is
        e^{h q} cut to a half-band W (``linalg._cut_exp``) that changes it by
        at most 2^-53 h in the sup norm; every other flow comes out of one
        exponential of the member's block matrix ``[[q, f], [0, 0]]``, as
        for :func:`linalg.affine_flow`: ``linalg._exp``'s for k None, the
        k-factor Euler product's else.  The dropped entries are added onto the
        diagonal, so the cut flows stay nonnegative with their row sums, and
        as they do not expand the sup norm, a sweep over a horizon t moves by
        at most 2^-53 t ||u||_inf plus round-off.  How they are kept: if every
        flow kept a band, as 16-row dense blocks, O(m d W) memory, that step
        in one batched product, with ``matrix`` and the items expanded from
        them when first read; else as the dense stack.  ``_cut_exp``
        finishes a flow dense once 4 (2W + 1) > d, as for long steps.

        A call fills and caches its own key only; ``envelope_refined`` also
        caches the exact flows of the coarser levels h / 2^j that one
        exponential per member passes through, with the same bits (see
        :meth:`_fill`).

        Dense flows hold no subnormal entries: every entry with
        |x| < ``np.finfo(float).tiny`` is set to zero.  Far from the diagonal
        the exponential of a banded generator decays into the subnormal
        range, and products with subnormal operands run several times slower
        on common CPUs.  Such an entry times a state value is below half an
        ulp of any sum above about 1e-290, so no value above that changes;
        nonnegativity and row sums are kept.
        """
        h = _as_real(h, "horizon", "nonnegative")
        k = None if k is None else _as_count(k, "substep count", 1)
        flows = self._flow_cache.get((h.hex(), k))
        return self._fill(h, k) if flows is None else flows

    def _pairs(self):
        """The members as (d, d) matrix and (d,) penalty pairs; each banded
        member is expanded alone, so that no fill keeps the stack."""
        members, count, d = self._members, self.n_members, self.dim
        qs = (members.matrix.reshape(count, d, d) if members.diagonals is None else
              (_diagonal_matrices(members.diagonals[:, None, i], d)[0] for i in range(count)))
        return zip(qs, members.offsets)

    def _fill(self, h: float, k: int | None, deepest: int = 0) -> _AffineMaps:
        """The cached flows for (h, k), first made and kept by the rule of
        :meth:`flows` if any key this call fills is missing.  ``h`` is a
        checked float and ``k`` None or a checked count.

        Exact flows that are not cut also fill the levels h / 2^j, 1 <= j <=
        ``deepest``: each member's exponential of h hands out, before each
        dense squaring, its exponential of h / 2^j bit for bit (the stage of
        ``linalg._cut_exp``), and a level is cached if every member handed it
        out.  Each flow is written into its level's stacks by one ``keep``;
        level 0 is written last, once it is known whether every member's
        flow kept a band.
        """
        members, count, d = self._members, self.n_members, self.dim
        cut = k is None and self.is_sublinear and members.diagonals is not None
        keys = [(math.ldexp(h, -level).hex(), k)
                for level in range(1 + (deepest if k is None and not cut else 0))]
        if all(key in self._flow_cache for key in keys):
            return self._flow_cache[keys[0]]
        levels = {}

        def keep(i, x, level):
            # x: a dense or banded cut flow, or an exponential of [[q, f], [0, 0]].
            if level < len(keys) and (i == 0 or level in levels):
                matrices, offsets, handed = levels.setdefault(
                    level, (np.empty((count, d, d)), np.empty((count, d)), []))
                b = x if len(x) >= d else _diagonal_matrices(x[:, None], d)[0]
                _keep(matrices[i], offsets[i], b[:d, :d], b[:d, d] if len(b) > d else 0.0)
                handed.append(i)

        if cut:
            parts = [_cut_exp(members.diagonals[:, i], h, _FLOW_BUDGET * h, _widest_band(d))
                     for i in range(count)]
        elif k is None:
            parts = [_exp(_augmented(q, f), h, functools.partial(keep, i))
                     for i, (q, f) in enumerate(self._pairs())]
        else:
            parts = [euler_product_exp(_augmented(q, f), h, k) for q, f in self._pairs()]
        if all(len(b) < d for b in parts):
            w = max(len(b) // 2 for b in parts)
            diagonals = np.zeros((2 * w + 1, count, d))
            for i, band in enumerate(parts):
                edge = w - len(band) // 2
                diagonals[edge:2 * w + 1 - edge, i] = band
            self._flow_cache.setdefault(keys[0], _AffineMaps(
                np.zeros((count, d)), blocks=_row_blocks(diagonals, _FLOW_BLOCK_ROWS)))
        else:
            for i, part in enumerate(parts):
                keep(i, part, 0)
        for level, (matrices, offsets, handed) in levels.items():
            if len(handed) == count:
                self._flow_cache.setdefault(keys[level], _AffineMaps(offsets, matrices))
        return self._flow_cache[keys[0]]


def _keep(matrix: np.ndarray, offset: np.ndarray, b: np.ndarray, c) -> None:
    """Write one member's flow ``b @ u + c`` into its slots of a fill's dense
    stacks, with every entry below the smallest normal double set to 0."""
    matrix[...], offset[...] = b, c
    for part in (matrix, offset):
        part[(part > -_TINY) & (part < _TINY)] = 0.0


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
    Both endpoints must be finite rate matrices; the error names the first that is not.
    """
    q0 = _as_square(q0, "q0")
    q = _as_square(q, "q")
    if q0.shape != q.shape:
        raise ValueError(f"q0 has shape {q0.shape} but q has shape {q.shape}")
    for name, lam in (("lambda_low", lambda_low), ("lambda_high", lambda_high)):
        _as_real(lam, name)
    if not lambda_low <= lambda_high:
        raise ValueError(f"empty interval: lambda_low={lambda_low} > lambda_high={lambda_high}")
    lambdas = (lambda_low, lambda_high)
    with np.errstate(over="ignore"):
        members = [q0 + lam * q for lam in lambdas]
    finite = [np.isfinite(m).all() for m in members]
    # An endpoint that overflows is checked as the zero matrix, which passes.
    fam = GeneratorFamily([m if ok else 0 * q0 for m, ok in zip(members, finite)],
                          direction=direction)
    found = fam.member_violations()
    for idx, lam in enumerate(lambdas):
        if idx in found or not finite[idx]:
            detail = _summary(found[idx]) if finite[idx] else "non-finite entries"
            raise InvalidGeneratorError(f"endpoint lambda={lam:g} gives an invalid rate "
                                        f"matrix: {detail}")
    return fam


def apply_q_operator(fam: GeneratorFamily, u, return_argmax: bool = False):
    """Componentwise extremum of ``q @ u + f`` over the family members.

    ``u`` is a vector of length d, or a (d, p) array whose columns are
    operated on independently.  With ``return_argmax=True`` also returns the
    member index attaining the extremum in each component (ties resolved to
    the lowest index).

    The member values take the path the family chose when it was built (see
    :class:`GeneratorFamily`): one banded apply, O(m d (2w + 1)) with no
    temporary larger than its result, or one product with the member stack,
    O(m d^2).  The two agree to round-off.  Sublinear families skip the add
    of their all-zero penalties.
    """
    if not (type(u) is np.ndarray and u.dtype == np.float64):
        u = _as_floats(u, "a state vector")
    if u.ndim not in (1, 2) or u.shape[0] != fam.dim:
        raise ValueError(f"expected a vector of length {fam.dim} or a ({fam.dim}, p) array, "
                         f"got shape {u.shape}")
    members = fam._members
    return members.extremum(members.values(u), fam.direction, return_argmax)


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

    The random vectors take one apply of Q to a (d, trials) block, each
    constant one apply, the spikes none: (Q (lam e_j))_i is the extremum over
    the members of lam q_ij + f_i, read from the entries the family keeps
    (``_AffineMaps.rows``); off a band they are 0, so those spikes, f_i <= 0, pass.

    Each check compares with ``tol``, a finite real >= 0, scaled by the size
    of the terms that cancel in it, ``max(1, |u|_max * max_i sum_j |q_ij|)``
    over the members, so that round-off in the row sums of large or stiff
    members is no violation; the messages quote the unscaled ``tol``.

    Returns a :class:`PmpReport`; counterexamples carry the offending values.
    """
    trials = _as_count(trials, "trials", 1)
    tol = _as_real(tol, "tolerance", "nonnegative")
    members, d = fam._members, fam.dim
    entries, columns, own_state = members.rows()
    with np.errstate(over="ignore"):
        row_norm = float(np.abs(entries).sum(axis=2).max())
    if not np.isfinite(row_norm * max(_PMP_SPIKE_SIZES)):
        raise ValueError("the members' absolute row sums overflow the checks' tolerance scale")

    def limit(size):
        return tol * np.maximum(1.0, size * row_norm)

    def failures(check, values, hit, detail, index=lambda *hits: hits):
        """A violation for each entry of ``values`` where ``hit`` is true, worded by
        ``detail`` from its value and its index as ``index`` maps it, in that order."""
        quoted, found = index(*np.unravel_index(np.flatnonzero(hit), hit.shape)), values[hit]
        return tuple(PmpViolation(check, detail(*(k[t] for k in quoted), found[t]), float(found[t]))
                     for t in np.lexsort(quoted[::-1]))

    def spikes(entries):
        """(Q (lam e_j))_i from the stacked entries lam q_ij, in place."""
        return members.extremum(members.offset_added(entries), fam.direction)

    # Row t of the draws is trial t's vector; all trials are one apply.
    draws = np.random.default_rng(rng_seed).standard_normal((trials, d))
    at_max = draws == draws.max(axis=1, keepdims=True)
    qu = apply_q_operator(fam, draws.T).T
    random = failures("random_max", qu, at_max & (qu > limit(np.abs(draws).max(axis=1))[:, None]),
                      lambda trial, i, v: f"trial {trial}: (Qu)_{i} = {v:.6g} > {tol:g} "
                                          f"at a maximum of u")

    own, foreign = (), ()
    for lam in _PMP_SPIKE_SIZES:
        bound = limit(lam)
        values = spikes(lam * entries[:, own_state].reshape(-1))
        own += failures("positive_spike", values, values > bound,
                        lambda i, v: f"(Q ({lam:g} e_{i}))_{i} = {v:.6g} > {tol:g}")
        # Entry (i, k) is (Q (-lam e_j))_i for j = columns[i, k], quoted as (j, i).
        values = spikes((-lam * entries).reshape(-1, entries.shape[2]))
        foreign += failures("negative_spike", values, ~own_state & (values > bound),
                            lambda j, i, v: f"(Q (-{lam:g} e_{j}))_{i} = {v:.6g} > {tol:g}",
                            lambda i, k: (columns[i, k], i))

    residuals = np.array([np.abs(apply_q_operator(fam, np.full(d, alpha))).max()
                          for alpha in _PMP_CONSTANTS])
    constants = failures("constant", residuals, residuals > limit(np.abs(_PMP_CONSTANTS)),
                         lambda k, v: f"||Q({_PMP_CONSTANTS[k]:g} * 1)|| = {v:.6g} > {tol:g}")

    return PmpReport((
        PmpCategory("random maxima", int(at_max.sum()), random),
        PmpCategory("own-state spikes", len(_PMP_SPIKE_SIZES) * d, own),
        PmpCategory("foreign-state spikes", len(_PMP_SPIKE_SIZES) * d * (d - 1), foreign),
        PmpCategory("constants", len(_PMP_CONSTANTS), constants),
    ))


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
    m = _as_square(m, "a matrix to write")
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
