"""Matrix exponentials and affine flow maps.

Everything in this module is a pure function of its arguments: no state is
shared and nothing is mutated, so concurrent use is safe.
"""

from dataclasses import dataclass

import numpy as np

# Scaling threshold and truncation order for the exponential series.  Once the
# scaled norm is at most 1/2 the order-16 Taylor remainder is ~1e-20, well
# below double-precision round-off.
_EXP_SCALE_THRESHOLD = 0.5
_EXP_SERIES_ORDER = 16
# The series multiplies by the scaled matrix through its diagonals
# (_banded_apply) when its band is narrow: half-bandwidth w with
# _EXP_BAND_RATIO * (2w + 1) <= d.  Each product then costs O(d^2 (2w + 1)),
# against O(d^3) for a dense one.  One BLAS thread, banded against dense, in
# ms: 0.37 / 0.32 at d = 202, w = 12 (banded by this rule), 0.70 / 0.44 at
# d = 202, w = 25, and 2.6 / 2.6 at d = 402, w = 25.  The crossover lies near
# 10 (2w + 1) = d, a little inside the rule; the generators here have w <= 2.
_EXP_BAND_RATIO = 8


@dataclass(frozen=True)
class Tolerances:
    """Default numerical tolerances used across the package.

    Functions that take an explicit ``tol`` argument default to one of these
    fields, so tests can tighten or relax individual checks without touching
    library code.
    """

    rate_matrix: float = 1e-12  # sign / row-sum conditions of rate matrices


TOL = Tolerances()


def _as_square(a, what: str) -> np.ndarray:
    """``a`` as a float square matrix with finite entries; ``what`` names it
    in the error messages."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected {what} of square shape, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} with non-finite entries")
    return a


def _as_vector(v, d: int, what: str) -> np.ndarray:
    """``v`` as a new float vector of length d with finite entries; ``what``
    names it in the error messages."""
    v = np.array(v, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"expected {what} of length {d}, got shape {v.shape} "
                         f"({v.size} entries)")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} with non-finite entries")
    return v


def _as_count(value, what: str, least: int) -> int:
    """``value`` as an int of at least ``least``: 3, 3.0 and np.int64(3) pass,
    while 2.5, "3", None or inf raise a ValueError naming ``what``."""
    try:
        count = int(value)
        exact = count == value
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact or count < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return count


def _check_horizon(t: float) -> None:
    if not 0.0 <= t < np.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {t}")


def op_norm_inf(a) -> float:
    """Operator norm induced by the max norm: the largest absolute row sum."""
    a = _as_square(a, "a matrix")
    return float(np.abs(a).sum(axis=1).max())


def _half_bandwidth(b: np.ndarray) -> int | None:
    """Half-bandwidth w of ``b`` (b_ij = 0 whenever |i - j| > w), or None
    when no band narrow enough for the banded series holds every nonzero.

    Makes no d-by-d temporary.  Most dense matrices are turned away by the
    O(d) look at the outermost rows and columns; the full count is O(d^2).
    """
    d = b.shape[0]
    widest = (d // _EXP_BAND_RATIO - 1) // 2
    if widest < 0:
        return None
    edge = widest + 1
    if b[0, edge:].any() or b[edge:, 0].any() or b[-1, :-edge].any() or b[:-edge, -1].any():
        return None
    counts = [np.count_nonzero(np.diagonal(b, k)) for k in range(-widest, widest + 1)]
    if sum(counts) != np.count_nonzero(b):
        return None
    return max((abs(k - widest) for k, count in enumerate(counts) if count), default=0)


def _band_diagonals(mats: np.ndarray, w: int) -> np.ndarray:
    """The m matrices of an (m, d, d) array, all of half-bandwidth at most w,
    as one read-only (2w + 1, m, d) array of diagonals.

    Entry [j, i, r] is matrix i's entry (r, r + j - w), zero where that
    column lies outside the grid, so that row r of a product reads rows r to
    r + 2w of the operand padded with w zero rows at either end.
    """
    d = mats.shape[1]
    diagonals = np.zeros((2 * w + 1, mats.shape[0], d))
    for k in range(-w, w + 1):
        diagonals[k + w, :, max(0, -k):d - max(0, k)] = np.diagonal(mats, k, axis1=1, axis2=2)
    diagonals.setflags(write=False)
    return diagonals


def _banded_apply(diagonals: np.ndarray, padded: np.ndarray, out: np.ndarray | None = None):
    """The products b_i @ x of the m matrices held as (2w + 1, m, d)
    ``diagonals`` with a (d,) or (d, p) operand x, stacked as those of an
    (m*d, d) stack would be: (m*d,) or (m*d, p).  ``padded`` is x with w
    zero rows above and below, in a contiguous array.

    Row r of every product is the sum over j, in increasing order, of
    diagonal j times row r + j of ``padded``, read through one strided
    window view.  A vector takes one product with the windows and one sum
    over them, the fewest numpy calls; a block takes one ``einsum`` into
    ``out``, (m, d, p) if given, without a (2w + 1, m, d, p) temporary.
    """
    width, count, d = diagonals.shape
    if padded.ndim == 1:
        step = padded.strides[0]
        windows = np.ndarray((width, 1, d), buffer=padded, strides=(step, 0, step))
        return (diagonals * windows).sum(axis=0).reshape(count * d)
    (row, column), p = padded.strides, padded.shape[1]
    windows = np.ndarray((width, d, p), buffer=padded, strides=(row, row, column))
    return np.einsum("jid,jdp->idp", diagonals, windows, out=out).reshape(count * d, p)


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t a} by scaling and squaring.

    The number of squarings is chosen from the norm of ``t * a`` so that the
    scaled matrix has norm at most 1/2; the exponential of the scaled matrix
    is a degree-16 Taylor polynomial evaluated in Horner form.

    The series is band-aware: when every nonzero of the scaled matrix lies
    within w diagonals of the main one and 8 (2w + 1) <= d, each Horner
    product is one banded apply (``_banded_apply``) on its 2w + 1
    diagonals instead of a dense product.  Other matrices take dense
    products throughout, and the squarings are always dense.  The steps
    alternate between two preallocated buffers.

    Parameters
    ----------
    a : array_like, square
    t : nonnegative time factor

    Returns
    -------
    ndarray of the same shape as ``a``.
    """
    a = _as_square(a, "an exponent matrix")
    _check_horizon(t)
    b = t * a
    norm = op_norm_inf(b)
    squarings = 0
    if norm > _EXP_SCALE_THRESHOLD:
        squarings = int(np.ceil(np.log2(norm / _EXP_SCALE_THRESHOLD)))
        b /= 2.0**squarings
    d = a.shape[0]
    w = _half_bandwidth(b)
    if w is None:
        result, work, eye = np.eye(d), np.empty((d, d)), np.eye(d)
        for order in range(_EXP_SERIES_ORDER, 0, -1):
            np.matmul(b, result, out=work)
            work /= order
            np.add(eye, work, out=work)
            result, work = work, result
    else:
        diagonals = _band_diagonals(b[None], w)
        # Both iterates carry the w zero rows above and below that the
        # banded apply reads, so no step copies.
        padded, spare = np.zeros((d + 2 * w, d)), np.zeros((d + 2 * w, d))
        np.fill_diagonal(padded[w:w + d], 1.0)
        for order in range(_EXP_SERIES_ORDER, 0, -1):
            work = spare[w:w + d]
            _banded_apply(diagonals, padded, out=work[None])
            work /= order
            work.reshape(-1)[::d + 1] += 1.0
            padded, spare = spare, padded
        result, work = padded[w:w + d], spare[w:w + d]
    for _ in range(squarings):
        np.matmul(result, result, out=work)
        result, work = work, result
    return result


def euler_product_exp(a, h: float, k: int) -> np.ndarray:
    """Euler transition product (I + (h/k) a)^k, evaluated by binary powering.

    For a rate matrix with ``(h/k) * op_norm_inf(a) <= 1`` every factor is a
    stochastic matrix, so the product is one as well.  Converges to
    ``mat_exp(a, h)`` as k grows.
    """
    a = _as_square(a, "an exponent matrix")
    _check_horizon(h)
    k = _as_count(k, "substep count", 1)
    factor = np.eye(a.shape[0]) + (h / k) * a
    return np.linalg.matrix_power(factor, k)


@dataclass(frozen=True)
class AffineFlow:
    """Time-h solution map ``u -> matrix @ u + offset`` of u' = q u + f."""

    matrix: np.ndarray
    offset: np.ndarray

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def apply(self, u) -> np.ndarray:
        return self.matrix @ _as_vector(u, self.dim, "a state vector") + self.offset


def affine_flow(q, f, h: float, k: int | None = None) -> AffineFlow:
    """Flow of the affine ODE u' = q u + f over a step of length h.

    Both parts come out of a single exponential of the block matrix
    ``[[q, f], [0, 0]]``: the top-left d-by-d block is e^{h q} and the first d
    entries of the last column are the integral of e^{s q} f over [0, h].
    When ``k`` is given, the block exponential is replaced by the k-factor
    Euler product, whose offset is the matching Riemann sum.
    """
    q = _as_square(q, "a flow generator")
    d = q.shape[0]
    f = _as_vector(f, d, "an offset")
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = q
    aug[:d, d] = f
    big = mat_exp(aug, h) if k is None else euler_product_exp(aug, h, k)
    matrix = np.ascontiguousarray(big[:d, :d])
    offset = np.ascontiguousarray(big[:d, d])
    matrix.setflags(write=False)
    offset.setflags(write=False)
    return AffineFlow(matrix=matrix, offset=offset)
