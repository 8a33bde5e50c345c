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
# The series multiplies by the scaled matrix one diagonal at a time when its
# band is narrow: half-bandwidth w with _EXP_BAND_RATIO * (2w + 1) <= d.  The
# 2w + 1 row-shifted multiply-adds then cost O(d^2 w), against O(d^3) for a
# dense product.
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


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
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


def _check_horizon(t: float) -> None:
    if not t >= 0.0:
        raise ValueError(f"horizon must be nonnegative, got {t}")


def op_norm_inf(a) -> float:
    """Operator norm induced by the max norm: the largest absolute row sum."""
    a = _as_square(a)
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


def _banded_matmul(diagonals, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """``out = b @ x`` for a (d, p) block x and b given as its diagonals
    ``(k, b_{i,i+k})``, in increasing k: row i of the product adds up
    b_{i,i+k} times row i+k of ``x``.  ``scratch`` is a (d, p) buffer."""
    d = x.shape[0]
    out.fill(0.0)
    for k, diagonal in diagonals:
        n = d - abs(k)
        rows, source = (slice(0, n), slice(k, d)) if k >= 0 else (slice(-k, d), slice(0, n))
        np.multiply(diagonal[:, None], x[source], out=scratch[:n])
        out[rows] += scratch[:n]


def _banded_horner_step(diagonals, order: int, result: np.ndarray, out: np.ndarray,
                        scratch: np.ndarray) -> None:
    """``out = I + (b @ result) / order`` for b given as its nonzero
    diagonals ``(k, b_{i,i+k})``."""
    _banded_matmul(diagonals, result, out, scratch)
    out /= order
    out.reshape(-1)[::result.shape[0] + 1] += 1.0


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t a} by scaling and squaring.

    The number of squarings is chosen from the norm of ``t * a`` so that the
    scaled matrix has norm at most 1/2; the exponential of the scaled matrix
    is a degree-16 Taylor polynomial evaluated in Horner form.

    The series is band-aware: when every nonzero of the scaled matrix lies
    within w diagonals of the main one and 8 (2w + 1) <= d, each Horner
    product is 2w + 1 row-shifted multiply-adds instead of a dense product.
    Other matrices take dense products throughout, and the squarings are
    always dense.  The steps alternate between two preallocated buffers.

    Parameters
    ----------
    a : array_like, square
    t : nonnegative time factor

    Returns
    -------
    ndarray of the same shape as ``a``.
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix exponential of a matrix with non-finite entries")
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    b = t * a
    norm = op_norm_inf(b)
    squarings = 0
    if norm > _EXP_SCALE_THRESHOLD:
        squarings = int(np.ceil(np.log2(norm / _EXP_SCALE_THRESHOLD)))
        b /= 2.0**squarings
    d = a.shape[0]
    result, work = np.eye(d), np.empty((d, d))
    w = _half_bandwidth(b)
    if w is None:
        eye = np.eye(d)
        for order in range(_EXP_SERIES_ORDER, 0, -1):
            np.matmul(b, result, out=work)
            work /= order
            np.add(eye, work, out=work)
            result, work = work, result
    else:
        diagonals = [(k, np.diagonal(b, k).copy()) for k in range(-w, w + 1)]
        diagonals = [(k, diagonal) for k, diagonal in diagonals if diagonal.any()]
        # b lives on in its diagonals; its storage holds the products.
        for order in range(_EXP_SERIES_ORDER, 0, -1):
            _banded_horner_step(diagonals, order, result, work, scratch=b)
            result, work = work, result
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
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise ValueError("Euler product of a matrix with non-finite entries")
    if not h >= 0.0:
        raise ValueError(f"step length must be nonnegative and finite, got {h}")
    if int(k) != k or k < 1:
        raise ValueError(f"substep count must be a positive integer, got {k}")
    factor = np.eye(a.shape[0]) + (h / k) * a
    return np.linalg.matrix_power(factor, int(k))


@dataclass(frozen=True)
class AffineFlow:
    """Time-h solution map ``u -> matrix @ u + offset`` of u' = q u + f."""

    matrix: np.ndarray
    offset: np.ndarray

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def apply(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {u.shape}")
        return self.matrix @ u + self.offset


def affine_flow(q, f, h: float, k: int | None = None) -> AffineFlow:
    """Flow of the affine ODE u' = q u + f over a step of length h.

    Both parts come out of a single exponential of the block matrix
    ``[[q, f], [0, 0]]``: the top-left d-by-d block is e^{h q} and the first d
    entries of the last column are the integral of e^{s q} f over [0, h].
    When ``k`` is given, the block exponential is replaced by the k-factor
    Euler product, whose offset is the matching Riemann sum.
    """
    q = _as_square(q)
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
