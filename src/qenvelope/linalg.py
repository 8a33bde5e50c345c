"""Dense matrix exponentials and affine flow maps.

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


def op_norm_inf(a) -> float:
    """Operator norm induced by the max norm: the largest absolute row sum."""
    a = _as_square(a)
    return float(np.abs(a).sum(axis=1).max())


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t a} by scaling and squaring.

    The number of squarings is chosen from the norm of ``t * a`` so that the
    scaled matrix has norm at most 1/2; the exponential of the scaled matrix
    is a degree-16 Taylor polynomial evaluated in Horner form.

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
    eye = np.eye(a.shape[0])
    result = eye.copy()
    for order in range(_EXP_SERIES_ORDER, 0, -1):
        result = eye + (b @ result) / order
    for _ in range(squarings):
        result = result @ result
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
    f = np.asarray(f, dtype=float)
    d = q.shape[0]
    if f.shape != (d,):
        raise ValueError(f"offset shape {f.shape} does not match matrix dimension {d}")
    if not np.isfinite(f).all():
        raise ValueError("affine flow with non-finite offset entries")
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = q
    aug[:d, d] = f
    big = mat_exp(aug, h) if k is None else euler_product_exp(aug, h, k)
    matrix = np.ascontiguousarray(big[:d, :d])
    offset = np.ascontiguousarray(big[:d, d])
    matrix.setflags(write=False)
    offset.setflags(write=False)
    return AffineFlow(matrix=matrix, offset=offset)
