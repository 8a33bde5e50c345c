"""Matrix exponentials and affine flow maps.

Everything in this module is a pure function of its arguments: no state is
shared and nothing is mutated, so concurrent use is safe.
"""

import numbers
from dataclasses import dataclass

import numpy as np

# Scaling threshold and truncation order for the exponential series.  Once the
# scaled norm is at most 1/2 the order-16 Taylor remainder is ~1e-20, well
# below double-precision round-off.
_EXP_SCALE_THRESHOLD = 0.5
_EXP_SERIES_ORDER = 16
# A banded exponential (_cut_exp) keeps diagonals while its half-band W has
# _BAND_RATIO * (2W + 1) <= d, and finishes dense past that.  One BLAS thread:
# the vol family's flows at h = 2^-8, d = 401 (W = 45, the limit is 49) fill
# in 17 ms against 165 ms dense and step in 38 us against 125 us; at d = 801
# (W = 83) in 106 ms against 1.2 s and 155 us against 1.5 ms.
_BAND_RATIO = 4
# Smallest normal double; the cached flows hold no entry of smaller magnitude.
_TINY = np.finfo(float).tiny


def _as_floats(a, what: str, copy: bool = False) -> np.ndarray:
    """``a`` as a float array, a new one if ``copy``.  Entries that are not
    bools, integers or floats raise a ValueError naming ``what``: complex
    ones, whose imaginary part a plain cast drops with a warning, strings and
    other objects, as :func:`_as_real` refuses "3" and Decimal("3")."""
    a = np.asarray(a)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"expected {what} of real numbers, got {a.dtype} entries")
    return a.astype(float, copy=copy)


def _as_square(a, what: str) -> np.ndarray:
    """``a`` as a float square matrix of at least one row with finite entries;
    ``what`` names it in the error messages."""
    a = _as_floats(a, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"expected {what} of square shape with at least one row, "
                         f"got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} with non-finite entries")
    return a


def _as_vector(v, d: int, what: str) -> np.ndarray:
    """``v`` as a new float vector of length d with finite entries; ``what``
    names it in the error messages."""
    v = _as_floats(v, what, copy=True)
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


def _as_real(value, what: str, sign: str = "") -> float:
    """``value`` as a float if it is a finite ``numbers.Real``, and > 0 or
    >= 0 where ``sign`` is 'positive' or 'nonnegative'; else a ValueError
    naming ``what``: NaN, inf, None, "3" and Decimal("3") are refused."""
    real = isinstance(value, numbers.Real)
    if not (real and -np.inf < value < np.inf
            and {"": True, "nonnegative": value >= 0, "positive": value > 0}[sign]):
        raise ValueError(f"{what} must be {sign + ' and ' if sign else ''}finite, got {value!r}"
                         + ("" if real else ", which is no real number"))
    return float(value)


def op_norm_inf(a) -> float:
    """Operator norm induced by the max norm: the largest absolute row sum."""
    a = _as_square(a, "a matrix")
    return float(np.abs(a).sum(axis=1).max())


def _widest_band(d: int) -> int:
    """The band limit of d states: the widest W with _BAND_RATIO (2W + 1) <= d."""
    return (d // _BAND_RATIO - 1) // 2


def _half_bandwidth(b: np.ndarray, widest: int) -> int | None:
    """Half-bandwidth w of ``b`` (b_ij = 0 whenever |i - j| > w), or None
    when no band of half-width at most ``widest`` holds every nonzero.

    Makes no d-by-d temporary.  Most dense matrices are turned away by the
    O(d) look at the outermost rows and columns; the full count is O(d^2).
    """
    if widest < 0:
        return None
    edge = widest + 1
    if b[0, edge:].any() or b[edge:, 0].any() or b[-1, :-edge].any() or b[:-edge, -1].any():
        return None
    counts = [np.count_nonzero(np.diagonal(b, k)) for k in range(-widest, widest + 1)]
    if sum(counts) != np.count_nonzero(b):
        return None
    return max((abs(k - widest) for k, count in enumerate(counts) if count), default=0)


def _band_diagonals(mats, w: int) -> np.ndarray:
    """The m equal square matrices of the sequence ``mats``, all of half-bandwidth
    at most w, as one read-only (2w + 1, m, d) array of diagonals, stacking none.

    Entry [j, i, r] is matrix i's entry (r, r + j - w), zero where that
    column lies outside the grid, so that row r of a product reads rows r to
    r + 2w of the operand padded with w zero rows at either end.
    """
    d = len(mats[0])
    diagonals = np.zeros((2 * w + 1, len(mats), d))
    for i, m in enumerate(mats):
        for k in range(-w, w + 1):
            diagonals[k + w, i, max(0, -k):d - max(0, k)] = np.diagonal(m, k)
    diagonals.setflags(write=False)
    return diagonals


def _banded_apply(diagonals: np.ndarray, x: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The products b_i @ x of the m matrices held as (2w + 1, m, d)
    ``diagonals`` with a (d,) or (d, p) operand x, stacked as those of an
    (m*d, d) stack and written into ``out`` if given.  Row r of each sums,
    in increasing j, diagonal j times row r + j of x padded with w zero rows
    at either end, read through one strided window view.  A vector takes one
    product with the windows and one sum; a block adds a trailing axis and
    adds up the diagonals' products one at a time, so that no temporary
    outgrows its (m, d, p) result.  Its columns equal the vector applies."""
    width, count, d = diagonals.shape
    w, trail = width // 2, x.shape[1:]
    padded = np.zeros((d + 2 * w,) + trail)
    padded[w:w + d] = x
    strides = padded.strides
    windows = np.ndarray((width, 1, d) + trail, buffer=padded, strides=(strides[0], 0) + strides)
    if not trail:
        # np.add.reduce with positional arguments is the sum without
        # ndarray.sum's Python-level wrapper or keyword parsing.
        return np.add.reduce((diagonals * windows).reshape(width, -1), 0, None, out)
    values = diagonals[0, ..., None] * windows[0]
    for j in range(1, width):
        values += diagonals[j, ..., None] * windows[j]
    if out is None:
        return values.reshape(count * d, -1)
    out[...] = values.reshape(out.shape)
    return out


def mat_exp(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{t a} by scaling and squaring (:func:`_exp`).
    Entries of a banded input's exponential below the smallest normal double
    (``np.finfo(float).tiny``) may come back as 0; an exponential that is
    not finite raises a ValueError naming t.

    Parameters
    ----------
    a : array_like, square
    t : nonnegative time factor

    Returns
    -------
    ndarray of the same shape as ``a``.
    """
    return _exp(_as_square(a, "an exponent matrix"), t)


def _exp(a: np.ndarray, t: float, stage=None) -> np.ndarray:
    """e^{t a} of a float square ``a``, dense: :func:`_cut_exp` with no cut,
    on the diagonals of a matrix whose nonzeros lie within w diagonals of
    the main one, with 4 (2w + 1) <= d, and on the dense matrix otherwise.
    ``stage`` is handed to :func:`_cut_exp`, so it sees the squares of the
    dense squarings only."""
    d = a.shape[0]
    widest = _widest_band(d)
    w = _half_bandwidth(a, widest)
    result = _cut_exp(a if w is None else _band_diagonals(a[None], w)[:, 0], t, 0.0, widest, stage)
    return result if result.shape[0] == d else _diagonal_matrices(result[:, None], d)[0]


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two d-by-d matrices held as (2w + 1, d) and (2v + 1, d)
    diagonals (the one-matrix layout of ``_band_diagonals``), as the
    (2 (w + v) + 1, d) diagonals of the result: one multiply-add of b's
    diagonals, shifted, per diagonal of a."""
    w, rows, d = a.shape[0] // 2, b.shape[0], a.shape[1]
    # shifted[:, j:j + d][l, r] is b's entry (r + j - w, r + j - w + l - v).
    shifted = np.zeros((rows, d + 2 * w))
    shifted[:, w:w + d] = b
    out, term = np.zeros((2 * w + rows, d)), np.empty((rows, d))
    for j in range(2 * w + 1):
        np.multiply(a[j], shifted[:, j:j + d], out=term)
        out[j:j + rows] += term
    return out


def _cut_band(band: np.ndarray, limit: float) -> np.ndarray:
    """``band``, (2v + 1, d) diagonals, cut to the narrowest half-band whose
    outer diagonals hold at most ``limit`` absolute mass in every row.  The
    dropped entries are added onto the main diagonal, so every row keeps its
    sum; entries below the smallest normal double are set to zero."""
    v = band.shape[0] // 2
    mass = np.abs(band)
    # Row i: the mass at offsets v - i to v, on both sides, per state.
    outer = np.cumsum(mass[:v] + mass[:v:-1], axis=0)
    drop = int(np.count_nonzero(outer.max(axis=1) <= limit))
    out = band[drop:band.shape[0] - drop].copy()
    out[v - drop] += band[:drop].sum(axis=0) + band[band.shape[0] - drop:].sum(axis=0)
    out[np.abs(out) < _TINY] = 0.0
    return out


def _cut_exp(a: np.ndarray, t: float, budget: float, widest: int, stage=None) -> np.ndarray:
    """e^{t a} by scaling and squaring, of a dense (d, d) ``a`` or of a banded
    matrix held as (2w + 1, d) diagonals (the one-matrix layout of
    ``_band_diagonals``): as the (2W + 1, d) diagonals of its cut to a
    half-band W or, once W would exceed ``widest``, as the dense (d, d)
    matrix.  With ``widest`` < (d - 1) / 2 the two shapes differ; a dense
    ``a`` counts as past the band from the start.

    The scaled b = t a / 2^s has norm at most 1/2.  The degree-16 Taylor
    series runs on e^{b} - I, in Horner form, so that the small entries of
    the early steps keep their digits, and each of the s squarings is
    (I + x)^2 = I + 2x + x^2, both inside the band while it fits.  After the
    series and after each squaring the outer diagonals are dropped
    (``_cut_band``) while at most budget / (2 (s + 1) 2^j) leaves any row, j
    squarings before the end, and the dropped entries are added onto the
    diagonal.  A squaring at most doubles an earlier change's sup norm, so
    for a rate matrix the result stays nonnegative with the row sums of
    e^{t a}, and lies within ``budget`` of it in the sup norm, round-off
    aside.  Past the band the squarings are dense products, with no more
    cuts.  A result that is not finite raises a ValueError naming t.

    ``stage``, if given, is called as ``stage(square, j)`` before each dense
    squaring, j = the squarings still to come, and must not keep the
    square.  With no budget, t / 2^j takes s - j squarings of the same
    scaled matrix, so that square is bit for bit the result for the horizon
    t / 2^j: one run passes through the exponential of every level that
    squares dense.
    """
    _as_real(t, "horizon", "nonnegative")
    d = a.shape[1]
    dense = a.shape[0] == d
    with np.errstate(over="ignore"):
        b = t * a
        ratio = np.abs(b).sum(axis=1 if dense else 0).max() / _EXP_SCALE_THRESHOLD
    if not np.isfinite(ratio):
        raise ValueError(f"t * a for t={t:g} with non-finite row sums")
    # The least s >= 0 with ratio <= 2^s, read off the exponent, so that t / 2^j
    # takes s - j squarings.  2^-s, not 2^s: s reaches 1024 where the norm
    # nears the largest double.
    fraction, exponent = np.frexp(ratio)
    squarings = max(0, int(exponent) - int(fraction == 0.5))
    # One rounding from a: t / 2^j gives the same step t / 2^s, so the same b.
    np.multiply(a, t * 2.0**-squarings, out=b)
    # Horner form of e^b - I = b (I + b/2 (I + b/3 (... (I + b/16)))).
    x = b / _EXP_SERIES_ORDER
    for order in range(_EXP_SERIES_ORDER - 1, 0, -1):
        x[np.diag_indices(d) if dense else len(x) // 2] += 1.0
        x = np.matmul(b, x) if dense else _band_product(b, x)
        x /= order
    del b  # so that no scaled matrix outlives the series
    left, w = squarings, widest + 1  # a dense a is past the band from the start
    # Overflow warns nothing: a square that is not finite stays so through
    # the later squarings, so one check of the result refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        while not dense:
            x = _cut_band(x, budget / (2 * (squarings + 1)) / 2.0**left)
            w = len(x) // 2
            if w > widest or not left:
                break
            square = _band_product(x, x)
            square[w:w + len(x)] += 2.0 * x
            x, left = square, left - 1
        x[np.diag_indices(d) if dense else w] += 1.0
        if w > widest and not dense:
            x = _diagonal_matrices(x[:, None], d)[0]
        for j in range(left, 0, -1):
            if stage is not None:
                stage(x, j)
            x = np.matmul(x, x)
    if not np.isfinite(x).all():
        raise ValueError(f"e^(t a) for t={t:g} with non-finite entries")
    return x


def _row_blocks(diagonals: np.ndarray, rows: int) -> np.ndarray:
    """The m matrices held as (2W + 1, m, d) ``diagonals`` (the layout of
    ``_band_diagonals``), as dense blocks of ``rows`` rows: a read-only
    (ceil(d / rows), m * rows, rows + 2W) array whose block k holds, in its
    rows i * rows to (i + 1) * rows, matrix i's rows from k * rows and its
    columns from k * rows - W, zero outside the matrix."""
    width, count, d = diagonals.shape
    nb = -(-d // rows)
    padded = np.zeros((width, count, nb * rows))
    padded[:, :, :d] = diagonals
    blocks = np.zeros((nb, count * rows, rows + width - 1))
    _block_diagonals(blocks, count)[...] = padded.reshape(width, count, nb, rows)
    blocks.setflags(write=False)
    return blocks


def _block_diagonals(blocks: np.ndarray, count: int) -> np.ndarray:
    """The diagonals of ``count`` matrices held as row ``blocks`` (see
    ``_row_blocks``), as one (2W + 1, m, blocks, rows) strided view into them:
    entry [j, i, k, r] is matrix i's entry (R, R + j - W), R = k * rows + r,
    which block k holds in its row i * rows + r and column r + j."""
    nb, height, span = blocks.shape
    rows = height // count
    step, row, column = blocks.strides
    return np.ndarray((span - rows + 1, count, nb, rows), buffer=blocks, dtype=blocks.dtype,
                      strides=(column, rows * row, step, row + column))


def _block_matrices(blocks: np.ndarray, count: int, d: int) -> np.ndarray:
    """The (m, d, d) matrices held as row ``blocks``: the inverse of
    ``_row_blocks``."""
    diagonals = _block_diagonals(blocks, count)
    return _diagonal_matrices(diagonals.reshape(*diagonals.shape[:2], -1), d)


def _diagonal_matrices(diagonals: np.ndarray, d: int) -> np.ndarray:
    """The (m, d, d) matrices held as (2W + 1, m, n) ``diagonals``, n >= d, in
    the layout of ``_band_diagonals``; entries for rows past d are ignored."""
    w = diagonals.shape[0] // 2
    mats = np.zeros((diagonals.shape[1], d, d))
    for k in range(-w, w + 1):
        rows = np.arange(max(0, -k), d - max(0, k))
        mats[:, rows, rows + k] = diagonals[k + w][:, rows]
    return mats


def _blocked_apply(blocks: np.ndarray, count: int, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The products b_i @ x of ``count`` matrices held as row ``blocks`` (see
    ``_row_blocks``) with a (d,) or (d, p) operand, stacked as those of an
    (m*d, d) stack and written into ``out`` if given: one batched matmul of
    the blocks with overlapping windows of x padded with zero rows."""
    nb, height, span = blocks.shape
    rows, d, columns = height // count, x.shape[0], x.reshape(x.shape[0], -1)
    w, p = (span - rows) // 2, columns.shape[1]
    padded = np.zeros((nb * rows + 2 * w, p))
    padded[w:w + d] = columns
    step, column = padded.strides
    windows = np.ndarray((nb, span, p), buffer=padded, strides=(rows * step, step, column))
    products = np.matmul(blocks, windows).reshape(nb, count, rows, p)
    if out is None:
        out = np.empty((count * d,) + x.shape[1:])
    out.reshape(count, d, p)[...] = products.transpose(1, 0, 2, 3).reshape(count, -1, p)[:, :d]
    return out


def euler_product_exp(a, h: float, k: int) -> np.ndarray:
    """Euler transition product (I + (h/k) a)^k, evaluated by binary powering.

    For a rate matrix with ``(h/k) * op_norm_inf(a) <= 1`` every factor is a
    stochastic matrix, so the product is one as well.  Converges to
    ``mat_exp(a, h)`` as k grows.
    """
    a = _as_square(a, "an exponent matrix")
    _as_real(h, "horizon", "nonnegative")
    k = _as_count(k, "substep count", 1)
    with np.errstate(over="ignore"):
        step = (h / k) * a
    step = _as_square(step, f"h / k * a for h={h:g}, k={k}")
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.linalg.matrix_power(np.eye(a.shape[0]) + step, k)
    return _as_square(power, f"(I + h / k * a)^k for h={h:g}, k={k}")


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


def _augmented(q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The (d + 1, d + 1) block matrix ``[[q, f], [0, 0]]`` of u' = q u + f."""
    d = q.shape[0]
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = q
    aug[:d, d] = f
    return aug


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
    aug = _augmented(q, _as_vector(f, d, "an offset"))
    big = mat_exp(aug, h) if k is None else euler_product_exp(aug, h, k)
    matrix = np.ascontiguousarray(big[:d, :d])
    offset = np.ascontiguousarray(big[:d, d])
    matrix.setflags(write=False)
    offset.setflags(write=False)
    return AffineFlow(matrix=matrix, offset=offset)
