"""Worst-case transition semigroup built from one-step flow suprema.

The basic operator is :func:`one_step`: the componentwise extremum of the
per-member affine flows over a single step.  Concatenating it along a
partition and refining dyadically yields upper (or lower) expectations of a
terminal vector under rate-matrix uncertainty; the attaining member choices
form an explicit worst-case control that can be replayed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .generators import GeneratorFamily
from .linalg import _TINY, _as_count, _as_floats, _as_real, _as_vector


# The deepest dyadic level a sweep runs: 2^30 steps at 7.6 us each, the
# fastest step measured, take over two hours.
_MAX_LEVEL = 30


def _sweep(fam: GeneratorFamily, t: float, n: int, u, k: int | None, directions,
           picks: list | None = None) -> np.ndarray:
    """The level-n dyadic sweep behind every envelope function.

    Column j of the returned (d, p) block, p = len(directions), is ``u``
    after 2^n envelope steps of length t/2^n in ``directions[j]``.  Every
    step takes the values of all member flows at once, an (m*d, p) block,
    and one extremum per column, in buffers allocated once.  ``picks``, if
    given, receives the attaining member indices of every step and column.
    A level that takes the step below the smallest normal double, or past
    level 30, is refused; so is a sweep that ends with a value that is not
    finite, as Euler products with too few factors give.
    """
    u = _as_vector(u, fam.dim, "a state vector")
    _as_real(t, "horizon", "nonnegative")
    n = _as_count(n, "refinement level", 0)
    out = np.column_stack((u,) * len(directions))
    if t == 0.0:
        return out
    h = math.ldexp(t, -n)  # t / 2**n overflows a float past n = 1023
    if h < _TINY <= t:
        raise ValueError(f"refinement level n={n} makes the step t/2^n = {h:g} at t = {t:g} "
                         f"smaller than the smallest normal double; use a smaller n")
    if n > _MAX_LEVEL:
        raise ValueError(f"refinement level n={n} takes 2^{n} = {2**n} steps; "
                         f"use n <= {_MAX_LEVEL}")
    flows = fam.flows(h, k)
    values = np.empty((flows.offset.size, out.shape[1]))
    columns = [(values[:, j], out[:, j], direction) for j, direction in enumerate(directions)]
    # Overflow warns nothing: a value that is not finite stays so through the
    # products and extrema, so one check after the loop refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2**n):
            flows.values(out, out=values)
            for column, best, direction in columns:
                if picks is None:
                    flows.extremum(column, direction, out=best)
                else:
                    picks.append(flows.extremum(column, direction, pick=True, out=best)[1])
    if not np.isfinite(out).all():
        raise FloatingPointError(f"the level-{n} sweep with k={k} produced non-finite values; "
                                 f"use a larger n or k")
    return out


def one_step(fam: GeneratorFamily, h: float, u, k: int | None = None) -> np.ndarray:
    """One envelope step: extremum over members of the length-h affine flows.

    ``k`` switches the member flows from exact exponentials to k-factor Euler
    products.  Flows are cached on the family per (h, k), so repeated calls
    with the same step length reuse the exponentials.  h = 0 returns u.
    """
    return _sweep(fam, h, 0, u, k, (fam.direction,))[:, 0]


def one_step_argmax(fam: GeneratorFamily, h: float, u, k: int | None = None):
    """Like :func:`one_step` but also returns the attaining member index per
    state (ties resolved to the lowest index)."""
    picks = []
    out = _sweep(fam, h, 0, u, k, (fam.direction,), picks)[:, 0]
    return out, picks[0] if picks else np.zeros(fam.dim, dtype=int)


def iterate_partition(fam: GeneratorFamily, times, u, k: int | None = None) -> np.ndarray:
    """Concatenate one-step operators along a partition of time points.

    ``times`` must start at 0 and be strictly increasing.  Steps are applied
    right to left: the subinterval ending at the final time acts on ``u``
    first.  A one-point partition ``[0]`` returns ``u`` unchanged.
    """
    times = _as_floats(times, "a partition")
    if times.ndim != 1 or times.size < 1:
        raise ValueError("a partition is a one-dimensional array of at least one time")
    if times[0] != 0.0:
        raise ValueError(f"partition must start at 0, got {times[0]}")
    steps = np.diff(times)
    if (steps <= 0).any():
        raise ValueError("partition times must be strictly increasing")
    out = _as_vector(u, fam.dim, "a state vector")
    for h in steps[::-1]:
        out = one_step(fam, h, out, k)
    return out


def envelope(fam: GeneratorFamily, t: float, n: int, u, k: int | None = None) -> np.ndarray:
    """Value at the level-n dyadic refinement: 2^n one-steps of length t/2^n.

    Nondecreasing in n for the upper direction (nonincreasing for lower);
    the limit in n is the worst-case expectation of ``u`` at horizon t.
    """
    return _sweep(fam, t, n, u, k, (fam.direction,))[:, 0]


def envelope_pair(fam: GeneratorFamily, t: float, n: int, u, k: int | None = None):
    """``(upper, lower)``: the level-n envelopes of ``u`` in both directions,
    computed in one sweep whatever the family's direction.

    Both curves step with the same member flows, so each step is one product
    of the flows with a (d, 2) block: column 0 takes the maximum over the
    members and column 1 the minimum.  The results agree with
    :func:`envelope` on the family and on its flipped twin up to round-off.
    """
    out = _sweep(fam, t, n, u, k, ("upper", "lower"))
    return out[:, 0].copy(), out[:, 1].copy()


@dataclass(frozen=True)
class EnvelopeLevel:
    """One refinement level: its value vector and the change from the level
    before (None at the starting level)."""

    n: int
    values: np.ndarray
    max_abs_increment: float | None


@dataclass(frozen=True)
class EnvelopeDiagnostics:
    levels: tuple
    converged: bool
    final_level: int


def envelope_refined(
    fam: GeneratorFamily,
    t: float,
    u,
    tol: float,
    n_max: int = 16,
    k: int | None = None,
):
    """Refine the dyadic envelope until consecutive levels differ by <= tol,
    a finite real > 0.

    Returns ``(values, diagnostics)``.  Hitting ``n_max`` without meeting the
    tolerance is reported through ``diagnostics.converged``, not raised.
    The arguments are checked before any flow is filled, and t = 0 returns
    ``u`` as the level-0 record with no fill.

    Before the first level, one exponential of t per member fills the exact
    flows (k None) of every level up to min(n_max, 30) that it passes
    through as it squares dense, bit for bit the flows each level would fill
    alone (``GeneratorFamily._fill``), unless all of them are cached.  The
    family's cache then holds those levels even if the refinement converges
    earlier.  Other flows, such as banded cut flows and Euler products, and
    levels whose exponential keeps its band, fill level by level.
    """
    tol = _as_real(tol, "tolerance", "positive")
    n_max = _as_count(n_max, "n_max", 0)
    t = _as_real(t, "horizon", "nonnegative")
    u = _as_vector(u, fam.dim, "a state vector")
    k = None if k is None else _as_count(k, "substep count", 1)
    if t == 0.0:
        return u, EnvelopeDiagnostics((EnvelopeLevel(0, u, None),), True, 0)
    fam._fill(t, k, min(n_max, _MAX_LEVEL))
    current = envelope(fam, t, 0, u, k)
    levels = [EnvelopeLevel(0, current, None)]
    converged = False
    level = 0
    for level in range(1, n_max + 1):
        refined = envelope(fam, t, level, u, k)
        increment = float(np.abs(refined - current).max())
        levels.append(EnvelopeLevel(level, refined, increment))
        current = refined
        if increment <= tol:
            converged = True
            break
    return current, EnvelopeDiagnostics(tuple(levels), converged, level)


@dataclass(frozen=True)
class ControlStep:
    """A per-state member selection held for a positive duration."""

    selection: np.ndarray
    duration: float


@dataclass(frozen=True)
class Control:
    """Piecewise-constant space-time control.

    ``steps[0]`` is the outermost flow: evaluation applies the steps from the
    last entry backwards, so the final step acts on the terminal vector
    first.  Durations are positive and sum to the horizon of the problem the
    control was built for.
    """

    steps: tuple

    @property
    def total_duration(self) -> float:
        return float(sum(step.duration for step in self.steps))


def control_evaluate(fam: GeneratorFamily, control: Control, u, k: int | None = None) -> np.ndarray:
    """Value of a fixed control: row-mixed affine flows composed right to left.

    For each step, row i of the step's transition comes from the member the
    selection picks for state i.  No extremum is taken, so the result is a
    lower bound for the upper envelope (and an upper bound for the lower one).
    The control is checked before any flow fills; a non-finite replay raises as the sweep does.
    """
    selections = [np.asarray(step.selection) for step in control.steps]
    if {(sel.shape, sel.dtype.kind) for sel in selections} - {((fam.dim,), "i"), ((fam.dim,), "u")}:
        raise ValueError("each selection must be an integer vector with one entry per state")
    if ((stacked := np.array(selections)) < 0).any() or (stacked >= fam.n_members).any():
        raise ValueError(f"selection indices must lie in [0, {fam.n_members})")
    durations = [_as_real(step.duration, "step durations", "positive") for step in control.steps]
    out = _as_vector(u, fam.dim, "a state vector")
    lookup = {h: fam.flows(h, k) for h in set(durations)}
    with np.errstate(over="ignore", invalid="ignore"):
        for flows, sel in zip(map(lookup.get, reversed(durations)), reversed(selections)):
            out = flows.select(flows.values(out), sel)
    if not np.isfinite(out).all():
        raise FloatingPointError(f"the replay with k={k} gave non-finite values; use a larger k")
    return out


def extract_worst_case_control(
    fam: GeneratorFamily,
    t: float,
    n: int,
    u,
    k: int | None = None,
) -> Control:
    """Record the attaining member of every envelope step at dyadic level n.

    Returns a control with 2^n steps of duration t/2^n whose evaluation
    replays the level-n envelope value of ``u``.  Ties go to the lowest
    member index.  t = 0 yields the empty control.
    """
    selections = []
    _sweep(fam, t, n, u, k, (fam.direction,), selections)
    h = math.ldexp(t, -n)  # the step of the sweep, which refuses a subnormal one
    return Control(tuple(ControlStep(sel, h) for sel in reversed(selections)))
