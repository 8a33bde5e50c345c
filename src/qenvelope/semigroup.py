"""Worst-case transition semigroup built from one-step flow suprema.

The basic operator is :func:`one_step`: the componentwise extremum of the
per-member affine flows over a single step.  Concatenating it along a
partition and refining dyadically yields upper (or lower) expectations of a
terminal vector under rate-matrix uncertainty; the attaining member choices
form an explicit worst-case control that can be replayed.
"""

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorFamily, _extremum
from .linalg import _as_count, _as_vector, _check_horizon


def _sweep(fam: GeneratorFamily, t: float, n: int, u, k: int | None, directions,
           picks: list | None = None) -> np.ndarray:
    """The level-n dyadic sweep behind every envelope function.

    Column j of the returned (d, p) block, p = len(directions), is ``u``
    after 2^n envelope steps of length t/2^n in ``directions[j]``.  Every
    step is one (m*d, d) @ (d, p) product with the stacked member flows and
    one extremum per column, in buffers allocated once.  ``picks``, if
    given, receives the attaining member indices of every step and column.
    """
    u = _as_vector(u, fam.dim, "a state vector")
    _check_horizon(t)
    n = _as_count(n, "refinement level", 0)
    out = np.column_stack((u,) * len(directions))
    if t == 0.0:
        return out
    flows = fam.flows(t / 2**n, k)
    offset = flows.offset[:, None]
    values = np.empty((offset.shape[0], out.shape[1]))
    columns = [(values[:, j], out[:, j], direction) for j, direction in enumerate(directions)]
    for _ in range(2**n):
        np.matmul(flows.matrix, out, out=values)
        values += offset
        for column, best, direction in columns:
            if picks is None:
                _extremum(column, fam.n_members, direction, out=best)
            else:
                picks.append(_extremum(column, fam.n_members, direction, pick=True, out=best)[1])
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
    times = np.asarray(times, dtype=float)
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

    Both curves step with the same member flows, so each step is one
    (m*d, d) @ (d, 2) product: column 0 takes the maximum over the members
    and column 1 the minimum.  The results agree with :func:`envelope` on
    the family and on its flipped twin up to round-off.
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
    """Refine the dyadic envelope until consecutive levels differ by <= tol.

    Returns ``(values, diagnostics)``.  Hitting ``n_max`` without meeting the
    tolerance is reported through ``diagnostics.converged``, not raised.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    n_max = _as_count(n_max, "n_max", 0)
    current = envelope(fam, t, 0, u, k)
    levels = [EnvelopeLevel(0, current, None)]
    if t == 0.0:
        return current, EnvelopeDiagnostics(tuple(levels), True, 0)
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


def _check_control(fam: GeneratorFamily, control: Control) -> None:
    for step in control.steps:
        sel = np.asarray(step.selection)
        if sel.shape != (fam.dim,) or not np.issubdtype(sel.dtype, np.integer):
            raise ValueError("each selection must be an integer vector with one entry per state")
        if (sel < 0).any() or (sel >= fam.n_members).any():
            raise ValueError(f"selection indices must lie in [0, {fam.n_members})")
        if not step.duration > 0.0:
            raise ValueError(f"step durations must be positive, got {step.duration}")


def control_evaluate(fam: GeneratorFamily, control: Control, u, k: int | None = None) -> np.ndarray:
    """Value of a fixed control: row-mixed affine flows composed right to left.

    For each step, row i of the step's transition comes from the member the
    selection picks for state i.  No extremum is taken, so the result is a
    lower bound for the upper envelope (and an upper bound for the lower one).
    """
    _check_control(fam, control)
    out = _as_vector(u, fam.dim, "a state vector")
    rows = np.arange(fam.dim)
    for step in reversed(control.steps):
        flows = fam.flows(step.duration, k)
        # Row i of member s is row s*d + i of the stacked flow.
        picked = np.asarray(step.selection) * fam.dim + rows
        out = (flows.matrix @ out + flows.offset)[picked]
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
    h = t / 2**n
    return Control(tuple(ControlStep(sel, h) for sel in reversed(selections)))
