"""Fixed-step explicit integrators for u' = Q u with a convex rate operator.

Both solvers march the full nonlinear right-hand side
:func:`~qenvelope.generators.apply_q_operator`; for a one-member family they
reduce to the classical schemes for the linear equation.
"""

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorFamily, apply_q_operator
from .linalg import _as_count, _as_vector


@dataclass(frozen=True)
class Trajectory:
    """Recorded integrator states: ``values[i]`` is the solution at ``times[i]``."""

    times: np.ndarray
    values: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def _snapshot_set(steps: int, snapshots: int | None):
    if snapshots is not None:
        snapshots = _as_count(snapshots, "snapshot count (both endpoint snapshots included)", 2)
    if snapshots is None or snapshots >= steps + 1:
        return set(range(steps + 1))
    marks = np.round(np.linspace(0, steps, snapshots)).astype(int)
    return set(int(m) for m in marks)


def _integrate(fam, u0, t, steps, snapshots, advance) -> Trajectory:
    u = _as_vector(u0, fam.dim, "an initial vector")
    if not 0.0 < t < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {t}")
    steps = _as_count(steps, "step count", 1)
    h = t / steps
    keep = _snapshot_set(steps, snapshots)
    rec_times, rec_values = [0.0], [u.copy()]
    for j in range(1, steps + 1):
        u = advance(u, h)
        if not np.isfinite(u).all():
            raise FloatingPointError(
                f"integration produced non-finite values at step {j} of {steps}; "
                f"use more steps for this generator"
            )
        if j in keep:
            rec_times.append(j * h)
            rec_values.append(u.copy())
    return Trajectory(np.array(rec_times), np.array(rec_values))


def solve_euler(fam: GeneratorFamily, u0, t: float, steps: int,
                snapshots: int | None = 101) -> Trajectory:
    """Explicit Euler iteration u_{j+1} = u_j + h Q u_j with h = t / steps.

    When ``h * max_i |q_ii| <= 1`` for every member, each update is a
    convex-combination step and the iteration inherits monotonicity and
    boundedness from the one-step transition kernels.

    ``snapshots`` bounds how many states are stored (endpoints always
    included, evenly spaced in step index); None stores every step.
    """

    def advance(u, h):
        return u + h * apply_q_operator(fam, u)

    return _integrate(fam, u0, t, steps, snapshots, advance)


def solve_rk4(fam: GeneratorFamily, u0, t: float, steps: int,
              snapshots: int | None = 101) -> Trajectory:
    """Classical four-stage Runge-Kutta iteration for the same right-hand side."""

    def advance(u, h):
        k1 = apply_q_operator(fam, u)
        k2 = apply_q_operator(fam, u + 0.5 * h * k1)
        k3 = apply_q_operator(fam, u + 0.5 * h * k2)
        k4 = apply_q_operator(fam, u + h * k3)
        return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _integrate(fam, u0, t, steps, snapshots, advance)
