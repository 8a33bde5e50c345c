"""Payoffs on a price grid and worst-case price curves under uncertainty.

The upper (lower) price of a claim is the value of the supremum (infimum)
envelope applied to the payoff vector, computed either by the dyadic
semigroup iteration or by direct time stepping of u' = Q u.
"""

from dataclasses import dataclass

import numpy as np

from .generators import GeneratorFamily, StateGrid
from .linalg import _as_count, _as_real, _as_square, _as_vector
from .ode import solve_euler, solve_rk4
from .semigroup import envelope, envelope_pair

METHODS = ("ode-euler", "ode-rk4", "nisio")


@dataclass(frozen=True)
class Payoff:
    """A payoff vector over a state grid, tagged with how it was built."""

    kind: str
    grid: StateGrid
    values: np.ndarray
    K: float | None = None
    L: float | None = None


def _check_strikes(K, L):
    if not _as_real(K, "strike K") < _as_real(L, "strike L"):
        raise ValueError(f"strikes must satisfy K < L, got K={K}, L={L}")


def payoff_butterfly(grid: StateGrid, K: float, L: float) -> Payoff:
    """Butterfly centred at L: max(L - K - |x - L|, 0), peak height L - K."""
    _check_strikes(K, L)
    values = np.maximum(L - K - np.abs(grid.points - L), 0.0)
    values.setflags(write=False)
    return Payoff("butterfly", grid, values, K=float(K), L=float(L))


def payoff_bull(grid: StateGrid, K: float, L: float) -> Payoff:
    """Bull spread: min(max(x - K, 0), L - K), capped call between K and L."""
    _check_strikes(K, L)
    values = np.minimum(np.maximum(grid.points - K, 0.0), L - K)
    values.setflags(write=False)
    return Payoff("bull", grid, values, K=float(K), L=float(L))


def payoff_custom(grid: StateGrid, values) -> Payoff:
    """Wrap an arbitrary finite payoff vector matching the grid."""
    values = _as_vector(values, grid.dim, "a payoff")
    values.setflags(write=False)
    return Payoff("custom", grid, values)


def _solver_config(method: str, steps, n, k) -> dict:
    """The checked arguments that ``method`` reads, as :func:`price_bounds`
    echoes them: ``n`` and ``k`` for 'nisio', ``steps`` otherwise."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "nisio":
        return {"n": _as_count(n, "refinement level", 0),
                "k": None if k is None else _as_count(k, "substep count", 1)}
    return {"steps": _as_count(steps, "step count", 1)}


@dataclass(frozen=True)
class PriceBounds:
    """Upper and lower price curves plus an echo of how they were computed."""

    grid: StateGrid
    payoff: Payoff
    upper: np.ndarray
    lower: np.ndarray
    method: str
    config: dict


def price_bounds(
    fam: GeneratorFamily,
    payoff: Payoff,
    t: float,
    method: str = "ode-euler",
    steps: int = 1000,
    n: int = 10,
    k: int | None = None,
) -> PriceBounds:
    """Upper and lower claim prices at horizon t for one generator family.

    ``fam`` must be in the upper direction; the lower curve is produced by
    flipping the family, so a single call prices both sides consistently.
    The dyadic route advances both curves in one sweep over the same member
    flows; the ODE routes make one solver run per curve.

    Parameters
    ----------
    method : 'ode-euler' | 'ode-rk4' (time stepping with ``steps`` steps) or
        'nisio' (dyadic envelope at level ``n``; ``k`` selects Euler-product
        exponentials with k factors, None exact ones).
    t : horizon, >= 0.  At t = 0 both curves equal the payoff.
    """
    if fam.direction != "upper":
        raise ValueError("price_bounds expects the upper-direction family; "
                         "the lower curve is derived by flipping it")
    if payoff.grid.dim != fam.dim:
        raise ValueError(f"payoff lives on {payoff.grid.dim} states, family on {fam.dim}")
    _as_real(t, "horizon", "nonnegative")
    config = {"t": float(t), "method": method, **_solver_config(method, steps, n, k)}

    if t == 0.0:
        upper = payoff.values.copy()
        lower = payoff.values.copy()
    elif method == "nisio":
        upper, lower = envelope_pair(fam, t, n, payoff.values, k=k)
    else:
        solver = solve_euler if method == "ode-euler" else solve_rk4
        upper = solver(fam, payoff.values, t, steps, snapshots=2).final
        lower = solver(fam.flipped(), payoff.values, t, steps, snapshots=2).final
    return PriceBounds(payoff.grid, payoff, upper, lower, method, config)


def linear_reference(q_lin, payoff: Payoff, t: float) -> np.ndarray:
    """Price under one fixed rate matrix, e^{t q} u: the level-0 envelope of the
    family (q,), from the fill the curves take.  A banded rate matrix at d >= 150
    takes a cut flow, within 2^-53 t ||u||_inf of e^{t q} u plus round-off."""
    q_lin = _as_square(q_lin, "a reference rate matrix")
    if q_lin.shape[0] != payoff.grid.dim:
        raise ValueError(f"matrix of dimension {q_lin.shape[0]} against a "
                         f"{payoff.grid.dim}-state payoff")
    return envelope(GeneratorFamily((q_lin,)), t, 0, payoff.values)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-state and maximal differences between two pricing runs."""

    max_abs_diff_upper: float
    max_abs_diff_lower: float
    diff_upper: np.ndarray
    diff_lower: np.ndarray
    first: PriceBounds
    second: PriceBounds

    @property
    def max_abs_diff(self) -> float:
        return max(self.max_abs_diff_upper, self.max_abs_diff_lower)


def compare_methods(first: PriceBounds, second: PriceBounds) -> ComparisonReport:
    """Difference report for two bounds on the same grid and payoff."""
    if first.grid != second.grid:
        raise ValueError("price bounds were computed on different grids")
    if not np.array_equal(first.payoff.values, second.payoff.values):
        raise ValueError("price bounds were computed for different payoffs")
    diff_upper = first.upper - second.upper
    diff_lower = first.lower - second.lower
    return ComparisonReport(
        float(np.abs(diff_upper).max()),
        float(np.abs(diff_lower).max()),
        diff_upper,
        diff_lower,
        first,
        second,
    )
