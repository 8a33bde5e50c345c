"""Tests for payoff construction and worst-case price bounds."""

import numpy as np
import pytest

from qenvelope import (
    METHODS,
    StateGrid,
    build_drift,
    build_laplacian,
    compare_methods,
    envelope,
    interval_generator,
    linear_reference,
    mat_exp,
    payoff_bull,
    payoff_butterfly,
    payoff_custom,
    price_bounds,
)


from _helpers import random_family

import qenvelope.generators


def _full_grid():
    return StateGrid(101, 0.1)


def _small_problem():
    d, delta = 11, 1.0
    a, b = build_laplacian(d, delta), build_drift(d, delta)
    return a, b, StateGrid(d, delta)


# ---------------------------------------------------------------- payoffs


def test_butterfly_frozen_values():
    pay = payoff_butterfly(_full_grid(), 4.0, 5.0)
    x = pay.grid.points
    assert pay.values[np.searchsorted(x, 5.0)] == 1.0
    assert pay.values[np.searchsorted(x, 4.0)] == 0.0
    assert pay.values[np.searchsorted(x, 6.5)] == 0.0
    assert pay.values.min() == 0.0 and pay.values.max() == 1.0
    # support is the open interval (K, 2L - K)
    assert (pay.values[(x <= 4.0) | (x >= 6.0)] == 0.0).all()
    assert (pay.values[(x > 4.0) & (x < 6.0)] > 0.0).all()


def test_butterfly_is_symmetric_about_its_peak():
    # the grid itself is only symmetric up to float rounding of i * 0.1
    pay = payoff_butterfly(_full_grid(), 4.0, 5.0)
    peak = 50  # x = 5.0
    for j in range(1, 10):
        assert pay.values[peak - j] == pytest.approx(pay.values[peak + j], abs=1e-12)


def test_bull_spread_frozen_values():
    pay = payoff_bull(_full_grid(), 4.0, 5.0)
    x = pay.grid.points
    assert pay.values[np.searchsorted(x, 5.0)] == 1.0
    assert pay.values[np.searchsorted(x, 3.0)] == 0.0
    assert pay.values[np.searchsorted(x, 4.5)] == 0.5
    assert (np.diff(pay.values) >= 0.0).all()
    assert pay.values.min() == 0.0 and pay.values.max() == 1.0


@pytest.mark.parametrize("builder", [payoff_butterfly, payoff_bull])
def test_strike_ordering_is_enforced(builder):
    grid = StateGrid(11, 1.0)
    with pytest.raises(ValueError, match="K < L"):
        builder(grid, 5.0, 5.0)
    with pytest.raises(ValueError, match="K < L"):
        builder(grid, 6.0, 5.0)
    with pytest.raises(ValueError, match="real"):
        builder(grid, "4", 5.0)


@pytest.mark.parametrize("builder", [payoff_butterfly, payoff_bull])
@pytest.mark.parametrize("K, L", [(-np.inf, 5.0), (4.0, np.inf)])
def test_infinite_strikes_are_rejected(builder, K, L):
    with pytest.raises(ValueError, match="finite"):
        builder(StateGrid(11, 1.0), K, L)


def test_custom_payoff_checks_shape_and_finiteness():
    grid = StateGrid(4, 1.0)
    pay = payoff_custom(grid, [0.0, 1.0, 2.0, 0.5])
    assert pay.kind == "custom"
    assert not pay.values.flags.writeable
    with pytest.raises(ValueError, match="entries"):
        payoff_custom(grid, [1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        payoff_custom(grid, [0.0, np.inf, 0.0, 0.0])


# ------------------------------------------------------------ price bounds


def test_zero_horizon_returns_the_payoff():
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    bounds = price_bounds(fam, pay, 0.0, "nisio", n=6)
    assert np.array_equal(bounds.upper, pay.values)
    assert np.array_equal(bounds.lower, pay.values)


def test_zero_width_interval_prices_like_the_linear_model():
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, 0.3, 0.3)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    bounds = price_bounds(fam, pay, 1.0, "nisio", n=10)
    assert np.array_equal(bounds.upper, bounds.lower)
    ref = linear_reference(a + 0.3 * b, pay, 1.0)
    assert np.abs(bounds.upper - ref).max() < 1e-9


def test_drift_uncertainty_curves_order_and_stay_in_payoff_range():
    # d=101, delta=0.1, lambda in [-1, 1] on the second-difference /
    # first-difference pair, butterfly payoff, 1000 Euler steps
    d, delta = 101, 0.1
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    pay = payoff_butterfly(StateGrid(d, delta), 4.0, 5.0)
    bounds = price_bounds(fam, pay, 1.0, "ode-euler", steps=1000)
    assert (bounds.upper >= bounds.lower - 1e-8).all()
    for curve in (bounds.upper, bounds.lower):
        assert (curve >= -1e-8).all() and (curve <= 1.0 + 1e-8).all()


def test_volatility_uncertainty_brackets_the_low_vol_price():
    # q0 = 0, q = second difference, lambda in [0.5, 1.5], bull spread: the
    # lambda = 0.5 linear price must lie between the curves
    d, delta = 101, 0.1
    a = build_laplacian(d, delta)
    fam = interval_generator(np.zeros((d, d)), a, 0.5, 1.5)
    pay = payoff_bull(StateGrid(d, delta), 4.0, 5.0)
    bounds = price_bounds(fam, pay, 1.0, "ode-euler", steps=1000)
    ref = linear_reference(0.5 * a, pay, 1.0)
    assert (bounds.upper >= ref - 1e-6).all()
    assert (bounds.lower <= ref + 1e-6).all()


def test_linear_references_bracket_between_the_curves():
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    bounds = price_bounds(fam, pay, 1.0, "nisio", n=12)
    for lam in np.linspace(-1.0, 1.0, 11):
        ref = linear_reference(a + lam * b, pay, 1.0)
        assert (ref <= bounds.upper + 1e-6).all()
        assert (ref >= bounds.lower - 1e-6).all()


@pytest.mark.parametrize("method, kwargs", [("ode-euler", {"steps": 500}), ("nisio", {"n": 8})])
def test_widening_the_interval_widens_the_bounds(method, kwargs):
    a, b, grid = _small_problem()
    pay = payoff_butterfly(grid, 4.0, 5.0)
    narrow = price_bounds(interval_generator(a, b, -0.5, 0.5), pay, 1.0, method, **kwargs)
    wide = price_bounds(interval_generator(a, b, -1.0, 1.0), pay, 1.0, method, **kwargs)
    assert (wide.upper >= narrow.upper - 1e-10).all()
    assert (wide.lower <= narrow.lower + 1e-10).all()


@pytest.mark.parametrize("method, kwargs", [
    ("ode-euler", {"steps": 200}),
    ("ode-rk4", {"steps": 200}),
    ("nisio", {"n": 8}),
])
def test_constant_payoff_prices_to_itself(method, kwargs):
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_custom(grid, np.full(grid.dim, 2.0))
    bounds = price_bounds(fam, pay, 1.0, method, **kwargs)
    assert np.abs(bounds.upper - 2.0).max() < 1e-8
    assert np.abs(bounds.lower - 2.0).max() < 1e-8


def test_price_bounds_config_echo():
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    ode = price_bounds(fam, pay, 1.0, "ode-euler", steps=77, config_extra={"note": "x"})
    assert ode.config == {"t": 1.0, "method": "ode-euler", "steps": 77, "note": "x"}
    nis = price_bounds(fam, pay, 1.0, "nisio", n=5, k=3)
    assert nis.config == {"t": 1.0, "method": "nisio", "n": 5, "k": 3}
    exact = price_bounds(fam, pay, 1.0, "nisio", n=5)
    assert exact.config["k"] is None


def test_price_bounds_input_validation():
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    with pytest.raises(ValueError, match="unknown method"):
        price_bounds(fam, pay, 1.0, "bisection")
    with pytest.raises(ValueError, match="upper-direction"):
        price_bounds(fam.flipped(), pay, 1.0, "nisio")
    with pytest.raises(ValueError, match="nonnegative"):
        price_bounds(fam, pay, -0.5, "nisio")
    other = payoff_butterfly(StateGrid(7, 1.0), 4.0, 5.0)
    with pytest.raises(ValueError, match="states"):
        price_bounds(fam, other, 1.0, "nisio")
    assert METHODS == ("ode-euler", "ode-rk4", "nisio")


@pytest.mark.parametrize("method, kwargs", [("ode-euler", {"steps": None}),
                                            ("nisio", {"n": None}), ("nisio", {"k": np.inf})])
def test_price_bounds_rejects_counts_that_are_no_integers(method, kwargs):
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    with pytest.raises(ValueError, match="count|level"):
        price_bounds(fam, pay, 1.0, method, **kwargs)


# -------------------------------------------------------------- references


def test_linear_reference_at_zero_horizon_is_the_payoff():
    a, _, grid = _small_problem()
    pay = payoff_bull(grid, 4.0, 5.0)
    assert np.array_equal(linear_reference(a, pay, 0.0), pay.values)


def test_linear_reference_is_the_exponential_price():
    a, b, grid = _small_problem()
    pay = payoff_butterfly(grid, 4.0, 5.0)
    q = a - 1.0 * b
    assert np.array_equal(linear_reference(q, pay, 0.7), mat_exp(q, 0.7) @ pay.values)


def test_linear_reference_validation():
    a, _, grid = _small_problem()
    pay = payoff_butterfly(grid, 4.0, 5.0)
    with pytest.raises(ValueError, match="dimension"):
        linear_reference(np.zeros((4, 4)), pay, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        linear_reference(a, pay, -1.0)


def test_an_infinite_horizon_is_rejected():
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    for method in METHODS:
        with pytest.raises(ValueError, match="nonnegative and finite"):
            price_bounds(fam, pay, np.inf, method)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        linear_reference(a, pay, np.inf)


# -------------------------------------------------------------- comparison


def test_compare_with_itself_is_zero():
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    bounds = price_bounds(fam, pay, 1.0, "nisio", n=6)
    report = compare_methods(bounds, bounds)
    assert report.max_abs_diff == 0.0
    assert report.max_abs_diff_upper == 0.0 and report.max_abs_diff_lower == 0.0
    assert np.array_equal(report.diff_upper, np.zeros(grid.dim))


def test_euler_and_rk4_agree_at_full_size():
    d, delta = 101, 0.1
    fam = interval_generator(build_laplacian(d, delta), build_drift(d, delta), -1.0, 1.0)
    pay = payoff_butterfly(StateGrid(d, delta), 4.0, 5.0)
    euler = price_bounds(fam, pay, 1.0, "ode-euler", steps=1000)
    rk4 = price_bounds(fam, pay, 1.0, "ode-rk4", steps=1000)
    report = compare_methods(euler, rk4)
    assert report.max_abs_diff < 5e-3
    assert report.first is euler and report.second is rk4


def test_compare_rejects_mismatched_runs():
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    pay = payoff_butterfly(grid, 4.0, 5.0)
    bounds = price_bounds(fam, pay, 1.0, "nisio", n=4)

    other_grid = StateGrid(11, 0.5)
    fam2 = interval_generator(build_laplacian(11, 0.5), build_drift(11, 0.5), -1.0, 1.0)
    on_other = price_bounds(fam2, payoff_butterfly(other_grid, 4.0, 5.0), 1.0, "nisio", n=4)
    with pytest.raises(ValueError, match="different grids"):
        compare_methods(bounds, on_other)

    bull = price_bounds(fam, payoff_bull(grid, 4.0, 5.0), 1.0, "nisio", n=4)
    with pytest.raises(ValueError, match="different payoffs"):
        compare_methods(bounds, bull)


# ------------------------------------------------------- one sweep, one fill


def test_nisio_price_fills_each_member_flow_once(monkeypatch):
    calls = []
    original = qenvelope.generators.affine_flow

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(qenvelope.generators, "affine_flow", counting)
    a, b, grid = _small_problem()
    fam = interval_generator(a, b, -1.0, 1.0)
    price_bounds(fam, payoff_butterfly(grid, 4.0, 5.0), 1.0, "nisio", n=6)
    assert len(calls) == fam.n_members


@pytest.mark.parametrize("k", [None, 4])
def test_one_sweep_matches_the_two_envelopes(k):
    rng = np.random.default_rng(31)
    d = 7
    fam = random_family(rng, d, members=3, convex=True)
    pay = payoff_custom(StateGrid(d, 1.0), rng.uniform(-1.0, 1.0, d))
    bounds = price_bounds(fam, pay, 0.8, "nisio", n=5, k=k)
    upper = envelope(fam, 0.8, 5, pay.values, k=k)
    lower = envelope(fam.flipped(), 0.8, 5, pay.values, k=k)
    assert np.allclose(bounds.upper, upper, rtol=0, atol=1e-13)
    assert np.allclose(bounds.lower, lower, rtol=0, atol=1e-13)
    assert (bounds.upper >= bounds.lower).all()
