import math

import numpy as np
import pytest

from apmarkov.timefns import (TimeFunctionError, TimeGrid, const,
                              cumulative_integral, derivative, parse_time_function)

RNG = np.random.default_rng(2024)

# corpus of (text, reference lambda) pairs used across the property checks
CORPUS = [
    ("1 + 0.5*sin(2*pi*t/1.0) + 0.3*exp(-0.7*t)",
     lambda t: 1 + 0.5 * np.sin(2 * np.pi * t) + 0.3 * np.exp(-0.7 * t)),
    ("(1 + 0.25*sin(2*pi*t)) / (1 + 0.3*exp(-0.7*t))",
     lambda t: (1 + 0.25 * np.sin(2 * np.pi * t)) / (1 + 0.3 * np.exp(-0.7 * t))),
    ("cos(t)^2 + 0.1*t", lambda t: np.cos(t) ** 2 + 0.1 * t),
    ("exp(-t^2/4)", lambda t: np.exp(-t ** 2 / 4)),
    ("2", lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float))),
    ("-t + t*t", lambda t: -t + t * t),
]


@pytest.mark.parametrize("text,ref", CORPUS)
def test_parse_matches_reference(text, ref):
    f = parse_time_function(text)
    ts = RNG.uniform(0, 5, 50)
    np.testing.assert_allclose(f(ts), ref(ts), rtol=1e-12)
    # scalar evaluation too
    assert f(1.25) == pytest.approx(float(ref(1.25)), rel=1e-12)


def test_parse_power_forms():
    assert parse_time_function("t**3")(2.0) == pytest.approx(8.0)
    assert parse_time_function("t^3")(2.0) == pytest.approx(8.0)
    assert parse_time_function("2^2")(0.0) == pytest.approx(4.0)


@pytest.mark.parametrize("bad", [
    "1 +", "sin(t", "t t", "sin", "2 ** t", "t^(1+t)", "foo(t)", "", "1..2",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(TimeFunctionError):
        parse_time_function(bad)


def test_declared_bounds_and_period_checks():
    g = parse_time_function("1 + 0.5*sin(2*pi*t)", lower=0.5, upper=1.5, period=1.0)
    assert g.check_bounds()
    assert g.check_periodicity()
    too_tight = parse_time_function("1 + 0.5*sin(2*pi*t)", lower=0.6, upper=1.5)
    assert not too_tight.check_bounds()
    not_periodic = parse_time_function("t", period=1.0)
    assert not not_periodic.check_periodicity()


# -- derivatives -------------------------------------------------------------

def test_derivative_of_constant_is_zero():
    assert derivative(const(3.7), 1.2, order=1) == 0.0
    assert derivative(const(3.7), 1.2, order=2) == 0.0


def test_derivative_sin_frozen_values():
    h = parse_time_function("sin(2*pi*t)")
    assert derivative(h, 0.0, order=1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert derivative(h, 0.0, order=2) == pytest.approx(0.0, abs=1e-12)


def test_derivative_order_validation():
    f = parse_time_function("t")
    with pytest.raises(TimeFunctionError):
        derivative(f, 0.0, order=3)


@pytest.mark.parametrize("text,_", CORPUS)
def test_derivatives_match_central_differences(text, _):
    f = parse_time_function(text)
    ts = RNG.uniform(0.1, 5, 100)
    eps = 1e-5
    d1 = f.derivative_fn(1)(ts)
    fd1 = (f(ts + eps) - f(ts - eps)) / (2 * eps)
    np.testing.assert_allclose(d1, fd1, rtol=1e-6, atol=1e-8)
    d2 = f.derivative_fn(2)(ts)
    fd2 = (f(ts + eps) - 2 * f(ts) + f(ts - eps)) / eps ** 2
    np.testing.assert_allclose(d2, fd2, rtol=1e-4, atol=1e-5)


# -- cumulative integrals ----------------------------------------------------

def test_cumulative_constant_is_linear():
    grid = TimeGrid(t0=0.0, dt=0.1, n_steps=20)
    out = cumulative_integral(const(1.0), 0.0, grid)
    np.testing.assert_allclose(out, grid.times(), rtol=0, atol=1e-14)


def test_cumulative_clock_constant_boundaries():
    grid = TimeGrid(t0=0.0, dt=0.05, n_steps=40)
    h1 = const(1.0)
    clock = cumulative_integral(const(1.0) / (h1 * h1), 0.0, grid)
    np.testing.assert_allclose(clock, grid.times(), atol=1e-14)
    h2 = const(2.0)
    clock2 = cumulative_integral(const(1.0) / (h2 * h2), 0.0, grid)
    np.testing.assert_allclose(clock2, grid.times() / 4.0, atol=1e-14)


def test_cumulative_endpoint_matches_integrate():
    f = parse_time_function("1 + 0.5*sin(2*pi*t) + 0.3*exp(-0.7*t)")
    grid = TimeGrid(t0=0.5, dt=0.01, n_steps=250)
    out = cumulative_integral(f, 0.5, grid)

    def anti(t):  # closed-form antiderivative of f
        return t - math.cos(2 * math.pi * t) / (4 * math.pi) - (0.3 / 0.7) * math.exp(-0.7 * t)

    ref = anti(grid.t_end) - anti(0.5)
    tol = 1e-10
    assert abs(out[-1] - ref) <= 10 * tol + 1e-11


def test_cumulative_monotone_for_nonnegative():
    f = parse_time_function("cos(t)^2")
    grid = TimeGrid(t0=0.0, dt=0.02, n_steps=300)
    out = cumulative_integral(f, 0.0, grid)
    assert np.all(np.diff(out) >= -1e-15)


def test_cumulative_requires_matching_start():
    grid = TimeGrid(t0=1.0, dt=0.1, n_steps=5)
    with pytest.raises(TimeFunctionError):
        cumulative_integral(const(1.0), 0.0, grid)


def test_grid_validation():
    with pytest.raises(TimeFunctionError):
        TimeGrid(t0=0.0, dt=-0.1, n_steps=5)
    with pytest.raises(TimeFunctionError):
        TimeGrid(t0=0.0, dt=0.1, n_steps=0)
    grid = TimeGrid(t0=1.0, dt=0.25, n_steps=4)
    assert grid.t_end == pytest.approx(2.0)
    np.testing.assert_allclose(grid.times(), [1.0, 1.25, 1.5, 1.75, 2.0])
