import math

import numpy as np
import pytest

from apmarkov.invariant import (ContractionError, PowerIterationError, SkeletonMap,
                                gaussian_kernel_matrix,
                                invariant_gaussian, limiting_value,
                                power_iteration_invariant,
                                skeleton_fixed_point_variance,
                                skeleton_kernel_matrix)
from apmarkov.measures import Mesh, MeshMeasure
from apmarkov.ou import OUSpec, default_ou_spec, drift_profile, transition_params
from apmarkov.paths import Observable
from apmarkov.timefns import const

X2 = Observable("x2", lambda x: x * x)
ONE = Observable("one", lambda x: np.ones_like(x), bound=1.0)
X = Observable("x", lambda x: x)


def unit_g_spec() -> OUSpec:
    one = const(1.0, lower=1.0, upper=1.0)
    return OUSpec(lam=one, g=const(1.0, lower=1.0, upper=1.0, period=1.0), gamma=1.0)


def test_unit_skeleton_frozen_values():
    spec = unit_g_spec()
    sk = SkeletonMap.from_spec(spec)
    assert sk.a == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert sk.s0 ** 2 == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-9)
    _, var = invariant_gaussian(spec)
    # stationary OU variance 1/(2 lam0) with lam0 = 1
    assert var == pytest.approx(0.5, rel=1e-9)


def test_fixed_point_property_machine_precision():
    spec = default_ou_spec()
    sk = SkeletonMap.from_spec(spec)
    _, var = invariant_gaussian(spec)
    assert sk.a ** 2 * var + sk.s0 ** 2 == pytest.approx(var, rel=1e-14)


def test_degenerate_noise_gives_point_mass():
    assert skeleton_fixed_point_variance(SkeletonMap(a=0.5, s0=0.0)) == 0.0


def test_non_contracting_skeleton_raises():
    with pytest.raises(ContractionError, match="not contracting"):
        skeleton_fixed_point_variance(SkeletonMap(a=1.0, s0=0.3))


def test_zero_drift_spec_rejected_upstream():
    zero = const(0.0, lower=0.0, upper=0.0)
    spec = OUSpec(lam=zero, g=const(0.0, lower=0.0, upper=0.0, period=1.0), gamma=1.0)
    with pytest.raises(ValueError):
        spec.validate()


# -- power iteration ----------------------------------------------------------

def test_identity_kernel_keeps_uniform():
    mesh = Mesh(-1.0, 1.0, 10)
    mu, iters = power_iteration_invariant(np.eye(10), mesh, tol=1e-12)
    np.testing.assert_allclose(mu.weights, 0.1, atol=1e-14)
    assert iters == 1


def test_symmetric_two_state_chain():
    mesh = Mesh(0.0, 2.0, 2)
    k = np.array([[0.5, 0.5], [0.5, 0.5]])
    mu, _ = power_iteration_invariant(k, mesh, tol=1e-14)
    np.testing.assert_allclose(mu.weights, [0.5, 0.5], atol=1e-14)


def test_power_iteration_validates_rows():
    mesh = Mesh(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="sum to 1"):
        power_iteration_invariant(np.array([[0.6, 0.6], [0.5, 0.5]]), mesh)


def test_power_iteration_shape_mismatch():
    mesh = Mesh(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="shape"):
        power_iteration_invariant(np.eye(2), mesh)


def test_power_iteration_iteration_budget():
    mesh = Mesh(0.0, 1.0, 2)
    k = np.array([[0.9, 0.1], [0.5, 0.5]])
    with pytest.raises(PowerIterationError):
        power_iteration_invariant(k, mesh, tol=1e-14, max_iter=2)


def test_discretized_skeleton_matches_analytic_variance():
    spec = unit_g_spec()
    mesh = Mesh(-6.0, 6.0, 400)
    mu, iters = power_iteration_invariant(skeleton_kernel_matrix(spec, mesh), mesh,
                                          tol=1e-12)
    assert abs(mu.variance() - 0.5) <= 1e-3
    assert abs(mu.mean()) <= 1e-9
    assert iters < 200


def test_kernel_matrix_rows_are_stochastic():
    mesh = Mesh(-6.0, 6.0, 100)
    k = gaussian_kernel_matrix(0.4, 0.8, mesh)
    np.testing.assert_allclose(k.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(k >= 0.0)


def test_kernel_matrix_degenerate_sigma():
    mesh = Mesh(-1.0, 1.0, 8)
    k = gaussian_kernel_matrix(0.5, 0.0, mesh)
    np.testing.assert_allclose(k.sum(axis=1), 1.0)
    mu = MeshMeasure(mesh, np.full(8, 0.125))
    pushed = MeshMeasure(mesh, mu.weights @ k)
    assert pushed.mesh == mesh


# -- limiting value -----------------------------------------------------------

def test_limiting_value_x2_unit_g():
    # e^{-2s}/2 + (1 - e^{-2s})/2 = 1/2 for every phase s
    assert limiting_value(unit_g_spec(), X2) == pytest.approx(0.5, rel=1e-9)


def test_limiting_value_of_one_is_one():
    assert limiting_value(unit_g_spec(), ONE) == pytest.approx(1.0, rel=1e-12)


def test_limiting_value_odd_observable_vanishes():
    assert limiting_value(unit_g_spec(), X) == pytest.approx(0.0, abs=1e-12)


def test_limiting_value_period_return():
    # one full period of the phase law returns to the skeleton invariant:
    # the profile limiting_value integrates is gamma-periodic
    spec = default_ou_spec()
    _, var_inf = invariant_gaussian(spec)
    _, a, var = drift_profile(spec.g, 0.0, spec.gamma, 512)
    assert abs(math.exp(-2.0 * a[-1]) * var_inf + var[-1] - var_inf) <= 1e-10


@pytest.mark.filterwarnings("error")
def test_limiting_value_long_period_is_finite():
    # exp(2 A) over one period is exp(800) here; the profile must not form it
    one = const(1.0, lower=1.0, upper=1.0)
    spec = OUSpec(lam=one, g=const(1.0, lower=1.0, upper=1.0, period=400.0), gamma=400.0)
    value = limiting_value(spec, X2)
    assert math.isfinite(value)
    assert abs(value - 0.5) <= 5e-3


def test_limiting_value_accepts_plain_callable():
    assert limiting_value(unit_g_spec(), lambda x: x * x) == pytest.approx(0.5, rel=1e-9)


def test_phase_law_variance_is_constant_for_unit_g():
    # push the invariant through partial periods: variance stays 1/2
    spec = unit_g_spec()
    _, var_inf = invariant_gaussian(spec)
    for s in (0.1, 0.35, 0.8):
        tr = transition_params(spec.g, 0.0, s)
        assert tr.m ** 2 * var_inf + tr.sigma ** 2 == pytest.approx(0.5, rel=1e-10)
