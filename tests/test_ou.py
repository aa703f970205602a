import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr

from apmarkov.measures import Mesh
from apmarkov.ou import (GaussianTransition, OUSpec, _ndtr, asymptotic_periodicity_report,
                         default_ou_spec, drift_profile, gaussian_tv,
                         grid_transition_params, transition_params)
from apmarkov.timefns import TimeGrid, const, parse_time_function

from oracles import gaussian_tv_exact, ou_constant_variance

RNG = np.random.default_rng(99)

ZERO = const(0.0, lower=0.0, upper=0.0)
UNIT = const(1.0, lower=1.0, upper=1.0)


def test_zero_drift_is_brownian():
    for s, t in [(0.0, 1.0), (0.2, 0.7), (3.0, 3.5)]:
        tr = transition_params(ZERO, s, t)
        assert tr.m == pytest.approx(1.0, rel=1e-12)
        assert tr.sigma ** 2 == pytest.approx(t - s, rel=1e-12)


def test_degenerate_window_is_identity():
    tr = transition_params(UNIT, 1.3, 1.3)
    assert tr.m == 1.0 and tr.sigma == 0.0


def test_unit_drift_closed_form():
    tr = transition_params(UNIT, 0.0, 1.0)
    assert tr.m == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert tr.sigma ** 2 == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-9)


def test_constant_drift_exactness_property():
    for _ in range(20):
        lam0 = RNG.uniform(0.05, 3.0)
        s = RNG.uniform(0.0, 2.0)
        dt = RNG.uniform(0.01, 2.0)
        tr = transition_params(const(lam0, lower=lam0, upper=lam0), s, s + dt)
        assert tr.sigma ** 2 == pytest.approx(ou_constant_variance(lam0, dt), rel=1e-9)


@settings(max_examples=300, deadline=None)
@given(times=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3).map(sorted),
       use_auxiliary=st.booleans())
def test_chapman_kolmogorov_composition(times, use_auxiliary):
    s, u, t = times
    drift = default_ou_spec().drift(use_auxiliary)
    comp = transition_params(drift, s, u).compose(transition_params(drift, u, t))
    whole = transition_params(drift, s, t)
    assert comp.m == pytest.approx(whole.m, rel=1e-9)
    assert comp.sigma ** 2 == pytest.approx(whole.sigma ** 2, rel=1e-9, abs=1e-15)


def _normal_scale(lo, hi):  # no squares or products in the subnormal range
    return st.floats(lo, hi).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)


_TRANSITIONS = st.builds(GaussianTransition, m=_normal_scale(-2.0, 2.0),
                         sigma=_normal_scale(0.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(a=_TRANSITIONS, b=_TRANSITIONS, c=_TRANSITIONS)
def test_compose_is_associative(a, b, c):
    left, right = a.compose(b).compose(c), a.compose(b.compose(c))
    assert left.m == pytest.approx(right.m, rel=1e-12, abs=1e-300)
    assert left.sigma == pytest.approx(right.sigma, rel=1e-12, abs=1e-300)


def test_drift_profile_matches_transition_params_over_many_blocks():
    # 1001 periods span ~15 blocks of the profile's variance weight; the
    # Chapman-Kolmogorov join between blocks must not lose accuracy
    g = default_ou_spec().g
    u, a, var = drift_profile(g, 0.0, 1001.0, 1001 * 384)
    for periods in (1, 500, 1001):
        i = periods * 384
        tr = transition_params(g, 0.0, float(periods))
        assert u[i] == pytest.approx(periods, rel=1e-12)
        assert math.exp(-a[i]) == pytest.approx(tr.m, rel=1e-10)
        assert var[i] == pytest.approx(tr.sigma ** 2, rel=1e-10)


def test_auxiliary_transitions_are_periodic():
    spec = default_ou_spec()
    for _ in range(20):
        s = RNG.uniform(0.0, 2.0)
        t = s + RNG.uniform(0.01, 2.0)
        a = transition_params(spec.g, s, t)
        b = transition_params(spec.g, s + spec.gamma, t + spec.gamma)
        assert abs(a.m - b.m) <= 1e-10
        assert abs(a.sigma - b.sigma) <= 1e-10


def test_grid_params_match_single_shot():
    spec = default_ou_spec()
    grid = TimeGrid(0.37, 0.01, 25)
    m, sig = grid_transition_params(spec.lam, grid)
    for k in (0, 7, 24):
        tr = transition_params(spec.lam, grid.times()[k], grid.times()[k + 1])
        assert m[k] == pytest.approx(tr.m, rel=1e-11)
        assert sig[k] == pytest.approx(tr.sigma, rel=1e-9)


def test_sigma_validation():
    with pytest.raises(ValueError):
        GaussianTransition(m=1.0, sigma=-0.1)


def test_use_auxiliary_switches_drift():
    spec = default_ou_spec()
    assert spec.drift(True) is spec.g
    assert spec.drift(False) is spec.lam


# -- validation of the spec type ---------------------------------------------

def test_default_spec_validates():
    spec = default_ou_spec()
    spec.validate()
    assert spec.c_inf() > 0.9  # mean rate stays near 1 for the default drift


def test_spec_rejects_missing_period():
    g = parse_time_function("1", lower=1, upper=1)  # no declared period
    spec = OUSpec(lam=UNIT, g=g, gamma=1.0)
    with pytest.raises(ValueError, match="period"):
        spec.validate()


def test_spec_rejects_unbounded_lambda():
    lam = parse_time_function("t")  # no declared bounds
    spec = OUSpec(lam=lam, g=const(1.0, lower=1, upper=1, period=1.0), gamma=1.0)
    with pytest.raises(ValueError, match="bounds"):
        spec.validate()


def test_spec_rejects_nonpositive_mean_rate():
    lam = const(0.0, lower=0.0, upper=0.0)
    spec = OUSpec(lam=lam, g=const(1.0, lower=1, upper=1, period=1.0), gamma=1.0)
    with pytest.raises(ValueError, match="positive"):
        spec.validate()


# -- total variation ---------------------------------------------------------

def test_gaussian_tv_frozen_unit_shift():
    # equal sigmas: TV = 2 Phi(|dm| / 2 sigma) - 1
    assert gaussian_tv(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.38292492254802624,
                                                            abs=1e-10)


def test_gaussian_tv_identical_is_zero():
    assert gaussian_tv(0.3, 0.8, 0.3, 0.8) == 0.0


def test_gaussian_tv_degenerate_cases():
    assert gaussian_tv(0.0, 0.0, 0.0, 0.0) == 0.0
    assert gaussian_tv(0.0, 0.0, 1.0, 0.0) == 1.0
    assert gaussian_tv(0.0, 0.0, 0.0, 1.0) == 1.0


def test_gaussian_tv_matches_cdf_oracle():
    for _ in range(25):
        m1, m2 = RNG.uniform(-2, 2, 2)
        s1, s2 = RNG.uniform(0.2, 2.5, 2)
        assert gaussian_tv(m1, s1, m2, s2) == pytest.approx(
            gaussian_tv_exact(m1, s1, m2, s2), abs=1e-9)


@pytest.mark.parametrize("n, k, x", [(1, 15, 0.280633), (3, 14, 0.594535),
                                     (2, 15, 1.456136)])
def test_gaussian_tv_small_distance_matches_cdf_oracle(n, k, x):
    # periodicity-report cases with TV near 1e-6, where adaptive quadrature
    # of the density difference missed the closed form by 1e-9 to 5e-9
    spec = default_ou_spec()
    (row,) = asymptotic_periodicity_report(spec, s=0.0, n=n, k_values=[k], x=x)
    p = transition_params(spec.lam, k, k + n)
    q = transition_params(spec.g, 0.0, n)
    assert row.tv == pytest.approx(
        gaussian_tv_exact(p.m * x, p.sigma, q.m * x, q.sigma), abs=1e-9)



# -- normal CDF ----------------------------------------------------------------

# |a| at the port's branch edges: erf below 1, 1 - erf below sqrt 2, the
# P/Q rational below 8 sqrt 2, R/S up to where exp(-a^2/2) underflows
_CDF_EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384))
_CDF_ARGS = st.one_of(
    st.floats(),  # the full double range: subnormals, +-0, +-inf and NaN
    st.floats(-40.0, 40.0),
    st.builds(lambda edge, sign, rel: sign * edge * (1.0 + rel), st.sampled_from(_CDF_EDGES),
              st.sampled_from((-1.0, 1.0)), st.floats(-1e-6, 1e-6)),
)


def _assert_bit_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=300, deadline=None)
@given(a=_CDF_ARGS)
def test_ndtr_scalar_equals_scipy_bit_for_bit(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ndtr(a)
    assert type(got) is float
    _assert_bit_equal(got, ndtr(a))


@settings(max_examples=300, deadline=None)
@given(a=arrays(np.float64, st.tuples(st.integers(0, 40)), elements=_CDF_ARGS)
       | arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=_CDF_ARGS))
def test_ndtr_array_equals_scipy_bit_for_bit(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ndtr(a)
    _assert_bit_equal(got, ndtr(a))


@settings(max_examples=300, deadline=None)
@given(m=st.floats(-2.0, 2.0), sigma=st.floats(1e-3, 10.0), n_cells=st.integers(1, 60),
       half=st.floats(0.1, 20.0))
def test_ndtr_on_folded_cell_mass_grids_equals_scipy_bit_for_bit(m, sigma, n_cells, half):
    # the 2-D argument _folded_cell_masses builds: mesh edges against one
    # mean per cell center
    mesh = Mesh(-half, half, n_cells)
    a = (mesh.edges()[None, :] - m * mesh.centers()[:, None]) / sigma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ndtr(a)
    _assert_bit_equal(got, ndtr(a))

# -- asymptotic periodicity report -------------------------------------------

def test_report_vanishes_when_already_periodic():
    spec = default_ou_spec()
    periodic = OUSpec(lam=spec.g, g=spec.g, gamma=1.0)
    rows = asymptotic_periodicity_report(periodic, s=0.25, n=2, k_values=[0, 1, 5])
    assert all(r.tv <= 1e-10 for r in rows)


def test_report_decreases_in_k_for_default_spec():
    spec = default_ou_spec()
    for x in (0.0, 1.0):
        rows = asymptotic_periodicity_report(spec, s=0.0, n=1,
                                             k_values=[0, 2, 4, 8, 12], x=x)
        tvs = [r.tv for r in rows]
        assert tvs[0] > 1e-4  # the perturbation is visible at k = 0
        assert all(a >= b - 1e-12 for a, b in zip(tvs[:-1], tvs[1:]))
        assert tvs[-1] < 0.05 * tvs[0]


def test_report_validates_arguments():
    spec = default_ou_spec()
    with pytest.raises(ValueError):
        asymptotic_periodicity_report(spec, s=1.5, n=1, k_values=[0])
    with pytest.raises(ValueError):
        asymptotic_periodicity_report(spec, s=0.0, n=0, k_values=[0])
