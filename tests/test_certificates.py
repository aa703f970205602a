import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from apmarkov import certificates
from apmarkov.certificates import (check_drift, default_certificate_mesh,
                                   gaussian_class_minorization)
from apmarkov.measures import Mesh, MeshMeasure, tv_distance
from apmarkov.ou import default_ou_spec, transition_params
from apmarkov.timefns import const

from oracles import gauss_hermite_apply, gaussian_class_member_check

UNIT = const(1.0, lower=1.0, upper=1.0)
ZERO = const(0.0, lower=0.0, upper=0.0)

# frozen one-period transition of the unit-rate case
M2 = math.exp(-2.0)                      # squared mean factor
S2 = (1.0 - math.exp(-2.0)) / 2.0        # transition variance


def psi(x):
    return 1.0 + x * x


def p_psi(drift, s, t, x):
    """P_{s,t} psi of the exact OU kernel, in closed form: 1 + sigma^2 + m^2 x^2."""
    tr = transition_params(drift, s, t)
    return 1.0 + tr.sigma ** 2 + tr.m ** 2 * (x * x)


# -- drift certificates --------------------------------------------------------

def test_unit_drift_certificate_valid():
    cert = check_drift(UNIT, s=0.0, t1=1.0, theta=0.5, C=0.94, k_edge=1.6)
    assert cert.valid
    assert cert.max_residual <= 0.0
    # slack at the origin: P psi(0) - theta psi(0) = 1 + S2 - 0.5 < C
    assert 1.0 + S2 - 0.5 == pytest.approx(0.9323323583816937, rel=1e-12)
    assert cert.max_residual >= -0.01  # the certificate is tight near the K edge


def test_small_theta_invalidates_certificate():
    # theta below m^2 makes the residual grow like (m^2 - theta) x^2 > 0
    cert = check_drift(UNIT, s=0.0, t1=1.0, theta=0.1, C=0.94, k_edge=1.6)
    assert not cert.valid
    assert cert.max_residual > 0.0
    assert abs(cert.argmax_x) > 6.0


def closed_form_compact_set(drift, s, theta):
    """(k, c_min) for psi = 1 + x^2 over [s, s + 1]: P psi - theta psi =
    (1 + sigma^2 - theta) + (m^2 - theta) x^2 is <= c_min, and <= 0 for
    |x| > k = sqrt(c_min / (theta - m^2))."""
    tr = transition_params(drift, s, s + 1.0)
    c_min = 1.0 + tr.sigma ** 2 - theta
    return math.sqrt(c_min / (theta - tr.m ** 2)), c_min


def test_closed_form_compact_set_certifies_drift():
    k_edge, c_min = closed_form_compact_set(UNIT, s=0.0, theta=0.5)
    assert c_min == pytest.approx(1.0 + S2 - 0.5, rel=1e-9)
    assert k_edge == pytest.approx(math.sqrt(c_min / (0.5 - M2)), rel=1e-9)
    cert = check_drift(UNIT, s=0.0, t1=1.0, theta=0.5, C=c_min + 1e-6, k_edge=k_edge + 1e-6)
    assert cert.valid


def test_check_drift_parameter_validation():
    with pytest.raises(ValueError):
        check_drift(UNIT, 0.0, 1.0, theta=1.5, C=1.0, k_edge=1.0)
    with pytest.raises(ValueError):
        check_drift(UNIT, 0.0, 1.0, theta=0.5, C=-1.0, k_edge=1.0)


# The tolerance: P psi is at most about 1 + x_max^2 (|x| <= 10 here), and the
# 64-node quadrature rounds each node's term, so the two residuals may part by
# 1e-13 (1 + x_max^2), about 1e-11.  Near-ties may flip the argmax, so the closed
# form's argmax need only be a point whose quadrature residual is that close to
# the quadrature's max.
@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.0, 5.0), t1=st.floats(0.01, 3.0), theta=st.floats(0.01, 0.99),
       C=st.floats(0.01, 5.0), k_edge=st.floats(0.01, 10.0),
       x_min=st.floats(-10.0, -0.5), x_max=st.floats(0.5, 10.0),
       n_cells=st.integers(1, 400))
def test_check_drift_matches_gauss_hermite_oracle(s, t1, theta, C, k_edge, x_min, x_max,
                                                  n_cells):
    drift = default_ou_spec().lam
    mesh = Mesh(x_min=x_min, x_max=x_max, n_cells=n_cells)
    cert = check_drift(drift, s=s, t1=t1, theta=theta, C=C, k_edge=k_edge, mesh=mesh)
    x = mesh.centers()
    tr = transition_params(drift, s, s + t1)
    residual = (gauss_hermite_apply(tr.m, tr.sigma, psi, x) - theta * psi(x)
                - C * (np.abs(x) <= k_edge))
    tol = 1e-13 * (1.0 + max(x_min ** 2, x_max ** 2))
    assert abs(cert.max_residual - residual.max()) <= tol
    assert residual[np.flatnonzero(x == cert.argmax_x)].max() >= residual.max() - tol
    assert cert.valid == (cert.max_residual <= 0.0)


# -- growth ratios ---------------------------------------------------------------

def test_growth_ratio_identity_window():
    # P_{s,s} psi = psi, so the growth ratio is 1 everywhere
    x = default_certificate_mesh().centers()
    p = p_psi(UNIT, 0.0, 0.0, x)
    assert p == pytest.approx(psi(x), rel=1e-12)
    assert (p / psi(x)).max() == pytest.approx(1.0, rel=1e-12)


def test_growth_ratio_brownian_peaks_at_two():
    # lam = 0, t = 1: P psi(x) = psi(x) + 1, maximized ratio 2 at x = 0
    x = default_certificate_mesh().centers()
    p = p_psi(ZERO, 0.0, 1.0, x)
    assert p == pytest.approx(psi(x) + 1.0, rel=1e-9)
    assert (p / psi(x)).max() == pytest.approx(2.0, rel=1e-9)


def test_valid_certificate_implies_window_growth_bound():
    # any valid (theta, C) certificate forces sup P psi / psi <= C (1 + C/(1-theta))
    lam = default_ou_spec().lam
    theta = 0.6
    x = default_certificate_mesh().centers()
    for s in (0.0, 0.3, 1.1, 2.6):
        k_edge, c_min = closed_form_compact_set(lam, s=s, theta=theta)
        c_val = c_min + 0.05
        cert = check_drift(lam, s=s, t1=1.0, theta=theta, C=c_val, k_edge=k_edge + 0.1)
        assert cert.valid
        worst = max((p_psi(lam, s, s + t, x) / psi(x)).max()
                    for t in (0.0, 0.25, 0.5, 0.75, 0.99))
        assert worst <= c_val * (1.0 + c_val / (1.0 - theta))


# -- Gaussian-class minorization -------------------------------------------------

def test_centered_class_gives_sd_ratio():
    cert = gaussian_class_minorization(a=0.0, b_minus=1.0, b_plus=2.0,
                                       n_members=200, seed=4)
    assert cert.c == pytest.approx(0.5, rel=1e-9)
    assert cert.n_violations == 0


def test_single_member_class_is_exactly_recovered():
    cert = gaussian_class_minorization(a=0.0, b_minus=0.8, b_plus=0.8,
                                       n_members=100, seed=4)
    assert cert.c == pytest.approx(1.0, rel=1e-9)
    edges = cert.nu.mesh.edges()
    exact = np.diff(norm.cdf(edges, 0.0, 0.8))
    np.testing.assert_allclose(cert.nu.weights, exact / exact.sum(), atol=1e-7)


def test_shifted_class_frozen_mass():
    # the last class has a / b_minus = 8.3: c is near 2.8e-17, and nu lies
    # where the shape's CDF is within an ulp of 1
    for a, b_minus, b_plus in [(3.0, 1.0, 2.0), (0.5, 0.7, 1.5), (3.0, 0.36, 1.0)]:
        cert = gaussian_class_minorization(a=a, b_minus=b_minus, b_plus=b_plus,
                                           n_members=1000, seed=11)
        # int of min(two shifted gaussians) = 2 sqrt(2 pi) b_minus Phi(-a/b_minus)
        expected_c = 2.0 * b_minus * norm.cdf(-a / b_minus) / b_plus
        assert cert.c == pytest.approx(expected_c, rel=1e-13, abs=0.0)
        assert cert.n_violations == 0
        assert cert.worst_margin >= -1e-12


def test_cell_masses_far_from_the_origin_keep_their_relative_accuracy():
    # on [-8, -6] with a = 3, b = 1 the shape is below 1e-17, and its CDF is
    # within an ulp of 1, so every mass must come from tails.  Each must be within
    # a relative 1e-11 of the 200-bit integral between the same float edges:
    # rounding the CDF's argument z = |x| + a costs about z^2 ulp, and a
    # difference of neighbouring tails amplifies that by at most 1/(1 - e^(-z dx))
    for n_cells in (1, 7, 40, 400):
        mesh = Mesh(-8.0, -6.0, n_cells)
        got = certificates._minorizing_cell_masses(3.0, 1.0, mesh)
        with mpmath.workprec(200):
            tail = [mpmath.sqrt(2 * mpmath.pi) * mpmath.ncdf(-(abs(mpmath.mpf(e)) + 3))
                    for e in mesh.edges()]
            exact = np.array([float(r - l) for l, r in zip(tail[:-1], tail[1:])])
        assert np.all(got > 0.0)
        np.testing.assert_allclose(got, exact, rtol=1e-11, atol=0.0)


def test_minorization_monotonicity_in_parameters():
    base = gaussian_class_minorization(0.5, 1.0, 1.5, n_members=50, seed=1).c
    wider_a = gaussian_class_minorization(0.8, 1.0, 1.5, n_members=50, seed=1).c
    wider_b = gaussian_class_minorization(0.5, 1.0, 2.5, n_members=50, seed=1).c
    assert wider_a <= base + 1e-12
    assert wider_b <= base + 1e-12


@settings(max_examples=50, deadline=None)
@given(a=st.one_of(st.just(0.0), st.floats(0.0, 4.0)), b_minus=st.floats(0.5, 2.0),
       widen=st.floats(1.0, 3.0), n_members=st.integers(1, 1200),
       n_cells=st.integers(1, 501), seed=st.integers(0, 2 ** 32),
       scale=st.one_of(st.just(1.0), st.floats(1.0, 8.0)))
def test_member_check_equals_one_member_at_a_time(a, b_minus, widen, n_members,
                                                   n_cells, seed, scale):
    # the member check runs members in blocks; the worst margin and the
    # violation count must be those of a loop over the members, bit for bit.
    # A floor scaled above c * nu makes the count non-zero.
    b_plus = b_minus * widen
    mesh = Mesh(x_min=-8.0, x_max=8.0, n_cells=n_cells)
    shape = certificates._minorizing_shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "_minorizing_shape",
                   lambda a, b, x: scale * shape(a, b, x))
        cert = gaussian_class_minorization(a, b_minus, b_plus, mesh=mesh,
                                           n_members=n_members, seed=seed)
    worst, violations = gaussian_class_member_check(a, b_minus, b_plus, mesh.centers(),
                                                    n_members, seed, scale)
    assert cert.worst_margin == worst
    assert cert.n_violations == violations


def test_member_check_of_no_members():
    cert = gaussian_class_minorization(0.5, 1.0, 1.5, n_members=0)
    assert (cert.worst_margin, cert.n_violations) == (math.inf, 0)
    assert gaussian_class_member_check(0.5, 1.0, 1.5, np.zeros(3), 0, 0) == (math.inf, 0)


def test_minorization_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gaussian_class_minorization(a=1.0, b_minus=2.0, b_plus=1.0)
    with pytest.raises(ValueError):
        gaussian_class_minorization(a=-1.0, b_minus=1.0, b_plus=2.0)
    with pytest.raises(ValueError):
        gaussian_class_minorization(a=math.nan, b_minus=1.0, b_plus=2.0)


# -- distances ------------------------------------------------------------------

def test_tv_distance_mesh_mismatch():
    mu = MeshMeasure(Mesh(0.0, 1.0, 2), np.array([0.5, 0.5]))
    nu = MeshMeasure(Mesh(0.0, 2.0, 2), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="mesh"):
        tv_distance(mu, nu)


def test_certificate_json_round_trip_fields():
    import json
    cert = check_drift(UNIT, s=0.0, t1=1.0, theta=0.5, C=0.94, k_edge=1.6)
    doc = json.loads(cert.to_json())
    assert doc["kind"] == "drift"
    assert doc["valid"] is True
    mcert = gaussian_class_minorization(0.0, 1.0, 2.0, n_members=10, seed=0)
    mdoc = json.loads(mcert.to_json())
    assert mdoc["kind"] == "minorization"
    assert mdoc["c"] == pytest.approx(0.5, rel=1e-9)


def test_default_mesh_has_center_cell_at_origin():
    mesh = default_certificate_mesh()
    assert mesh.n_cells == 2001
    assert abs(mesh.centers()[1000]) < 1e-12
