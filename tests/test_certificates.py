import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from apmarkov import certificates
from apmarkov.certificates import (GaussianKernel, MinorizationCertificate,
                                   check_drift, check_growth, contraction_rate_fit,
                                   default_certificate_mesh,
                                   doeblin_from_minorization,
                                   gaussian_class_minorization, quadratic_psi,
                                   suggest_compact_set)
from apmarkov.measures import Mesh, MeshMeasure, psi_distance
from apmarkov.ou import default_ou_spec
from apmarkov.timefns import const

from oracles import gaussian_class_member_check, gaussian_tv_exact

UNIT = const(1.0, lower=1.0, upper=1.0)
ZERO = const(0.0, lower=0.0, upper=0.0)

# frozen one-period transition of the unit-rate case
M2 = math.exp(-2.0)                      # squared mean factor
S2 = (1.0 - math.exp(-2.0)) / 2.0        # transition variance


def one(x):
    return np.ones_like(np.asarray(x, dtype=float))


# -- drift certificates --------------------------------------------------------

def test_unit_drift_certificate_valid():
    cert = check_drift(GaussianKernel(UNIT), quadratic_psi, s=0.0, t1=1.0,
                       theta=0.5, C=0.94, k_edge=1.6)
    assert cert.valid
    assert cert.max_residual <= 0.0
    # slack at the origin: P psi(0) - theta psi(0) = 1 + S2 - 0.5 < C
    assert 1.0 + S2 - 0.5 == pytest.approx(0.9323323583816937, rel=1e-12)
    assert cert.max_residual >= -0.01  # the certificate is tight near the K edge


def test_small_theta_invalidates_certificate():
    # theta below m^2 makes the residual grow like (m^2 - theta) x^2 > 0
    cert = check_drift(GaussianKernel(UNIT), quadratic_psi, s=0.0, t1=1.0,
                       theta=0.1, C=0.94, k_edge=1.6)
    assert not cert.valid
    assert cert.max_residual > 0.0
    assert abs(cert.argmax_x) > 6.0


def test_constant_psi_certificate_trivially_valid():
    cert = check_drift(GaussianKernel(UNIT), one, s=0.0, t1=1.0,
                       theta=0.5, C=1.0, k_edge=8.0)
    assert cert.valid
    assert cert.max_residual == pytest.approx(-0.5, rel=1e-12)


def test_suggest_compact_set_closed_form():
    kernel = GaussianKernel(UNIT)
    k_edge, c_min = suggest_compact_set(kernel, s=0.0, t1=1.0, theta=0.5)
    assert c_min == pytest.approx(1.0 + S2 - 0.5, rel=1e-9)
    assert k_edge == pytest.approx(math.sqrt(c_min / (0.5 - M2)), rel=1e-9)
    cert = check_drift(kernel, quadratic_psi, s=0.0, t1=1.0, theta=0.5,
                       C=c_min + 1e-6, k_edge=k_edge + 1e-6)
    assert cert.valid


def test_suggest_compact_set_requires_theta_above_m2():
    with pytest.raises(ValueError, match="m\\^2"):
        suggest_compact_set(GaussianKernel(UNIT), s=0.0, t1=1.0, theta=0.1)


def test_check_drift_parameter_validation():
    kernel = GaussianKernel(UNIT)
    with pytest.raises(ValueError):
        check_drift(kernel, quadratic_psi, 0.0, 1.0, theta=1.5, C=1.0, k_edge=1.0)
    with pytest.raises(ValueError):
        check_drift(kernel, quadratic_psi, 0.0, 1.0, theta=0.5, C=-1.0, k_edge=1.0)
    with pytest.raises(ValueError, match="psi"):
        check_drift(kernel, lambda x: 0.5 * one(x), 0.0, 1.0, theta=0.5, C=1.0,
                    k_edge=1.0)


# -- growth ratios ---------------------------------------------------------------

def test_growth_ratio_identity_window():
    assert check_growth(GaussianKernel(UNIT), quadratic_psi, 0.0, [0.0]) \
        == pytest.approx(1.0, rel=1e-12)


def test_growth_ratio_brownian_peaks_at_two():
    # lam = 0, t = 1: P psi(x) = psi(x) + 1, maximized ratio 2 at x = 0
    ratio = check_growth(GaussianKernel(ZERO), quadratic_psi, 0.0, [1.0])
    assert ratio == pytest.approx(2.0, rel=1e-9)


def test_growth_ratio_bounded_for_nonnegative_drift():
    spec = default_ou_spec()
    t_values = [0.0, 0.25, 0.5, 0.75, 0.99]
    ratio = check_growth(GaussianKernel(spec.lam), quadratic_psi, 0.3, t_values)
    assert ratio <= 1.0 + max(t_values)


def test_valid_certificate_implies_window_growth_bound():
    # any valid (theta, C) certificate forces sup P psi / psi <= C (1 + C/(1-theta))
    spec = default_ou_spec()
    kernel = GaussianKernel(spec.lam)
    theta = 0.6
    for s in (0.0, 0.3, 1.1, 2.6):
        k_edge, c_min = suggest_compact_set(kernel, s=s, t1=1.0, theta=theta)
        c_val = c_min + 0.05
        cert = check_drift(kernel, quadratic_psi, s=s, t1=1.0, theta=theta,
                           C=c_val, k_edge=k_edge + 0.1)
        assert cert.valid
        worst = check_growth(kernel, quadratic_psi, s, [0.0, 0.25, 0.5, 0.75, 0.99])
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
    for a, b_minus, b_plus in [(3.0, 1.0, 2.0), (0.5, 0.7, 1.5)]:
        cert = gaussian_class_minorization(a=a, b_minus=b_minus, b_plus=b_plus,
                                           n_members=1000, seed=11)
        # int of min(two shifted gaussians) = 2 sqrt(2 pi) b_minus Phi(-a/b_minus)
        expected_c = 2.0 * b_minus * norm.cdf(-a / b_minus) / b_plus
        assert cert.c == pytest.approx(expected_c, rel=1e-13, abs=0.0)
        assert cert.n_violations == 0
        assert cert.worst_margin >= -1e-12


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


# -- Doeblin from minorization ----------------------------------------------------

def test_unit_drift_doeblin_valid():
    # one-window laws from K = [-1.6, 1.6] form the Gaussian class with
    # a = 1.6 m, b_minus = b_plus = sigma; the lemma certificate dominates
    kernel = GaussianKernel(UNIT)
    tr = kernel.params(0.0, 1.0)
    cert = gaussian_class_minorization(a=1.6 * tr.m, b_minus=tr.sigma,
                                       b_plus=tr.sigma, n_members=100, seed=2)
    report = doeblin_from_minorization(cert, s_values=[0.0, 0.5],
                                       probes=np.linspace(-1.6, 1.6, 9),
                                       kernel=kernel)
    assert report.valid
    assert not report.degenerate
    assert report.worst_margin >= -1e-9


def test_degenerate_certificate_flagged():
    mesh = Mesh(-8.0, 8.0, 2001)
    cert = MinorizationCertificate(
        c=0.0, nu=MeshMeasure(mesh, np.full(2001, 1.0 / 2001)), n0=1, t1=1.0,
        a=0.0, b_minus=1.0, b_plus=1.0)
    report = doeblin_from_minorization(cert, [0.0], [0.0], GaussianKernel(UNIT))
    assert report.valid
    assert report.degenerate


def test_unreachable_support_invalidates():
    mesh = Mesh(-8.0, 8.0, 2001)
    weights = np.zeros(2001)
    weights[int(mesh.cell_index(7.5))] = 1.0  # support far outside kernel range
    cert = MinorizationCertificate(c=0.5, nu=MeshMeasure(mesh, weights), n0=1,
                                   t1=1.0, a=0.0, b_minus=1.0, b_plus=1.0)
    report = doeblin_from_minorization(cert, [0.0], [0.0], GaussianKernel(UNIT))
    assert not report.valid
    assert report.worst_margin < -0.4


# -- psi distances and contraction fits -------------------------------------------

def test_psi_distance_identical_measures():
    mesh = Mesh(-2.0, 2.0, 50)
    mu = MeshMeasure.from_density(mesh, lambda x: np.exp(-x ** 2))
    assert psi_distance(mu, mu, one) == 0.0


def test_psi_distance_disjoint_unit_masses():
    mesh = Mesh(0.0, 1.0, 4)
    mu = MeshMeasure(mesh, np.array([1.0, 0.0, 0.0, 0.0]))
    nu = MeshMeasure(mesh, np.array([0.0, 0.0, 0.0, 1.0]))
    assert psi_distance(mu, nu, one) == pytest.approx(2.0)


def test_psi_distance_gaussians_matches_tv_oracle():
    mesh = Mesh(-10.0, 11.0, 4201)
    mu = MeshMeasure.from_density(mesh, lambda x: norm.pdf(x, 0.0, 1.0))
    nu = MeshMeasure.from_density(mesh, lambda x: norm.pdf(x, 1.0, 1.0))
    expected = 2.0 * gaussian_tv_exact(0.0, 1.0, 1.0, 1.0)
    assert psi_distance(mu, nu, one) == pytest.approx(expected, abs=1e-4)


def test_psi_distance_unit_weight_doubles_tv():
    from apmarkov.measures import tv_distance
    mesh = Mesh(-3.0, 3.0, 60)
    gen = np.random.default_rng(14)
    for _ in range(10):
        mu = MeshMeasure.from_unnormalized(mesh, gen.random(60))
        nu = MeshMeasure.from_unnormalized(mesh, gen.random(60))
        assert psi_distance(mu, nu, one) == pytest.approx(
            2.0 * tv_distance(mu, nu), rel=1e-12)


def test_psi_distance_mesh_mismatch():
    mu = MeshMeasure(Mesh(0.0, 1.0, 2), np.array([0.5, 0.5]))
    nu = MeshMeasure(Mesh(0.0, 2.0, 2), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="mesh"):
        psi_distance(mu, nu, one)


def test_contraction_fit_identical_inputs_sentinel():
    mesh = Mesh(-2.0, 2.0, 20)
    mu = MeshMeasure.from_density(mesh, lambda x: np.exp(-x ** 2))
    kernel = GaussianKernel(UNIT)
    c_fit, kappa, _ = contraction_rate_fit(kernel.propagate, mu, mu, one,
                                           [1.0, 2.0, 3.0])
    assert math.isinf(kappa)
    assert c_fit == 0.0


def test_contraction_fit_unit_drift_rate_near_one():
    mesh = Mesh(-6.0, 6.0, 1201)
    mu1 = MeshMeasure.point_mass(mesh, 0.0)
    mu2 = MeshMeasure.point_mass(mesh, 1.0)
    kernel = GaussianKernel(UNIT)
    _, kappa, r2 = contraction_rate_fit(kernel.propagate, mu1, mu2, one,
                                        [1.0, 1.5, 2.0, 2.5, 3.0])
    assert 0.8 <= kappa <= 1.2
    assert r2 > 0.99


def test_contraction_fit_two_state_spectral_gap():
    mesh = Mesh(0.0, 2.0, 2)
    k = np.array([[0.75, 0.25], [0.25, 0.75]])  # eigenvalues 1 and 1/2

    def propagate(mu, s, t):
        w = mu.weights.copy()
        for _ in range(int(round(t - s))):
            w = w @ k
        return MeshMeasure(mesh, w)

    mu1 = MeshMeasure(mesh, np.array([1.0, 0.0]))
    mu2 = MeshMeasure(mesh, np.array([0.0, 1.0]))
    _, kappa, r2 = contraction_rate_fit(propagate, mu1, mu2, one,
                                        [1.0, 2.0, 3.0, 4.0, 5.0])
    assert kappa == pytest.approx(math.log(2.0), rel=1e-6)
    assert r2 > 0.999999


def test_contraction_fit_requires_three_horizons():
    mesh = Mesh(-1.0, 1.0, 4)
    mu = MeshMeasure(mesh, np.full(4, 0.25))
    with pytest.raises(ValueError):
        contraction_rate_fit(GaussianKernel(UNIT).propagate, mu, mu, one, [1.0, 2.0])


def test_certificate_json_round_trip_fields():
    import json
    cert = check_drift(GaussianKernel(UNIT), quadratic_psi, s=0.0, t1=1.0,
                       theta=0.5, C=0.94, k_edge=1.6)
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
