"""Numerical certification of drift and minorization conditions.

Certificates are *checked*, never searched: the caller proposes the
constants (theta, C, K, c, nu, ...) and the module verifies the defining
inequalities on a mesh, reporting the worst residual.  An invalid
certificate is a result, not an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .invariant import gaussian_kernel_matrix
from .measures import Mesh, MeshMeasure, psi_distance
from .ou import GaussianTransition, transition_params
from .timefns import TimeFunction

__all__ = [
    "GaussianKernel",
    "quadratic_psi",
    "DriftCertificate",
    "MinorizationCertificate",
    "DoeblinReport",
    "check_drift",
    "suggest_compact_set",
    "check_growth",
    "gaussian_class_minorization",
    "doeblin_from_minorization",
    "contraction_rate_fit",
    "default_certificate_mesh",
]


def quadratic_psi(x):
    """The standard Lyapunov weight 1 + x^2 (always >= 1)."""
    x = np.asarray(x, dtype=float)
    return 1.0 + x * x


def default_certificate_mesh() -> Mesh:
    return Mesh(x_min=-8.0, x_max=8.0, n_cells=2001)


class GaussianKernel:
    """Transition evaluator of the exact OU kernel for a given drift.

    Wraps the closed-form Gaussian transitions with expectation, density and
    mesh-propagation helpers used by the certificate checks.
    """

    def __init__(self, drift: TimeFunction, gh_order: int = 64):
        self.drift = drift
        self._cache: dict = {}
        nodes, weights = np.polynomial.hermite.hermgauss(gh_order)
        self._gh = (nodes * math.sqrt(2.0), weights / math.sqrt(math.pi))

    def params(self, s: float, t: float) -> GaussianTransition:
        key = (s, t)
        tr = self._cache.get(key)
        if tr is None:
            tr = transition_params(self.drift, s, t)
            self._cache[key] = tr
        return tr

    def apply(self, s: float, t: float, f: Callable[[np.ndarray], np.ndarray],
              x) -> np.ndarray:
        """(P_{s,t} f)(x) by Gauss-Hermite quadrature (exact for polynomials
        of degree < 2 * gh_order)."""
        tr = self.params(s, t)
        x = np.asarray(x, dtype=float)
        nodes, weights = self._gh
        y = tr.m * x[..., None] + tr.sigma * nodes
        return np.asarray(f(y), dtype=float) @ weights

    def density(self, s: float, t: float, x: float, y) -> np.ndarray:
        tr = self.params(s, t)
        y = np.asarray(y, dtype=float)
        if tr.sigma == 0.0:
            raise ValueError("degenerate kernel has no density")
        z = (y - tr.m * x) / tr.sigma
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * tr.sigma)

    def cell_mass(self, s: float, t: float, x: float, mesh: Mesh) -> np.ndarray:
        """Law of one step from x, as cell masses with tails folded in."""
        tr = self.params(s, t)
        if tr.sigma == 0.0:
            w = np.zeros(mesh.n_cells)
            w[int(mesh.cell_index(tr.m * x))] = 1.0
            return w
        z = (mesh.edges() - tr.m * x) / tr.sigma
        cdf = ndtr(z)
        cdf[0], cdf[-1] = 0.0, 1.0
        return np.diff(cdf)

    def propagate(self, mu: MeshMeasure, s: float, t: float) -> MeshMeasure:
        """Push a mesh measure through the kernel (tails folded to edges)."""
        tr = self.params(s, t)
        k = gaussian_kernel_matrix(tr.m, tr.sigma, mu.mesh)
        return MeshMeasure(mu.mesh, mu.weights @ k)


# ---------------------------------------------------------------------------
# drift condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftCertificate:
    """Witness for P psi <= theta psi + C 1_K over one window of length t1.

    valid iff max_residual <= 0 where
    residual(x) = (P psi)(x) - theta psi(x) - C 1_K(x) over the mesh.
    """

    s: float
    t1: float
    theta: float
    C: float
    k_edge: float
    max_residual: float
    argmax_x: float
    valid: bool

    def to_json(self) -> str:
        return json.dumps({
            "kind": "drift", "s": self.s, "t1": self.t1, "theta": self.theta,
            "C": self.C, "k_edge": self.k_edge, "max_residual": self.max_residual,
            "argmax_x": self.argmax_x, "valid": self.valid,
        }, sort_keys=True)


def check_drift(kernel: GaussianKernel, psi: Callable[[np.ndarray], np.ndarray],
                s: float, t1: float, theta: float, C: float,
                k_edge: float, mesh: Optional[Mesh] = None) -> DriftCertificate:
    """Verify the drift inequality on the mesh for K = [-k_edge, k_edge]."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if C <= 0:
        raise ValueError(f"C must be > 0, got {C}")
    mesh = mesh or default_certificate_mesh()
    x = mesh.centers()
    psi_x = np.asarray(psi(x), dtype=float)
    if np.any(psi_x < 1.0 - 1e-12):
        raise ValueError("psi must be >= 1 on the mesh")
    p_psi = kernel.apply(s, s + t1, psi, x)
    residual = p_psi - theta * psi_x - C * (np.abs(x) <= k_edge)
    i = int(np.argmax(residual))
    return DriftCertificate(s=s, t1=t1, theta=theta, C=C, k_edge=k_edge,
                            max_residual=float(residual[i]), argmax_x=float(x[i]),
                            valid=bool(residual[i] <= 0.0))


def suggest_compact_set(kernel: GaussianKernel, s: float, t1: float,
                        theta: float) -> Tuple[float, float]:
    """Smallest K = [-k, k] and minimal C for psi = 1 + x^2, in closed form.

    With (m, sigma) over the window, (P psi)(x) - theta psi(x) =
    (1 + sigma^2 - theta) + (m^2 - theta) x^2, so theta > m^2 forces the
    residual negative for x^2 > (1 + sigma^2 - theta)/(theta - m^2).
    """
    tr = kernel.params(s, s + t1)
    if theta <= tr.m ** 2:
        raise ValueError(f"theta must exceed m^2 = {tr.m ** 2!r} for a compact K")
    c_min = 1.0 + tr.sigma ** 2 - theta
    k_edge = math.sqrt(c_min / (theta - tr.m ** 2))
    return k_edge, c_min


def check_growth(kernel: GaussianKernel, psi: Callable[[np.ndarray], np.ndarray],
                 s: float, t_values: Sequence[float],
                 mesh: Optional[Mesh] = None) -> float:
    """sup over the mesh and t in t_values of (P_{s,s+t} psi) / psi."""
    mesh = mesh or default_certificate_mesh()
    x = mesh.centers()
    psi_x = np.asarray(psi(x), dtype=float)
    worst = -math.inf
    for t in t_values:
        ratio = kernel.apply(s, s + t, psi, x) / psi_x
        worst = max(worst, float(ratio.max()))
    return worst


# ---------------------------------------------------------------------------
# minorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorizationCertificate:
    """Common component c * nu dominated by every kernel in a Gaussian class.

    nu is proportional to f(x) = min of the two extreme-mean Gaussian shapes
    exp(-(x -+ a)^2 / (2 b_minus^2)); c = (int f) / (sqrt(2 pi) b_plus).
    """

    c: float
    nu: MeshMeasure
    n0: int
    t1: float
    a: float
    b_minus: float
    b_plus: float
    n_members_checked: int = 0
    n_violations: int = 0
    worst_margin: float = field(default=math.inf)

    @property
    def degenerate(self) -> bool:
        return self.c == 0.0

    def to_json(self) -> str:
        return json.dumps({
            "kind": "minorization", "c": self.c, "n0": self.n0, "t1": self.t1,
            "a": self.a, "b_minus": self.b_minus, "b_plus": self.b_plus,
            "n_members_checked": self.n_members_checked,
            "n_violations": self.n_violations, "worst_margin": self.worst_margin,
        }, sort_keys=True)


def _minorizing_shape(a: float, b_minus: float, x: np.ndarray) -> np.ndarray:
    return np.minimum(np.exp(-(x - a) ** 2 / (2.0 * b_minus ** 2)),
                      np.exp(-(x + a) ** 2 / (2.0 * b_minus ** 2)))


def _minorizing_cell_masses(a: float, b: float, mesh: Mesh) -> np.ndarray:
    """Exact per-cell integrals of the minorizing shape.

    The shape equals exp(-(|x|+a)^2 / (2 b^2)), so its antiderivative on each
    half-line is a Gaussian CDF; cells straddling 0 split there.
    """
    def anti(x):  # int_0^x of the right-half shape, extended oddly
        x = np.asarray(x, dtype=float)
        base = ndtr(a / b)
        return np.sign(x) * math.sqrt(2.0 * math.pi) * b * (ndtr((np.abs(x) + a) / b) - base)

    return np.diff(anti(mesh.edges()))


def gaussian_class_minorization(a: float, b_minus: float, b_plus: float,
                                mesh: Optional[Mesh] = None,
                                n_members: int = 1000, seed: int = 0,
                                n0: int = 1, t1: float = 1.0) -> MinorizationCertificate:
    """Common minorization of all Normal(m, sigma^2) with |m| <= a and
    b_minus <= sigma <= b_plus.

    Every class density dominates f(x)/(sqrt(2 pi) b_plus) pointwise, so
    nu = f / int f works with c = (int f)/(sqrt(2 pi) b_plus).  The claim is
    re-verified numerically on the mesh for ``n_members`` sampled class
    members; violations are counted (zero expected).
    """
    if not (0.0 < b_minus <= b_plus):
        raise ValueError(f"need 0 < b_minus <= b_plus, got {b_minus}, {b_plus}")
    if not a >= 0.0:  # also rejects NaN
        raise ValueError(f"need a >= 0, got {a}")
    mesh = mesh or default_certificate_mesh()
    x = mesh.centers()
    # int f = 2 int_0^inf exp(-(x + a)^2 / (2 b^2)) dx; the upper tail ndtr(-a/b)
    # has no 1 - Phi cancellation
    mass = 2.0 * math.sqrt(2.0 * math.pi) * b_minus * float(ndtr(-a / b_minus))
    c = mass / (math.sqrt(2.0 * math.pi) * b_plus)
    nu = MeshMeasure.from_unnormalized(mesh, _minorizing_cell_masses(a, b_minus, mesh))
    nu_density = _minorizing_shape(a, b_minus, x) / mass

    gen = np.random.Generator(np.random.Philox(key=seed))
    means = gen.uniform(-a, a, size=n_members) if a > 0 else np.zeros(n_members)
    sds = gen.uniform(b_minus, b_plus, size=n_members)
    floor = c * nu_density
    violations = 0
    worst = math.inf
    for m, sd in zip(means, sds):
        dens = np.exp(-0.5 * ((x - m) / sd) ** 2) / (math.sqrt(2.0 * math.pi) * sd)
        margin = float((dens - floor).min())
        worst = min(worst, margin)
        if margin < -1e-12:
            violations += 1
    return MinorizationCertificate(c=c, nu=nu, n0=n0, t1=t1, a=a,
                                   b_minus=b_minus, b_plus=b_plus,
                                   n_members_checked=n_members,
                                   n_violations=violations, worst_margin=worst)


@dataclass(frozen=True)
class DoeblinReport:
    """Cell-wise check of delta_x P_{s, s+n0 t1} >= c nu over probes and s."""

    worst_margin: float
    worst_probe: float
    worst_s: float
    valid: bool
    degenerate: bool

    def to_json(self) -> str:
        return json.dumps({
            "kind": "doeblin", "worst_margin": self.worst_margin,
            "worst_probe": self.worst_probe, "worst_s": self.worst_s,
            "valid": self.valid, "degenerate": self.degenerate,
        }, sort_keys=True)


def doeblin_from_minorization(cert: MinorizationCertificate,
                              s_values: Iterable[float],
                              probes: Iterable[float],
                              kernel: GaussianKernel) -> DoeblinReport:
    """Verify the kernel's one-window laws dominate c * nu cell-wise."""
    floor = cert.c * cert.nu.weights
    worst = math.inf
    w_probe = w_s = math.nan
    for s in s_values:
        for x in probes:
            mass = kernel.cell_mass(s, s + cert.n0 * cert.t1, x, cert.nu.mesh)
            margin = float((mass - floor).min())
            if margin < worst:
                worst, w_probe, w_s = margin, x, s
    # tolerance absorbs rounding where c * nu touches the kernel law (a class
    # of one member) and nu's renormalization to the mesh
    return DoeblinReport(worst_margin=worst, worst_probe=w_probe, worst_s=w_s,
                         valid=bool(worst >= -1e-9), degenerate=cert.degenerate)


# ---------------------------------------------------------------------------
# contraction-rate fit
# ---------------------------------------------------------------------------

def contraction_rate_fit(propagate: Callable[[MeshMeasure, float, float], MeshMeasure],
                         mu1: MeshMeasure, mu2: MeshMeasure,
                         psi: Callable[[np.ndarray], np.ndarray],
                         horizons: Sequence[float], s: float = 0.0
                         ) -> Tuple[float, float, float]:
    """Least-squares fit of log psi-distance against the horizon.

    ``propagate(mu, s, t)`` pushes a measure from time s to t.  Returns
    (C', kappa, R^2) for the model distance(t) ~ C' (mu1(psi) + mu2(psi))
    exp(-kappa (t - s)).  Horizons where the distance underflows are
    truncated; identical inputs yield the kappa = +inf sentinel.
    """
    horizons = sorted(horizons)
    if len(horizons) < 3:
        raise ValueError("need at least 3 horizons")
    dists = []
    for t in horizons:
        d = psi_distance(propagate(mu1, s, t), propagate(mu2, s, t), psi)
        dists.append(d)
    ts = np.asarray(horizons, dtype=float)
    ds = np.asarray(dists, dtype=float)
    keep = ds > 1e-14
    if keep.sum() < 3:
        return 0.0, math.inf, 1.0
    ts, ds = ts[keep], ds[keep]
    slope, intercept = np.polyfit(ts - s, np.log(ds), 1)
    fitted = slope * (ts - s) + intercept
    ss_res = float(np.sum((np.log(ds) - fitted) ** 2))
    ss_tot = float(np.sum((np.log(ds) - np.log(ds).mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    mass = mu1.expectation(psi) + mu2.expectation(psi)
    return float(math.exp(intercept) / mass), float(-slope), r2
