"""Numerical certification of drift and minorization conditions.

Certificates are *checked*, never searched: the caller proposes the
constants (theta, C, K, c, nu, ...) and the module verifies the defining
inequalities on a mesh, reporting the worst residual.  An invalid
certificate is a result, not an error.  The drift check reads the exact OU
transition (m, sigma) from :func:`apmarkov.ou.transition_params` and takes
P psi for psi = 1 + x^2 in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measures import Mesh, MeshMeasure
from .ou import _ndtr, transition_params
from .paths import SimulationError
from .timefns import TimeFunction

__all__ = [
    "DriftCertificate",
    "MinorizationCertificate",
    "check_drift",
    "gaussian_class_minorization",
    "default_certificate_mesh",
]


def default_certificate_mesh() -> Mesh:
    return Mesh(x_min=-8.0, x_max=8.0, n_cells=2001)


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


def check_drift(drift: TimeFunction, s: float, t1: float, theta: float, C: float,
                k_edge: float, mesh: Optional[Mesh] = None) -> DriftCertificate:
    """Verify the drift inequality for psi = 1 + x^2 on the mesh, K = [-k_edge,
    k_edge].  The exact OU kernel over [s, s + t1] gives P psi(x) = 1 + sigma^2
    + m^2 x^2 in closed form."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if C <= 0:
        raise ValueError(f"C must be > 0, got {C}")
    mesh = mesh or default_certificate_mesh()
    x = mesh.centers()
    tr = transition_params(drift, s, s + t1)
    x2 = x * x
    residual = (1.0 + tr.sigma ** 2 + tr.m ** 2 * x2 - theta * (1.0 + x2)
                - C * (np.abs(x) <= k_edge))
    i = int(np.argmax(residual))
    return DriftCertificate(s=s, t1=t1, theta=theta, C=C, k_edge=k_edge,
                            max_residual=float(residual[i]), argmax_x=float(x[i]),
                            valid=bool(residual[i] <= 0.0))


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

    def to_json(self) -> str:
        return json.dumps({
            "kind": "minorization", "c": self.c, "n0": self.n0, "t1": self.t1,
            "a": self.a, "b_minus": self.b_minus, "b_plus": self.b_plus,
            "n_members_checked": self.n_members_checked,
            "n_violations": self.n_violations, "worst_margin": self.worst_margin,
        }, sort_keys=True)


# members per block of the member check: 16 rows beat 8, 64 and all at once
_MEMBER_BLOCK = 16


def _minorizing_shape(a: float, b_minus: float, x: np.ndarray) -> np.ndarray:
    return np.minimum(np.exp(-(x - a) ** 2 / (2.0 * b_minus ** 2)),
                      np.exp(-(x + a) ** 2 / (2.0 * b_minus ** 2)))


def _minorizing_cell_masses(a: float, b: float, mesh: Mesh) -> np.ndarray:
    """Exact per-cell integrals of the minorizing shape exp(-(|x|+a)^2 / (2 b^2)),
    from its upper tails t(x) = sqrt(2 pi) b Phi(-(|x|+a)/b), never from values
    near 1: t(l) - t(r) or t(r) - t(l) on one side of 0, 2 t(0) - t(l) - t(r)
    across it."""
    edges = mesh.edges()
    tail = math.sqrt(2.0 * math.pi) * b * _ndtr(-(np.abs(edges) + a) / b)
    tl, tr = tail[:-1], tail[1:]
    straddle = 2.0 * math.sqrt(2.0 * math.pi) * b * _ndtr(-a / b) - tl - tr
    return np.where(edges[:-1] >= 0.0, tl - tr, np.where(edges[1:] <= 0.0, tr - tl, straddle))


def gaussian_class_minorization(a: float, b_minus: float, b_plus: float,
                                mesh: Optional[Mesh] = None,
                                n_members: int = 1000, seed: int = 0) -> MinorizationCertificate:
    """Common minorization of all Normal(m, sigma^2) with |m| <= a and
    b_minus <= sigma <= b_plus, certified for one window of length 1
    (n0 = 1, t1 = 1).

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
    # int f = 2 int_0^inf exp(-(x + a)^2 / (2 b^2)) dx; the upper tail Phi(-a/b)
    # has no 1 - Phi cancellation
    mass = 2.0 * math.sqrt(2.0 * math.pi) * b_minus * _ndtr(-a / b_minus)
    c = mass / (math.sqrt(2.0 * math.pi) * b_plus)
    masses = _minorizing_cell_masses(a, b_minus, mesh)
    if not masses.sum() > 0.0:  # the mesh lies where f underflows
        raise SimulationError(f"nu has no mass on the mesh [{mesh.x_min}, {mesh.x_max}]")
    nu = MeshMeasure.from_unnormalized(mesh, masses)
    nu_density = _minorizing_shape(a, b_minus, x) / mass

    gen = np.random.Generator(np.random.Philox(key=seed))
    means = gen.uniform(-a, a, size=n_members) if a > 0 else np.zeros(n_members)
    sds = gen.uniform(b_minus, b_plus, size=n_members)
    floor = c * nu_density
    # member densities minus the floor, a block at a time, in a one-member loop's float ops
    margins = np.empty(n_members)
    buf = np.empty((_MEMBER_BLOCK, len(x)))
    for lo in range(0, n_members, _MEMBER_BLOCK):
        m, sd = means[lo:lo + _MEMBER_BLOCK, None], sds[lo:lo + _MEMBER_BLOCK, None]
        d = buf[:len(m)]
        np.subtract(x, m, out=d)
        d /= sd
        np.square(d, out=d)
        d *= -0.5
        np.exp(d, out=d)
        d /= math.sqrt(2.0 * math.pi) * sd
        d -= floor
        d.min(axis=1, out=margins[lo:lo + _MEMBER_BLOCK])
    return MinorizationCertificate(c=c, nu=nu, n0=1, t1=1.0, a=a,
                                   b_minus=b_minus, b_plus=b_plus,
                                   n_members_checked=n_members,
                                   n_violations=int(np.count_nonzero(margins < -1e-12)),
                                   worst_margin=float(margins.min(initial=math.inf)))
