"""Ergodic limit of the periodic dynamics: skeleton invariant measure and the
period-averaged limiting value of time averages.

The period map of the auxiliary dynamics is the AR recursion
x -> a x + s0 Z with a = exp(-int_0^gamma g) and s0 the one-period standard
deviation, whose Gaussian fixed point Normal(0, s0^2/(1-a^2)) anchors the
ergodic limit.  A mesh power-iteration oracle computes the same invariant
measure independently; tests cross-check the two routes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .measures import Mesh, MeshMeasure
from .ou import OUSpec, _ndtr, drift_profile, transition_params
from .paths import Observable

__all__ = [
    "SkeletonMap",
    "ContractionError",
    "PowerIterationError",
    "invariant_gaussian",
    "skeleton_kernel_matrix",
    "gaussian_kernel_matrix",
    "power_iteration_invariant",
    "limiting_value",
]


class ContractionError(ValueError):
    """The skeleton map is not a contraction (a >= 1)."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""


@dataclass(frozen=True)
class SkeletonMap:
    """One-period AR map x -> a x + s0 Z of the auxiliary dynamics."""

    a: float
    s0: float

    @staticmethod
    def from_spec(spec: OUSpec) -> "SkeletonMap":
        tr = transition_params(spec.g, 0.0, spec.gamma)
        return SkeletonMap(a=tr.m, s0=tr.sigma)


def skeleton_fixed_point_variance(sk: SkeletonMap) -> float:
    """Variance of the Gaussian fixed point of x -> a x + s0 Z."""
    if sk.a >= 1.0:
        raise ContractionError(f"skeleton not contracting: a = {sk.a!r} >= 1")
    return sk.s0 ** 2 / (1.0 - sk.a ** 2)


def invariant_gaussian(spec: OUSpec) -> Tuple[float, float]:
    """(mean, variance) of the skeleton's Gaussian fixed point.

    The AR map x -> a x + s0 Z has invariant law Normal(0, s0^2 / (1 - a^2)),
    provided a < 1.
    """
    return 0.0, skeleton_fixed_point_variance(SkeletonMap.from_spec(spec))


def _folded_cell_masses(m: float, sigma: float, x: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Cell masses of Normal(m x, sigma^2) on the mesh, one row per state x.

    Mass beyond the mesh is folded into the edge cells, so rows sum to 1
    exactly; sigma = 0 puts all the mass in the cell of m x.
    """
    if sigma == 0.0:
        k = np.zeros((len(x), mesh.n_cells))
        k[np.arange(len(x)), mesh.cell_index(m * x)] = 1.0
        return k
    cdf = _ndtr((mesh.edges()[None, :] - m * x[:, None]) / sigma)
    cdf[:, 0] = 0.0
    cdf[:, -1] = 1.0
    return np.diff(cdf, axis=1)


def gaussian_kernel_matrix(m: float, sigma: float, mesh: Mesh) -> np.ndarray:
    """Row-stochastic matrix of x -> Normal(m x, sigma^2) on the mesh; row i
    gives the law from the cell center x_i."""
    return _folded_cell_masses(m, sigma, mesh.centers(), mesh)


def skeleton_kernel_matrix(spec: OUSpec, mesh: Mesh) -> np.ndarray:
    sk = SkeletonMap.from_spec(spec)
    return gaussian_kernel_matrix(sk.a, sk.s0, mesh)


def power_iteration_invariant(kernel_matrix: np.ndarray, mesh: Mesh,
                              tol: float = 1e-12, max_iter: int = 100_000
                              ) -> Tuple[MeshMeasure, int]:
    """Invariant probability vector of a row-stochastic mesh operator.

    Iterates mu <- mu K from the uniform start until ||mu K - mu||_1 <= tol.
    Returns the measure and the iteration count.
    """
    k = np.asarray(kernel_matrix, dtype=float)
    if k.shape != (mesh.n_cells, mesh.n_cells):
        raise ValueError(f"matrix shape {k.shape} does not match mesh ({mesh.n_cells} cells)")
    row_err = np.abs(k.sum(axis=1) - 1.0).max()
    if row_err > 1e-10:
        raise ValueError(f"rows must sum to 1 within 1e-10, worst error {row_err:.3e}")
    mu = np.full(mesh.n_cells, 1.0 / mesh.n_cells)
    for it in range(1, max_iter + 1):
        nxt = mu @ k
        if np.abs(nxt - mu).sum() <= tol:
            nxt = nxt / nxt.sum()
            return MeshMeasure(mesh, nxt), it
        mu = nxt
    raise PowerIterationError(f"no convergence to {tol:.1e} within {max_iter} iterations")


# outer Simpson panels over one period, and the Gauss-Hermite order of the
# inner expectation, in limiting_value
_N_S = 256
_GH_ORDER = 64


@functools.lru_cache(maxsize=None)
def _gauss_hermite(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights of the Gauss-Hermite rule, computed once
    per order and returned read-only, since every caller shares them."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights / math.sqrt(math.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def limiting_value(spec: OUSpec, f: Observable | Callable[[np.ndarray], np.ndarray]) -> float:
    """Period-averaged limit of time averages under the periodic dynamics.

    Computes (1/gamma) int_0^gamma E[f] ds where the law at phase s is the
    skeleton invariant pushed through the partial period: Normal(0,
    a_s^2 sigma_inf^2 + sigma(0,s)^2) with a_s = exp(-int_0^s g).  The inner
    expectation uses Gauss-Hermite quadrature of order _GH_ORDER, the outer
    s-integral composite Simpson on _N_S panels.
    """
    _, var_inf = invariant_gaussian(spec)
    # profile of Q_{0,s} at every node and midpoint of the outer Simpson rule
    _, a_s, var_s = drift_profile(spec.g, 0.0, spec.gamma, 2 * _N_S)
    total_var = np.exp(-2.0 * a_s) * var_inf + var_s
    nodes, weights = _gauss_hermite(_GH_ORDER)
    x = math.sqrt(2.0) * np.sqrt(total_var)[:, None] * nodes[None, :]
    fn = f.fn if isinstance(f, Observable) else f
    vals = np.asarray(fn(x), dtype=float) @ weights
    if vals.shape != (2 * _N_S + 1,):
        raise ValueError("observable must evaluate elementwise on arrays")
    # a plain Simpson sum, not simpson_profile's running one, whose cumsum
    # would change its bits
    simpson = (vals[0:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2]).sum() / (6.0 * _N_S)
    return float(simpson)
