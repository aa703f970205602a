"""Measures on uniform 1-d meshes: the discrete stand-in for probability laws.

A MeshMeasure is a probability vector over uniform cells of [x_min, x_max],
built from unnormalized cell masses; tv_distance compares two on one mesh.
It backs the skeleton invariant-measure oracle, minorization certificates,
conditioned-law histograms and occupation measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Mesh", "MeshMeasure", "tv_distance"]


@dataclass(frozen=True)
class Mesh:
    """Uniform partition of [x_min, x_max] into n_cells cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise ValueError(f"empty mesh: [{self.x_min}, {self.x_max}]")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")

    @property
    def width(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def edges(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)

    def centers(self) -> np.ndarray:
        e = self.edges()
        return 0.5 * (e[:-1] + e[1:])

    def cell_index(self, x) -> np.ndarray:
        """Cell containing x; values outside fold into the edge cells."""
        idx = np.floor((np.asarray(x, dtype=float) - self.x_min) / self.width).astype(np.int64)
        return np.clip(idx, 0, self.n_cells - 1)


@dataclass(frozen=True)
class MeshMeasure:
    """Probability weights on a Mesh (normalized to 1 within 1e-12)."""

    mesh: Mesh
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.mesh.n_cells,):
            raise ValueError(f"weights shape {w.shape} != ({self.mesh.n_cells},)")
        if np.any(w < -1e-15):
            raise ValueError("negative weights")
        s = w.sum()
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {s!r}, not 1")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def from_unnormalized(mesh: Mesh, mass: np.ndarray) -> "MeshMeasure":
        mass = np.asarray(mass, dtype=float)
        total = mass.sum()
        if total <= 0:
            raise ValueError("total mass must be positive")
        return MeshMeasure(mesh, mass / total)

    def expectation(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.sum(self.weights * np.asarray(f(self.mesh.centers()), dtype=float)))

    def mean(self) -> float:
        return self.expectation(lambda x: x)

    def variance(self) -> float:
        m = self.mean()
        return self.expectation(lambda x: (x - m) ** 2)

    def second_moment(self) -> float:
        return self.expectation(lambda x: x ** 2)

    def to_rows(self):
        return list(zip(self.mesh.centers().tolist(), self.weights.tolist()))


def tv_distance(mu: MeshMeasure, nu: MeshMeasure) -> float:
    """Total variation in [0, 1]: half the L1 distance of the weights."""
    if mu.mesh != nu.mesh:
        raise ValueError(f"mesh mismatch: {mu.mesh} vs {nu.mesh}")
    return 0.5 * float(np.abs(mu.weights - nu.weights).sum())
