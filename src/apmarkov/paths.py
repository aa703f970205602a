"""Path observables and the numeric failure raised by the simulation engines.

An :class:`Observable` is the pointwise map f whose path time averages the
ergodic experiments estimate; :class:`SimulationError` is what an engine
raises when a run cannot continue (the CLI maps it to exit code 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["Observable", "SimulationError"]


class SimulationError(RuntimeError):
    """A run that cannot continue: all particles absorbed, no survivors, or
    an observable outside its declared bound."""


@dataclass(frozen=True)
class Observable:
    """Named pointwise map x -> f(x), vectorized, with optional sup bound."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    bound: Optional[float] = None

    def __call__(self, x):
        vals = self.fn(np.asarray(x, dtype=float))
        if self.bound is not None and np.any(np.abs(vals) > self.bound + 1e-12):
            raise SimulationError(
                f"observable {self.name!r} exceeded declared bound {self.bound}")
        return vals
