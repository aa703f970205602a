"""Path observables and the numeric failure raised by the simulation engines.

An :class:`Observable` is the pointwise map f whose path time averages the
ergodic experiments estimate; :class:`SimulationError` is what an engine
raises when a run cannot continue (the CLI maps it to exit code 3).  A ufunc
observable (``x2``, ``abs``, ``cos``) can write into an ``out`` buffer.
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

    def __call__(self, x, out=None):
        x = np.asarray(x, dtype=float)
        vals = self.fn(x, out=out) if isinstance(self.fn, np.ufunc) else self.fn(x)
        if self.bound is not None and np.size(vals):
            # any(|vals| > top) without |vals|: fmax/fmin skip NaN, which hides no excess
            top = self.bound + 1e-12
            if np.fmax.reduce(vals, None) > top or np.fmin.reduce(vals, None) < -top:
                raise SimulationError(
                    f"observable {self.name!r} exceeded declared bound {self.bound}")
        return vals
