"""Ergodic-theorem experiments: L2 convergence of path time averages to the
period-averaged limit, variance decay in t, and single-path almost-sure
convergence evidence.

Replica r draws from the (seed, r) substream, so reports reproduce exactly
and are invariant to batching and thread count.  States are advanced by the
exact one-step Gaussian recursion x -> m_k x + sigma_k z; whole windows of
steps are unrolled with prefix products, which reassociates floating-point
sums only (documented tolerance 1e-12).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .invariant import limiting_value
from .ou import OUSpec, grid_transition_params
from .paths import Observable
from .rng import make_generator
from .timefns import TimeGrid

__all__ = [
    "ErgodicReport",
    "ASReport",
    "InitialSampler",
    "point_initial",
    "normal_initial",
    "default_checkpoints",
    "ergodic_time_averages",
    "run_l2_experiment",
    "run_as_experiment",
]

_WINDOW = 256  # steps unrolled per prefix-product window
_MAX_BATCH_ELEMS = int(2e7)  # replica-steps per batch; batches go to the thread pool


InitialSampler = Callable[[np.random.Generator], float]


def point_initial(x: float) -> InitialSampler:
    def sample(gen: np.random.Generator) -> float:
        return x
    return sample


def normal_initial(mean: float, sd: float) -> InitialSampler:
    def sample(gen: np.random.Generator) -> float:
        return mean + sd * gen.standard_normal()
    return sample


def default_checkpoints(t_max: float) -> List[float]:
    """Squares 1, 4, 9, ... (the subsequence driving the a.s. argument)
    joined with decade marks, up to t_max."""
    pts = {float(n * n) for n in range(1, int(math.isqrt(int(t_max))) + 1)}
    d = 10.0
    while d <= t_max:
        pts.add(d)
        d *= 10.0
    pts.add(float(t_max))
    return sorted(pts)


def _checkpoint_steps(t_values: Sequence[float], dt: float, n_steps: int) -> List[int]:
    steps = []
    for t in t_values:
        k = int(round(t / dt))
        if abs(k * dt - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"checkpoint t={t} is not a multiple of dt={dt}")
        if not (1 <= k <= n_steps):
            raise ValueError(f"checkpoint t={t} outside the simulated span")
        steps.append(k)
    return steps


def _window_states(x0: np.ndarray, m: np.ndarray, sig: np.ndarray,
                   z: np.ndarray) -> np.ndarray:
    """States after each of the window's steps, from x0 of shape (B,).

    x_{j+1} = P_j (x0 + sum_{i<=j} sigma_i z_i / P_i) with P the prefix
    products of m; exact up to float reassociation for windows short enough
    that the products stay in range (window length 256, drift <= 2).
    """
    p = np.cumprod(m)
    incr = np.cumsum(sig * z / p, axis=-1)
    return p * (x0[..., None] + incr)


def _run_batch(replicas: range, drift, f, initial, grid: TimeGrid,
               check_steps: List[int], seed: int, out: np.ndarray) -> None:
    n_rep = len(replicas)
    gens = [make_generator(seed, r) for r in replicas]
    x = np.array([float(initial(g)) for g in gens])
    f_prev = np.asarray(f(x), dtype=float)
    running = np.zeros(n_rep)
    checks = {k: j for j, k in enumerate(check_steps)}
    k0 = 0
    while k0 < grid.n_steps:
        w = min(_WINDOW, grid.n_steps - k0)
        sub = TimeGrid(t0=grid.t0 + k0 * grid.dt, dt=grid.dt, n_steps=w)
        m, sig = grid_transition_params(drift, sub)
        z = np.stack([g.standard_normal(w) for g in gens])
        states = _window_states(x, m, sig, z)
        f_vals = np.asarray(f(states), dtype=float)
        pieces = 0.5 * grid.dt * np.concatenate(
            [(f_prev + f_vals[:, 0])[:, None],
             f_vals[:, :-1] + f_vals[:, 1:]], axis=1)
        cum = np.cumsum(pieces, axis=1)
        for j in range(w):
            col = checks.get(k0 + j + 1)
            if col is not None:
                t = (k0 + j + 1) * grid.dt
                out[replicas.start:replicas.stop, col] = (running + cum[:, j]) / t
        running += cum[:, -1]
        x = states[:, -1]
        f_prev = f_vals[:, -1]
        k0 += w


def ergodic_time_averages(drift, f: Observable, initial: InitialSampler,
                          t_values: Sequence[float], dt: float, n_replicas: int,
                          seed: int, threads: int = 1) -> np.ndarray:
    """Matrix of path time averages: rows replicas, columns the t_values."""
    t_max = max(t_values)
    n_steps = int(round(t_max / dt))
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)
    check_steps = _checkpoint_steps(t_values, dt, n_steps)
    out = np.empty((n_replicas, len(t_values)))
    batch = max(1, min(n_replicas, _MAX_BATCH_ELEMS // max(1, n_steps)))
    batches = [range(lo, min(lo + batch, n_replicas)) for lo in range(0, n_replicas, batch)]
    if threads > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: _run_batch(b, drift, f, initial, grid,
                                               check_steps, seed, out), batches))
    else:
        for b in batches:
            _run_batch(b, drift, f, initial, grid, check_steps, seed, out)
    return out


@dataclass(frozen=True)
class ErgodicReport:
    """Per-t summary of replica time averages against the computed limit."""

    t_values: Tuple[float, ...]
    mean_avg: Tuple[float, ...]
    l2_err: Tuple[float, ...]
    var: Tuple[float, ...]
    stderr: Tuple[float, ...]
    limit: float
    var_slope: float
    n_replicas: int
    dt: float
    seed: int

    def rows(self):
        return list(zip(self.t_values, self.mean_avg, self.l2_err, self.var, self.stderr))


def run_l2_experiment(spec: OUSpec, f: Observable, initial: InitialSampler,
                      t_values: Sequence[float], n_replicas: int,
                      dt: float = 1e-2, seed: int = 0,
                      use_auxiliary: bool = False, threads: int = 1,
                      limit: Optional[float] = None) -> ErgodicReport:
    """Estimate E[(A_t - L)^2] across replicas at the given horizons.

    L is the quadrature-computed period-averaged limit unless supplied.  The
    fitted log-log slope of the cross-replica variance against t should be
    near -1 (the O(1/t) variance decay).
    """
    t_values = sorted(t_values)
    if limit is None:
        limit = limiting_value(spec, f)
    avgs = ergodic_time_averages(spec.drift(use_auxiliary), f, initial,
                                 t_values, dt, n_replicas, seed, threads)
    mean_avg = avgs.mean(axis=0)
    l2_err = ((avgs - limit) ** 2).mean(axis=0)
    var = avgs.var(axis=0, ddof=1) if n_replicas > 1 else np.zeros(len(t_values))
    stderr = np.sqrt(var / n_replicas)
    pos = var > 0
    slope = float(np.polyfit(np.log(np.asarray(t_values)[pos]), np.log(var[pos]), 1)[0]) \
        if pos.sum() >= 2 else math.nan
    return ErgodicReport(t_values=tuple(t_values), mean_avg=tuple(mean_avg),
                         l2_err=tuple(l2_err), var=tuple(var), stderr=tuple(stderr),
                         limit=limit, var_slope=slope, n_replicas=n_replicas,
                         dt=dt, seed=seed)


@dataclass(frozen=True)
class ASReport:
    """Single-path deviations |A_t - L| at checkpoint times."""

    t_values: Tuple[float, ...]
    averages: Tuple[float, ...]
    deviations: Tuple[float, ...]
    limit: float
    seed: int

    @property
    def final_deviation(self) -> float:
        return self.deviations[-1]


def run_as_experiment(spec: OUSpec, f: Observable, initial: InitialSampler,
                      t_max: float, checkpoints: Optional[Sequence[float]] = None,
                      dt: float = 1e-2, seed: int = 0,
                      use_auxiliary: bool = False,
                      limit: Optional[float] = None) -> ASReport:
    """One path run to t_max; deviations reported at the checkpoints."""
    if checkpoints is None:
        checkpoints = default_checkpoints(t_max)
    checkpoints = sorted(c for c in checkpoints if c <= t_max + 1e-12)
    if limit is None:
        limit = limiting_value(spec, f)
    avgs = ergodic_time_averages(spec.drift(use_auxiliary), f, initial,
                                 checkpoints, dt, 1, seed)
    averages = avgs[0]
    deviations = np.abs(averages - limit)
    return ASReport(t_values=tuple(checkpoints), averages=tuple(averages),
                    deviations=tuple(deviations), limit=limit, seed=seed)
