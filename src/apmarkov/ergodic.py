"""Ergodic-theorem experiments: L2 convergence of path time averages to the
period-averaged limit, variance decay in t, and single-path almost-sure
convergence evidence.

Replica r draws from the (seed, r) substream, _BLOCK windows of normals per
generator call (one stream however it is cut), so reports reproduce exactly
and are invariant to blocking, batching and thread count.  States are
advanced by the exact one-step Gaussian recursion x -> m_k x + sigma_k z;
windows of steps are unrolled with prefix products P = cumprod(m), which only
reassociates sums (tolerance 1e-12) while P stays in normal float range, else
SimulationError.  Threads run waves of batches (at most _MAX_BATCH replicas
each) that share window parameters, so they help only from 2 batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .invariant import limiting_value
from .ou import OUSpec, grid_transition_params
from .paths import Observable, SimulationError
from .rng import make_generator
from .timefns import grid_steps

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
_BLOCK = 16  # windows of transition parameters per wave, and of normals per draw call
_ROWS = 64  # replicas of a batch stepped together through a block
_MAX_BATCH = 512  # replicas per batch; waves of batches go to the pool


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
        k = grid_steps(t, dt, "checkpoint t")
        if not (1 <= k <= n_steps):
            raise ValueError(f"checkpoint t={t} outside the simulated span")
        steps.append(k)
    return steps


def _run_batch(replicas: range, f, initial, dt: float, n_steps: int,
               check_steps: List[int], seed: int, out: np.ndarray):
    """Generator: advances the replicas, _ROWS at a time, by each block of windows
    (k0, P, sigma) sent to it: x_{j+1} = P_j (x0 + sum_{i<=j} sigma_i z_i / P_i), exact up
    to reassociation while P stays in normal float range (checked by _window).  A replica
    draws a block's normals in one call.  Step-major trapezoid sums keep cumsum's order
    without the GIL (2+ columns: numpy sums one pairwise)."""
    n_rep = len(replicas)
    gens = [make_generator(seed, r) for r in replicas]
    x = np.array([float(initial(g)) for g in gens])
    f_prev = np.array(f(x), dtype=float)  # a copy: f may return x itself
    running = np.zeros(n_rep)
    rows, w_max = min(_ROWS, n_rep), min(_WINDOW, n_steps)
    z = np.empty((rows, min(_BLOCK * _WINDOW, n_steps)))
    states, cum = np.empty((rows, w_max)), np.zeros((w_max, max(2, rows)))
    while True:
        block = yield
        b0 = block[0][0]  # the block's normals fill row[:n_steps - b0], clipped to the buffer
        for lo in range(0, n_rep, rows):
            r = slice(lo, min(lo + rows, n_rep))
            n = r.stop - lo
            for g, row in zip(gens[r], z):
                g.standard_normal(out=row[:n_steps - b0])
            for k0, p, sig in block:
                w = len(p)
                s, c = states[:n, :w], cum[:w, :max(2, n)]
                np.multiply(sig, z[:n, k0 - b0:k0 - b0 + w], out=s)
                s /= p
                np.cumsum(s, axis=1, out=s)
                s += x[r, None]
                s *= p
                x[r] = s[:, -1]
                f_vals = np.asarray(f(s, out=s), dtype=float)  # s is not read again
                np.add(f_prev[r], f_vals[:, 0], out=c[0, :n])
                np.add(f_vals[:, :-1].T, f_vals[:, 1:].T, out=c[1:, :n])
                f_prev[r] = f_vals[:, -1]
                c *= 0.5 * dt
                for col, k in enumerate(check_steps):
                    if k0 < k <= k0 + w:
                        out[r, col] = (running[r] + np.add.reduce(c[:k - k0], 0)[:n]) / (k * dt)
                running[r] += np.add.reduce(c, 0)[:n]


def _window(drift, dt: float, k0: int, w: int):
    """(k0, P, sigma) of the w-step window from step k0, P = cumprod(m)."""
    m, sig = grid_transition_params(drift, k0 * dt, dt, w)
    p = np.cumprod(m)
    if not (np.finfo(float).tiny <= p.min() and p.max() < math.inf):
        raise SimulationError(f"the window at t={k0 * dt:g} leaves float range; use a smaller dt")
    return k0, p, sig


def _run_waves(batches, threads, map_, drift, f, initial, dt, n_steps, check_steps, seed, out):
    """Run the batches in waves of `threads` that advance together, _BLOCK windows
    at a time; each window's (k0, P, sigma) is computed once, on the calling thread."""
    windows = [(k0, min(_WINDOW, n_steps - k0)) for k0 in range(0, n_steps, _WINDOW)]
    for i in range(0, len(batches), threads):
        runs = [_run_batch(b, f, initial, dt, n_steps, check_steps, seed, out[b.start:b.stop])
                for b in batches[i:i + threads]]
        list(map(next, runs))  # draw the initial states
        for j in range(0, len(windows), _BLOCK):
            block = [_window(drift, dt, k0, w) for k0, w in windows[j:j + _BLOCK]]
            list(map_(lambda run: run.send(block), runs))


def ergodic_time_averages(drift, f: Observable, initial: InitialSampler,
                          t_values: Sequence[float], dt: float, n_replicas: int,
                          seed: int, threads: int = 1) -> np.ndarray:
    """Matrix of path time averages: rows replicas, columns the t_values."""
    n_steps = int(round(max(t_values) / dt))
    check_steps = _checkpoint_steps(t_values, dt, n_steps)
    out = np.empty((n_replicas, len(t_values)))
    # equal batches of at most _MAX_BATCH replicas, but a shorter last one
    n_batches = max(1, -(-n_replicas // _MAX_BATCH))
    batch = max(1, -(-n_replicas // n_batches))
    batches = [range(lo, min(lo + batch, n_replicas)) for lo in range(0, n_replicas, batch)]
    threads = min(threads, len(batches))
    args = (drift, f, initial, dt, n_steps, check_steps, seed, out)
    if threads <= 1:
        _run_waves(batches, 1, map, *args)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            _run_waves(batches, threads, pool.map, *args)
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
                      use_auxiliary: bool = False, threads: int = 1) -> ErgodicReport:
    """Estimate E[(A_t - L)^2] across replicas at the given horizons.

    L is the quadrature-computed period-averaged limit.  The fitted log-log
    slope of the cross-replica variance against t should be near -1 (the
    O(1/t) variance decay).
    """
    t_values = sorted(t_values)
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
                      t_max: float, dt: float = 1e-2, seed: int = 0) -> ASReport:
    """One path run to t_max; deviations reported at default_checkpoints(t_max)."""
    checkpoints = default_checkpoints(t_max)
    limit = limiting_value(spec, f)
    avgs = ergodic_time_averages(spec.lam, f, initial,
                                 checkpoints, dt, 1, seed)
    averages = avgs[0]
    deviations = np.abs(averages - limit)
    return ASReport(t_values=tuple(checkpoints), averages=tuple(averages),
                    deviations=tuple(deviations), limit=limit, seed=seed)
