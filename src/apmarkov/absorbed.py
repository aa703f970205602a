"""Brownian motion absorbed by moving symmetric boundaries +-h(t).

Discretization: exact Brownian increments on the grid, with absorption
decided per step by the Brownian-bridge crossing probability against the
step-linearized boundary,

    p_up = exp(-2 (h(t_k) - x_k)(h(t_{k+1}) - x_{k+1}) / dt),

mirrored for the lower boundary (a naive grid-crossing test biases survival
up by O(sqrt(dt))).  Bridge-triggered absorption reports tau at the step
midpoint.

The module carries the conditioned-ensemble machinery built on that core:
survival estimates, Girsanov reweighting onto the unit-boundary problem in
the transformed clock I(t) = int_0^t h(u)^-2 du, Fleming-Viot particles with
ancestral occupation statistics, horizon-conditioned laws, and the
two-boundary convergence reports.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .measures import Mesh, MeshMeasure, tv_distance
from .paths import SimulationError
from .rng import counter_uniform, make_generator, rekey, set_key, substream_key
from .timefns import TimeFunction, grid_steps, simpson_profile

__all__ = [
    "BoundaryPair",
    "ParticleSystem",
    "OccupationMeasure",
    "SurvivalEstimate",
    "default_boundary_pair",
    "survival_probability",
    "survival_flags",
    "conditioned_endpoint_law",
    "girsanov_weight",
    "girsanov_survival_estimate",
    "fleming_viot",
    "FVResult",
    "q_process_approx",
    "QProcessResult",
    "boundary_convergence_report",
    "SurvivalGapRow",
    "qed_comparison",
    "QEDComparison",
]

# path-steps per engine batch: sets its paths, and its noise (8 MB) unless chunked
_MAX_BATCH_ELEMS = int(1e6)
# steps per step-major noise window; the working set is compacted between windows
_WINDOW = 64
_CHUNK = 8 * _WINDOW  # steps per draw of the working set's normals, a window multiple
_GEN_COST = 1000  # a generator's build time in normals drawn (25 us against 27 ns)
# bridge crossings are evaluated within this many sqrt(dt) of the boundary at either end
# of a step; beyond it p < 2 exp(-2 * 5^2) < 2^-53, the smallest counter uniform
_BRIDGE_REACH = 5.0


# ---------------------------------------------------------------------------
# boundary specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryPair:
    """Moving boundary h below its gamma-periodic envelope g (h <= g, h -> g).

    ``n0`` bounds how many periods ahead the running infimum of h is
    attained: inf over [s, infinity) of h is reached inside [s, s + n0 gamma]
    for every s (checked numerically on sampled s).
    """

    h: TimeFunction
    g: TimeFunction
    gamma: float
    n0: int = 1

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")

    def _infimum_windows(self):
        """Sorted grid, starts s, and index ranges [lo, mid), [mid, hi) of each s's windows."""
        horizon = (self.n0 + 25.0) * self.gamma
        starts = np.linspace(0.0, 30.0 * self.gamma, 64)
        fine = np.linspace(0.0, 30.0 * self.gamma + horizon, 60_001)
        lo = np.searchsorted(fine, starts, "left")
        mid = np.searchsorted(fine, starts + self.n0 * self.gamma, "right")
        hi = np.searchsorted(fine, starts + horizon, "right")
        return fine, starts, lo, mid, hi

    def validate(self) -> None:
        if not (math.isfinite(self.h.lower) and self.h.lower > 0):
            raise ValueError("h must declare a positive lower bound")
        if not math.isfinite(self.h.upper):
            raise ValueError("h must declare a finite upper bound")
        if not self.h.check_bounds():
            raise ValueError("h violates its declared bounds on the check grid")
        if self.g.period is None or abs(self.g.period - self.gamma) > 1e-12:
            raise ValueError(f"g must declare period gamma={self.gamma}")
        if not self.g.check_periodicity():
            raise ValueError("g is not periodic with the declared period")
        if not (math.isfinite(self.g.upper) and self.g.check_bounds()):
            raise ValueError("g must declare a finite upper bound and keep its declared bounds")
        ts = np.linspace(0.0, 40.0 * self.gamma, 4001)
        if np.any(self.h(ts) > self.g(ts) + 1e-12):
            raise ValueError("h must not exceed g")
        fine, starts, lo, mid, hi = self._infimum_windows()
        for piece in np.array_split(fine, 16):  # h in place; one h(fine) call holds 6 grids
            piece[...] = self.h(piece)
        hv = fine
        for s, a, b, c in zip(starts, lo, mid, hi):
            v_near, v_far = float(hv[a:b].min()), float(hv[b:c].min())
            # value comparison with tolerance: once the perturbation decays
            # below grid resolution the dips tie, which still satisfies the
            # running-infimum condition
            if v_near > v_far + 1e-6 * (1.0 + abs(v_far)):
                raise ValueError(
                    f"running infimum from s={s:.3f} (={v_far:.6f}) undercuts the "
                    f"window [s, s + n0 gamma] minimum {v_near:.6f}")


def default_boundary_pair() -> BoundaryPair:
    """Envelope 1 + 0.25 sin(2 pi t) approached from below through the
    decaying factor 1/(1 + 0.3 exp(-0.7 t))."""
    from .timefns import parse_time_function

    g = parse_time_function("1 + 0.25*sin(2*pi*t)", lower=0.75, upper=1.25, period=1.0)
    h = parse_time_function("(1 + 0.25*sin(2*pi*t)) / (1 + 0.3*exp(-0.7*t))",
                            lower=0.57, upper=1.25)
    return BoundaryPair(h=h, g=g, gamma=1.0, n0=1)


# ---------------------------------------------------------------------------
# absorption engine
# ---------------------------------------------------------------------------

def _crossing(x, xn, h0, h1, dt, u) -> np.ndarray:
    """u < p, where p is the probability that the Brownian bridge from x to
    xn over a step of length dt leaves (-h, h) for the boundary linearised
    from h0 to h1, the up and down crossings combined as up + dn - up dn."""
    up = np.exp(-2.0 * np.maximum(h0 - x, 0.0) * np.maximum(h1 - xn, 0.0) / dt)
    dn = np.exp(-2.0 * np.maximum(h0 + x, 0.0) * np.maximum(h1 + xn, 0.0) / dt)
    return u < up + dn - up * dn


def _draws(n: int, n_paths: int, n_steps: int) -> Tuple[list, int]:
    """(generators for _engine to key, steps per draw) for n-path batches: a
    generator per path and _CHUNK steps where the window spans 3+ chunks and
    their build is at most 1/16 of the call's normals; else one, whole windows."""
    if n_steps > 2 * _CHUNK and 16 * _GEN_COST * n <= n_paths * n_steps:
        return [make_generator(0) for _ in range(n)], _CHUNK
    return [make_generator(0)] * n, n_steps


def _engine(ts: np.ndarray, hb: np.ndarray, x0: float, ids: range, seed: int, bridge: bool = True,
            at: Sequence[int] = (), draws: Optional[tuple] = None) -> Dict[str, np.ndarray]:
    """Simulate one batch of absorbed paths on node times ts against one
    boundary (hb of shape (n_steps+1,)) or a stack of boundaries (shape
    (n_boundaries, n_steps+1)), all from a single noise pass.  Path i draws
    its normals from substream (seed, ids[i]) as _draws plans, a chunk at a
    time while it is in the working set; its bridge uniforms are
    counter_uniform's, at bridge candidates only.

    Returns tau (+inf where the path survives the whole window) and alive,
    one row per stacked boundary, and states, of shape (n_paths, len(at)):
    the path states at the step indexes in ``at``.  The path state is shared
    by all boundaries, and the normals and u depend only on (seed, path,
    step), so the noise never depends on the boundary (which makes
    common-random-number comparisons exact).

    Only the paths alive under some boundary are stepped: the working set is
    compacted between windows of steps, and states are NaN for the paths it
    has dropped.
    """
    hb = np.asarray(hb, dtype=float)
    stacked = hb.ndim == 2
    if not stacked:
        hb = hb[None, :]
    n = len(ids)
    n_steps = len(ts) - 1
    keys = substream_key(seed, np.array(ids, dtype=np.uint64))  # for the normals and uniforms
    gens, chunk = draws or _draws(n, n, n_steps)
    z = np.empty((n, min(n_steps, chunk)))  # the chunk's normals, by path
    rows = np.arange(n)  # working set: paths alive under some boundary
    x = np.full(n, float(x0))
    alive = np.ones((len(hb), n), dtype=bool)
    tau = np.full((len(hb), n), np.inf)
    at = np.asarray(at, dtype=int)
    states = np.full((n, len(at)), np.nan)
    states[:, at == 0] = x0
    dts = np.diff(ts)
    if bridge:  # the bridge candidates' reach edges
        reach = _BRIDGE_REACH * np.sqrt(dts)
        lo, hi = hb[:, :-1] - reach, hb[:, 1:] - reach
    buf = np.empty((2, (_WINDOW + 1) * n))  # the window's states and their magnitudes
    for k0 in range(0, n_steps, _WINDOW):
        k1 = min(k0 + _WINDOW, n_steps)
        live = alive.any(axis=0)
        if not live.all():
            rows, x, alive = rows[live], x[live], alive[:, live]
            if rows.size == 0:
                break
        col = k0 % chunk  # the window's first column in z
        if col == 0:
            for r in rows:
                if k0 == 0:  # keyed just before its first draw: a shared gen serves the next path
                    set_key(gens[r], keys[r])
                gens[r].standard_normal(out=z[r, :n_steps - k0])
        # the window's states, step-major: X[j] = x + sum of the first j
        # increments, added in step order, as a step-by-step loop adds them
        dt_w = dts[k0:k1, None]
        X, A = buf[:, :(k1 - k0 + 1) * len(rows)].reshape(2, k1 - k0 + 1, len(rows))
        X[0] = x
        np.multiply(np.sqrt(dt_w), z[rows, col:col + k1 - k0].T, out=X[1:])
        np.cumsum(X, axis=0, out=X)
        np.abs(X, out=A)
        direct = A[1:] >= hb[:, k0 + 1:k1 + 1, None]  # (n_boundaries, window steps, working set)
        hit = direct & alive[:, None, :]
        if bridge:  # p only within reach (elsewhere p < 2^-53 <= u) and where it decides a hit
            cand = (A[:-1] > lo[:, k0:k1, None]) | (A[1:] > hi[:, k0:k1, None])
            cand &= alive[:, None, :] > direct  # alive and not a direct hit
            flat = X.reshape(-1)
            for b, c in enumerate(map(np.flatnonzero, cand)):
                j, i = np.divmod(c, len(rows))
                k = k0 + j
                hit[b].reshape(-1)[c] = _crossing(flat[c], flat[c + len(rows)], hb[b, k],
                                                  hb[b, k + 1], dts[k],
                                                  counter_uniform(keys[rows[i]], k))
        b, i = np.nonzero(hit.any(axis=1))
        if b.size:  # first hit of each newly absorbed (boundary, path)
            j = hit[b, :, i].argmax(axis=1)
            tau[b, rows[i]] = np.where(direct[b, j, i], ts[k0 + j + 1],
                                       ts[k0 + j] + 0.5 * dts[k0 + j])
            alive[b, i] = False
        x = X[-1]  # a view into buf, copied to the next window's X[0] before it is overwritten
        cols = np.nonzero((at > k0) & (at <= k1))[0]
        if cols.size:
            states[rows[:, None], cols] = X[at[cols] - k0].T
    if not stacked:
        tau = tau[0]
    return {"tau": tau, "alive": tau == np.inf, "states": states}


def _batches(n_paths: int, n_steps: int) -> List[range]:
    size = max(1, min(n_paths, _MAX_BATCH_ELEMS // max(1, n_steps)))
    return [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _runs(ts: np.ndarray, hb: np.ndarray, x0: float, n_paths: int, seed: int, **kw):
    """(ids, _engine's result) for each of _batches, all through one _draws."""
    batches = _batches(n_paths, len(ts) - 1)
    draws = _draws(max(map(len, batches), default=0), n_paths, len(ts) - 1)
    return ((ids, _engine(ts, hb, x0, ids, seed, draws=draws, **kw)) for ids in batches)


def _boundary_nodes(h, ts: np.ndarray) -> np.ndarray:
    vals = np.asarray(h(ts), dtype=float) if callable(h) else np.full(len(ts), float(h))
    if vals.ndim == 0:
        vals = np.full(len(ts), float(vals))
    if np.any(vals <= 0):
        raise ValueError("boundary must stay positive on the window")
    return vals


def _uniform_window(t_start: float, T: float, dt: float) -> np.ndarray:
    n_steps = grid_steps(T, dt, "window length T")
    if n_steps < 1:
        raise ValueError("window must contain at least one step")
    return t_start + dt * np.arange(n_steps + 1)


def _check_start(x0: float, h0: float) -> None:
    if abs(x0) >= h0:
        raise ValueError(f"x0={x0} outside the open interval (-{h0}, {h0})")


@dataclass(frozen=True)
class SurvivalEstimate:
    p: float
    stderr: float
    n_paths: int


def survival_flags(h, x0: float, ts: np.ndarray, seed: int, n_paths: int,
                   bridge: bool = True) -> np.ndarray:
    """Per-path survival indicators on the node times ts (CRN-safe: flags for
    different boundaries with the same seed share the driving noise).

    ``h`` is one boundary, giving one flag per path, or a sequence of
    boundaries, giving one flag row per boundary from a single noise pass.
    """
    stacked = isinstance(h, (list, tuple))
    hb = np.stack([_boundary_nodes(b, ts) for b in h]) if stacked else _boundary_nodes(h, ts)
    _check_start(x0, float(np.min(hb[..., 0])))
    flags = np.empty(hb.shape[:-1] + (n_paths,), dtype=bool)
    for ids, out in _runs(ts, hb, x0, n_paths, seed, bridge=bridge):
        flags[..., ids.start:ids.stop] = out["alive"]
    return flags


def survival_probability(h, x0: float, dt: float, T: float, n_paths: int,
                         seed: int, bridge: bool = True) -> SurvivalEstimate:
    """Monte Carlo estimate of P[tau_h > T] from (0, x0)."""
    ts = _uniform_window(0.0, T, dt)
    flags = survival_flags(h, x0, ts, seed, n_paths, bridge=bridge)
    p = float(flags.mean())
    return SurvivalEstimate(p=p, stderr=math.sqrt(max(p * (1.0 - p), 0.0) / n_paths),
                            n_paths=n_paths)


def conditioned_endpoint_law(h, x0: float, dt: float, T: float, n_paths: int,
                             seed: int, mesh: Mesh, bridge: bool = True,
                             t_start: float = 0.0) -> Tuple[MeshMeasure, int]:
    """Histogram of X_{t_start+T} over surviving paths, with survivor count."""
    t_end = t_start + T
    res = q_process_approx(h, t_start, x0, t_end, [t_end], n_paths, seed, mesh,
                           dt=dt, bridge=bridge)
    return res.laws[0], res.n_survivors[0]


# ---------------------------------------------------------------------------
# Girsanov reweighting onto the unit boundary
# ---------------------------------------------------------------------------

def girsanov_weight(times: np.ndarray, w: np.ndarray, h: TimeFunction) -> float:
    """Change-of-measure weight for one unit-boundary clock path.

    ``times`` are physical times t_j; ``w`` holds the clock path sampled at
    the transformed times I(t_j), so w[j] = W_{I(t_j)}.  The weight is

        sqrt(h(t_n)/h(t_0)) * exp(-1/2 [ h'h w^2 |_0^n
                                         + int w^2 ((h')^2 - (h h')') dt ])

    with the integrand simplified through (h')^2 - (h h')' = -h h''.
    """
    times = np.asarray(times, dtype=float)
    w = np.asarray(w, dtype=float)
    if times.shape != w.shape:
        raise ValueError(f"clock mismatch: {times.shape} times vs {w.shape} path values")
    return float(_weights_matrix(times, w[None, :], h)[0])


def _weights_matrix(times: np.ndarray, w: np.ndarray, h: TimeFunction) -> np.ndarray:
    hv = np.asarray(h(times), dtype=float)
    hp = np.asarray(h.derivative_fn(1)(times), dtype=float)
    hpp = np.asarray(h.derivative_fn(2)(times), dtype=float)
    if hv.ndim == 0:
        hv, hp, hpp = (np.full(times.shape, float(v)) for v in (hv, hp, hpp))
    coef = -hv * hpp  # (h')^2 - (h h')' in simplified form
    w2 = w * w
    integ = np.sum(0.5 * np.diff(times) * (w2[:, :-1] * coef[:-1] + w2[:, 1:] * coef[1:]),
                   axis=1)
    boundary = hp[-1] * hv[-1] * w2[:, -1] - hp[0] * hv[0] * w2[:, 0]
    return np.sqrt(hv[-1] / hv[0]) * np.exp(-0.5 * (boundary + integ))


def girsanov_survival_estimate(h: TimeFunction, x0: float, dt: float, T: float,
                               n_paths: int, seed: int) -> SurvivalEstimate:
    """P[tau_h > T] estimated from *unconstrained-rate* Brownian
    paths on the transformed clock: survival against the unit boundary times
    the Girsanov weight.

    Independent of the direct estimator's discretization, which makes the
    pair a two-route consistency check.
    """
    ts = _uniform_window(0.0, T, dt)
    hb = _boundary_nodes(h, ts)
    _check_start(x0, hb[0])
    # clock I(t) = int h^-2 on the window, from h^-2 sampled every dt/2
    v = np.asarray(h(0.5 * dt * np.arange(2 * len(ts) - 1)), dtype=float)
    clock, _ = simpson_profile(1.0 / (v * v), dt)
    ones = np.ones(len(ts))
    w0 = x0 / hb[0]
    # one weight per path, summed once, so the batch split cannot move the sums
    weights = np.zeros(n_paths)  # only the survivors carry a weight
    for ids, out in _runs(clock, ones, w0, n_paths, seed, at=range(len(ts))):
        vals = weights[ids.start:ids.stop]
        vals[out["alive"]] = _weights_matrix(ts, out["states"][out["alive"]], h)
    p = float(weights.sum()) / n_paths
    var = max(float((weights * weights).sum()) / n_paths - p * p, 0.0)
    return SurvivalEstimate(p=p, stderr=math.sqrt(var / n_paths), n_paths=n_paths)


# ---------------------------------------------------------------------------
# Fleming-Viot particle system
# ---------------------------------------------------------------------------

@dataclass
class ParticleSystem:
    """N conditioned particles with their resampling history."""

    n_particles: int
    positions: np.ndarray
    time: float
    seed: int
    respawns: Tuple[array, array, array]  # flat t, dead and donor of each respawn, 16 B

    @property
    def resample_log(self) -> List[Tuple[float, int, int]]:
        """(t, dead, donor) of each respawn in order, built from respawns when read."""
        t, dead, donor = self.respawns
        return list(zip(np.frombuffer(t), dead.tolist(), donor.tolist()))


@dataclass(frozen=True)
class OccupationMeasure:
    """Binned, time-weighted ancestral occupation of the particle system."""

    mesh: Mesh
    mass: np.ndarray
    total_time: float

    def measure(self) -> MeshMeasure:
        return MeshMeasure.from_unnormalized(self.mesh, self.mass)


@dataclass(frozen=True)
class FVResult:
    system: ParticleSystem
    occupation: OccupationMeasure
    ancestral_mass: np.ndarray  # per-particle binned occupation, (N, n_cells)


def fleming_viot(h, n_particles: int, dt: float, T: float, seed: int,
                 mesh: Optional[Mesh] = None, x0: float | str = 0.0,
                 burn_in: float = 0.0) -> FVResult:
    """Fleming-Viot approximation of the conditioned ensemble.

    Particles diffuse as absorbed Brownian motion; an absorbed particle
    respawns at the position of a survivor chosen uniformly (multiple
    absorptions in a step are processed in index order, drawing donors from
    the step's own substream).  Hits are decided as in _engine: the normals
    come from substream (seed, 0), and particle slot i's bridge uniform at
    step k is counter_uniform(substream_key(seed, 4, i), k), read only at
    the bridge candidates.

    Each particle carries the binned occupation of its *ancestral* path:
    on respawn it inherits the donor's record, so at the end the per-particle
    records average into the Cesaro occupation of lines that survived to T.
    That average estimates the horizon-conditioned time average whose limit
    is the quasi-ergodic law.
    """
    if n_particles < 2:
        raise ValueError(f"need at least 2 particles, got {n_particles}")
    ts = _uniform_window(0.0, T, dt)
    hb = _boundary_nodes(h, ts)
    n_steps = len(ts) - 1
    if mesh is None:
        h_max = float(hb.max())
        mesh = Mesh(x_min=-h_max, x_max=h_max, n_cells=80)

    diff_gen = make_generator(seed, 0)
    donor_gen = make_generator(seed, 2)  # re-keyed to substream (seed, 2, k) at step k
    keys = substream_key(seed, 4, np.arange(n_particles, dtype=np.uint64))  # slot uniforms
    reach = _BRIDGE_REACH * np.sqrt(np.diff(ts))
    if isinstance(x0, str):
        if x0 != "uniform":
            raise ValueError(f"unknown initial spec {x0!r}")
        pos = make_generator(seed, 1).uniform(-hb[0], hb[0], size=n_particles)
    else:
        _check_start(float(x0), hb[0])
        pos = np.full(n_particles, float(x0))

    hist = np.zeros((n_particles, mesh.n_cells))
    occupied_time = 0.0
    log = (array("d"), array("i"), array("i"))
    rows = np.arange(n_particles)
    flat_hist, cell_base = hist.reshape(-1), rows * mesh.n_cells

    for k in range(n_steps):
        dt_k = ts[k + 1] - ts[k]
        xn = pos + math.sqrt(dt_k) * diff_gen.standard_normal(n_particles)
        near = (np.abs(pos) > hb[k] - reach[k]) | (np.abs(xn) > hb[k + 1] - reach[k])
        absorbed = np.abs(xn) >= hb[k + 1]
        c = np.flatnonzero(near > absorbed)  # bridge candidates, as _engine's: within reach, not hit
        absorbed[c] = _crossing(pos[c], xn[c], hb[k], hb[k + 1], dt_k, counter_uniform(keys[c], k))
        n_abs = np.count_nonzero(absorbed)
        if n_abs == n_particles:
            raise SimulationError(
                f"all {n_particles} particles absorbed in one step at t={ts[k + 1]:.4f}; "
                "decrease dt or increase the particle count")
        if n_abs:  # one donor draw per absorbed particle, in index order
            dead = rows[absorbed]
            survivors = rows[~absorbed]
            rekey(donor_gen, seed, 2, k)
            donors = survivors[donor_gen.integers(len(survivors), size=n_abs)]
            xn[dead] = xn[donors]  # donors are survivors, so the order is immaterial
            hist[dead] = hist[donors]
            for col, vals in zip(log, ([ts[k + 1]] * n_abs, dead.tolist(), donors.tolist())):
                col.extend(vals)
        pos = xn
        if ts[k + 1] > burn_in + 1e-12:
            flat_hist[cell_base + mesh.cell_index(pos)] += dt_k
            occupied_time += dt_k

    system = ParticleSystem(n_particles=n_particles, positions=pos,
                            time=float(ts[-1]), seed=seed, respawns=log)
    occ = OccupationMeasure(mesh=mesh, mass=hist.mean(axis=0), total_time=occupied_time)
    return FVResult(system=system, occupation=occ, ancestral_mass=hist)


# ---------------------------------------------------------------------------
# horizon-conditioned laws (Q-process approximation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QProcessResult:
    """Laws of X_t conditioned on surviving to each horizon."""

    t: float
    horizons: Tuple[float, ...]
    laws: Tuple[MeshMeasure, ...]
    n_survivors: Tuple[int, ...]
    stabilization: Tuple[float, ...]  # TV between consecutive horizons
    flagged: Tuple[float, ...]  # horizons with fewer than 100 survivors


def q_process_approx(h, s: float, x: float, t: float, horizons: Sequence[float],
                     n_paths: int, seed: int, mesh: Mesh, dt: float = 1e-3,
                     bridge: bool = True) -> QProcessResult:
    """Histogram of X_t over paths surviving to each horizon T.

    Conditioning on larger and larger T approximates the law of the process
    conditioned to survive forever; the TV between consecutive horizons is
    the stabilization diagnostic.
    """
    horizons = sorted(horizons)
    if not (s <= t <= horizons[0]):
        raise ValueError(f"need s <= t <= min(horizons), got s={s}, t={t}, "
                         f"min horizon {horizons[0]}")
    ts = _uniform_window(s, horizons[-1] - s, dt)
    hb = _boundary_nodes(h, ts)
    _check_start(x, hb[0])
    rec_step = grid_steps(t - s, dt, "t - s")
    ends = [grid_steps(v - s, dt, "horizon - s") for v in horizons]
    counts = np.zeros((len(horizons), mesh.n_cells))
    n_surv = np.zeros(len(horizons), dtype=int)
    for _, out in _runs(ts, hb, x, n_paths, seed, bridge=bridge, at=(rec_step,)):
        for j, end in enumerate(ends):
            alive = out["tau"] > ts[end]  # absorbed at the horizon's node is dead
            counts[j] += np.bincount(mesh.cell_index(out["states"][alive, 0]),
                                     minlength=mesh.n_cells)
            n_surv[j] += int(alive.sum())
    laws = []
    flagged = []
    for j, horizon in enumerate(horizons):
        if n_surv[j] == 0:
            raise SimulationError(f"no survivors at horizon {horizon}; widen n_paths")
        if n_surv[j] < 100:
            flagged.append(horizon)
        laws.append(MeshMeasure.from_unnormalized(mesh, counts[j]))
    stab = tuple(tv_distance(laws[j], laws[j + 1]) for j in range(len(laws) - 1))
    return QProcessResult(t=t, horizons=tuple(horizons), laws=tuple(laws),
                          n_survivors=tuple(int(v) for v in n_surv),
                          stabilization=stab, flagged=tuple(flagged))


# ---------------------------------------------------------------------------
# two-boundary convergence evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalGapRow:
    k: int
    gap: float
    stderr: float
    sandwich_prob: float


def boundary_convergence_report(pair: BoundaryPair, s: float, t: float, x: float,
                                k_values: Sequence[int], n_paths: int,
                                dt: float = 1e-3, seed: int = 0) -> List[SurvivalGapRow]:
    """Per-k gap |P_{s+k gamma, x}[tau_h > t+k gamma] - P_{s,x}[tau_g > t]|
    and the sandwich probability P[tau_h <= t+k gamma < tau_g].

    Both boundaries ride the same driving noise (common random numbers), so
    with h <= g the per-path survival indicators are ordered and the gap
    equals the sandwich estimate exactly.
    """
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    if t == s or len(k_values) == 0:
        return [SurvivalGapRow(k=int(k), gap=0.0, stderr=0.0, sandwich_prob=0.0)
                for k in k_values]
    # every k on the k = 0 clock: row k's boundaries are u -> b(u + k gamma)
    ts = _uniform_window(s, t - s, dt)
    shifted = [lambda u, b=b, k=k: b(u + k * pair.gamma)
               for k in k_values for b in (pair.h, pair.g)]
    flags = survival_flags(shifted, x, ts, seed, n_paths)
    rows = []
    for k, flags_h, flags_g in zip(k_values, flags[0::2], flags[1::2]):
        diff = flags_g.astype(float) - flags_h.astype(float)
        gap = abs(float(flags_h.mean() - flags_g.mean()))
        sandwich = float((flags_g & ~flags_h).mean())
        stderr = float(diff.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        rows.append(SurvivalGapRow(k=int(k), gap=gap, stderr=stderr,
                                   sandwich_prob=sandwich))
    return rows


@dataclass(frozen=True)
class QEDComparison:
    tv: float
    bootstrap_err: float
    occupation_a: OccupationMeasure
    occupation_b: OccupationMeasure


def qed_comparison(pair: BoundaryPair, n_particles: int, T: float, dt: float,
                   seeds: Tuple[int, int] = (0, 1), n_bins: int = 80,
                   boundaries: Optional[Tuple] = None,
                   n_bootstrap: int = 200) -> QEDComparison:
    """TV between the occupation measures of two Fleming-Viot runs, one per
    boundary, with a particle-bootstrap error bar.

    By default compares the pair's h against its g; passing ``boundaries``
    overrides (e.g. (g, g) for a same-law noise-floor control run).
    """
    ha, hb_fn = boundaries if boundaries is not None else (pair.h, pair.g)
    upper = max(pair.g.upper, pair.h.upper)
    if not math.isfinite(upper):
        raise ValueError("boundary pair must declare finite upper bounds")
    mesh = Mesh(x_min=-upper, x_max=upper, n_cells=n_bins)
    run_a = fleming_viot(ha, n_particles, dt, T, seeds[0], mesh=mesh)
    run_b = fleming_viot(hb_fn, n_particles, dt, T, seeds[1], mesh=mesh)
    mu_a = run_a.occupation.measure()
    mu_b = run_b.occupation.measure()
    tv = tv_distance(mu_a, mu_b)

    boot_gen = make_generator(seeds[0], 3)
    tvs = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        ia = boot_gen.integers(n_particles, size=n_particles)
        ib = boot_gen.integers(n_particles, size=n_particles)
        wa = run_a.ancestral_mass[ia].mean(axis=0)
        wb = run_b.ancestral_mass[ib].mean(axis=0)
        tvs[b] = tv_distance(MeshMeasure.from_unnormalized(mesh, wa),
                             MeshMeasure.from_unnormalized(mesh, wb))
    return QEDComparison(tv=tv, bootstrap_err=float(tvs.std(ddof=1)),
                         occupation_a=run_a.occupation, occupation_b=run_b.occupation)
