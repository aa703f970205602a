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
ancestral occupation statistics, horizon-conditioned laws, conditional
minorization estimates, and the two-boundary convergence reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .measures import Mesh, MeshMeasure, tv_distance
from .paths import SimulationError
from .rng import make_generator, rekey
from .timefns import TimeFunction, const, simpson_profile

__all__ = [
    "BoundaryPair",
    "ParticleSystem",
    "OccupationMeasure",
    "SurvivalEstimate",
    "default_boundary_pair",
    "simulate_absorbed",
    "survival_probability",
    "survival_flags",
    "conditioned_endpoint_law",
    "girsanov_weight",
    "girsanov_survival_estimate",
    "fleming_viot",
    "FVResult",
    "q_process_approx",
    "QProcessResult",
    "conditional_minorization_estimate",
    "MinorizationEstimate",
    "boundary_convergence_report",
    "SurvivalGapRow",
    "qed_comparison",
    "QEDComparison",
]

# normals per engine batch (plus as many uniforms): sets peak memory
_MAX_BATCH_ELEMS = int(1e6)
# steps per step-major noise window; the working set is compacted between windows
_WINDOW = 64
# bridge crossings are evaluated within this many sqrt(dt) of the boundary
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

    def validate(self, horizon: Optional[float] = None, samples: int = 64) -> None:
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
        ts = np.linspace(0.0, 40.0 * self.gamma, 4001)
        if np.any(self.h(ts) > self.g(ts) + 1e-12):
            raise ValueError("h must not exceed g")
        if horizon is None:
            horizon = (self.n0 + 25.0) * self.gamma
        s_max = 30.0 * self.gamma
        fine = np.linspace(0.0, s_max + horizon, 60_001)
        hv = self.h(fine)
        for s in np.linspace(0.0, s_max, samples):
            near = (fine >= s) & (fine <= s + self.n0 * self.gamma)
            far = (fine > s + self.n0 * self.gamma) & (fine <= s + horizon)
            v_near = float(hv[near].min())
            v_far = float(hv[far].min())
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

def _bridge_step(x, xn, h0, h1, dt, u) -> np.ndarray:
    """Bridge-triggered absorption over one step: u < p, where p is the
    probability that the Brownian bridge from x to xn over a step of length
    dt leaves (-h, h) for the boundary linearised from h0 to h1, the up and
    down crossings combined as up + dn - up dn.  Arguments broadcast; dt is
    a scalar or an array of per-step lengths.

    p is only evaluated within _BRIDGE_REACH sqrt(dt) of the boundary (at
    either end of the step) and where u == 0.  Everywhere else both
    crossing exponents are below -2 _BRIDGE_REACH^2 = -50, so p < 2^-53,
    the smallest positive uniform, and the test is False: the result equals
    evaluating p everywhere, bit for bit.
    """
    reach = _BRIDGE_REACH * np.sqrt(dt)
    near = (np.abs(x) > h0 - reach) | (np.abs(xn) > h1 - reach) | (u == 0.0)
    hit = np.zeros(near.shape, dtype=bool)
    sel = np.nonzero(near)
    if sel[0].size:
        x, xn, h0, h1, dt, u = (v if np.ndim(v) == 0 else v[sel] if np.shape(v) == near.shape
                                else np.broadcast_to(v, near.shape)[sel]
                                for v in (x, xn, h0, h1, dt, u))
        up = np.exp(-2.0 * np.maximum(h0 - x, 0.0) * np.maximum(h1 - xn, 0.0) / dt)
        dn = np.exp(-2.0 * np.maximum(h0 + x, 0.0) * np.maximum(h1 + xn, 0.0) / dt)
        hit[sel] = u < up + dn - up * dn
    return hit


def _engine(ts: np.ndarray, hb: np.ndarray, x0: float, ids: range, seed: int,
            bridge: bool = True, record_step: Optional[int] = None,
            keep_paths: bool = False) -> Dict[str, np.ndarray]:
    """Simulate one batch of absorbed paths on node times ts against one
    boundary (hb of shape (n_steps+1,)) or a stack of boundaries (shape
    (n_boundaries, n_steps+1)), all from a single noise pass.  Path i draws
    from substream (seed, ids[i]).

    Returns tau (+inf where the path survives the whole window) and alive,
    one row per stacked boundary; optionally the states at ``record_step``
    and the whole paths.  The path state is shared by all boundaries and the
    noise is drawn for every path before stepping, so noise consumption never
    depends on the boundary (this is what makes common-random-number boundary
    comparisons exact).

    Without ``keep_paths`` only the paths alive under some boundary are
    stepped: the working set is compacted between windows of steps, and
    ``final`` and ``rec`` are NaN for the paths it has dropped.
    """
    hb = np.asarray(hb, dtype=float)
    stacked = hb.ndim == 2
    if not stacked:
        hb = hb[None, :]
    n = len(ids)
    n_steps = len(ts) - 1
    z = np.empty((n, n_steps))
    u = np.empty((n, n_steps)) if bridge else None
    gen = make_generator(seed)  # re-keyed to substream (seed, r) for each path
    for i, r in enumerate(ids):
        rekey(gen, seed, r)
        gen.standard_normal(out=z[i])
        if bridge:  # the uniforms follow the normals on the stream
            gen.random(out=u[i])
    rows = np.arange(n)  # working set: paths alive under some boundary
    x = np.full(n, float(x0))
    alive = np.ones((len(hb), n), dtype=bool)
    tau = np.full((len(hb), n), np.inf)
    rec = np.full(n, float(x0) if record_step == 0 else np.nan)
    paths = np.full((n, n_steps + 1), float(x0)) if keep_paths else None
    dts = np.diff(ts)
    for k0 in range(0, n_steps, _WINDOW):
        k1 = min(k0 + _WINDOW, n_steps)
        if not keep_paths:
            live = alive.any(axis=0)
            if not live.all():
                rows, x, alive = rows[live], x[live], alive[:, live]
                if rows.size == 0:
                    break
        # the window's states, step-major: X[j] = x + sum of the first j
        # increments, added in step order, as a step-by-step loop adds them
        dt_w = dts[k0:k1, None]
        X = np.empty((k1 - k0 + 1, len(rows)))
        X[0] = x
        np.multiply(np.sqrt(dt_w), z[rows, k0:k1].T, out=X[1:])
        np.cumsum(X, axis=0, out=X)
        h1 = hb[:, k0 + 1:k1 + 1, None]
        direct = np.abs(X[1:]) >= h1  # (n_boundaries, window steps, working set)
        hit = direct
        if bridge:
            hit = direct | _bridge_step(X[:-1], X[1:], hb[:, k0:k1, None], h1, dt_w,
                                        u[rows, k0:k1].T)
        hit = hit & alive[:, None, :]
        b, i = np.nonzero(hit.any(axis=1))
        if b.size:  # first hit of each newly absorbed (boundary, path)
            j = hit[b, :, i].argmax(axis=1)
            tau[b, rows[i]] = np.where(direct[b, j, i], ts[k0 + j + 1],
                                       ts[k0 + j] + 0.5 * dts[k0 + j])
            alive[b, i] = False
        x = X[-1]
        if record_step is not None and k0 < record_step <= k1:
            rec[rows] = X[record_step - k0]
        if keep_paths:
            paths[:, k0 + 1:k1 + 1] = X[1:].T
    final = np.full(n, np.nan)
    final[rows] = x
    if not stacked:
        tau = tau[0]
    out = {"tau": tau, "alive": tau == np.inf, "final": final}
    if record_step is not None:
        out["rec"] = rec
    if paths is not None:
        out["paths"] = paths
    return out


def _batches(n_paths: int, n_steps: int) -> List[range]:
    size = max(1, min(n_paths, _MAX_BATCH_ELEMS // max(1, n_steps)))
    return [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _boundary_nodes(h, ts: np.ndarray) -> np.ndarray:
    vals = np.asarray(h(ts), dtype=float) if callable(h) else np.full(len(ts), float(h))
    if vals.ndim == 0:
        vals = np.full(len(ts), float(vals))
    if np.any(vals <= 0):
        raise ValueError("boundary must stay positive on the window")
    return vals


def _uniform_window(t_start: float, T: float, dt: float) -> np.ndarray:
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"window length T={T} is not a multiple of dt={dt}")
    if n_steps < 1:
        raise ValueError("window must contain at least one step")
    return t_start + dt * np.arange(n_steps + 1)


def simulate_absorbed(h, x0: float, dt: float, T: float, seed: int,
                      bridge: bool = True, t_start: float = 0.0
                      ) -> Tuple[np.ndarray, Optional[float]]:
    """One absorbed path on [t_start, t_start+T]; returns (path, tau or None)."""
    ts = _uniform_window(t_start, T, dt)
    hb = _boundary_nodes(h, ts)
    if abs(x0) >= hb[0]:
        raise ValueError(f"x0={x0} outside the open interval (-{hb[0]}, {hb[0]})")
    out = _engine(ts, hb, x0, range(1), seed, bridge=bridge, keep_paths=True)
    tau = float(out["tau"][0])
    return out["paths"][0], (None if math.isinf(tau) else tau)


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
    h_start = float(np.min(hb[..., 0]))
    if abs(x0) >= h_start:
        raise ValueError(f"x0={x0} outside the open interval (-{h_start}, {h_start})")
    flags = np.empty(hb.shape[:-1] + (n_paths,), dtype=bool)
    for ids in _batches(n_paths, len(ts) - 1):
        flags[..., ids.start:ids.stop] = _engine(ts, hb, x0, ids, seed, bridge=bridge)["alive"]
    return flags


def survival_probability(h, x0: float, dt: float, T: float, n_paths: int,
                         seed: int, bridge: bool = True,
                         t_start: float = 0.0) -> SurvivalEstimate:
    """Monte Carlo estimate of P[tau_h > t_start + T] from (t_start, x0)."""
    ts = _uniform_window(t_start, T, dt)
    flags = survival_flags(h, x0, ts, seed, n_paths, bridge=bridge)
    p = float(flags.mean())
    return SurvivalEstimate(p=p, stderr=math.sqrt(max(p * (1.0 - p), 0.0) / n_paths),
                            n_paths=n_paths)


def conditioned_endpoint_law(h, x0: float, dt: float, T: float, n_paths: int,
                             seed: int, mesh: Mesh, bridge: bool = True,
                             t_start: float = 0.0) -> Tuple[MeshMeasure, int]:
    """Histogram of X_{t_start+T} over surviving paths, with survivor count."""
    ts = _uniform_window(t_start, T, dt)
    hb = _boundary_nodes(h, ts)
    if abs(x0) >= hb[0]:
        raise ValueError(f"x0={x0} outside the open interval (-{hb[0]}, {hb[0]})")
    counts = np.zeros(mesh.n_cells)
    n_surv = 0
    for ids in _batches(n_paths, len(ts) - 1):
        out = _engine(ts, hb, x0, ids, seed, bridge=bridge)
        pts = out["final"][out["alive"]]
        counts += np.bincount(mesh.cell_index(pts), minlength=mesh.n_cells)
        n_surv += int(out["alive"].sum())
    if n_surv == 0:
        raise SimulationError("no surviving paths; enlarge n_paths or shorten T")
    return MeshMeasure.from_unnormalized(mesh, counts), n_surv


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
                               n_paths: int, seed: int, bridge: bool = True,
                               t_start: float = 0.0) -> SurvivalEstimate:
    """P[tau_h > t_start + T] estimated from *unconstrained-rate* Brownian
    paths on the transformed clock: survival against the unit boundary times
    the Girsanov weight.

    Independent of the direct estimator's discretization, which makes the
    pair a two-route consistency check.
    """
    ts = _uniform_window(t_start, T, dt)
    hb = _boundary_nodes(h, ts)
    if abs(x0) >= hb[0]:
        raise ValueError(f"x0={x0} outside the open interval (-{hb[0]}, {hb[0]})")
    # clock I(t) = int h^-2 on the window, from h^-2 sampled every dt/2
    hm2 = const(1.0) / (h * h)
    clock, _ = simpson_profile(hm2(t_start + 0.5 * dt * np.arange(2 * len(ts) - 1)), dt)
    ones = np.ones(len(ts))
    w0 = x0 / hb[0]
    total = 0.0
    total_sq = 0.0
    for ids in _batches(n_paths, len(ts) - 1):
        out = _engine(clock, ones, w0, ids, seed, bridge=bridge, keep_paths=True)
        vals = np.where(out["alive"], _weights_matrix(ts, out["paths"], h), 0.0)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    p = total / n_paths
    var = max(total_sq / n_paths - p * p, 0.0)
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
    resample_log: List[Tuple[float, int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class OccupationMeasure:
    """Binned, time-weighted ancestral occupation of the particle system."""

    mesh: Mesh
    mass: np.ndarray
    total_time: float

    def measure(self) -> MeshMeasure:
        return MeshMeasure.from_unnormalized(self.mesh, self.mass)

    def second_moment(self) -> float:
        return self.measure().second_moment()

    def mean(self) -> float:
        return self.measure().mean()


@dataclass(frozen=True)
class FVResult:
    system: ParticleSystem
    occupation: OccupationMeasure
    ancestral_mass: np.ndarray  # per-particle binned occupation, (N, n_cells)


def fleming_viot(h, n_particles: int, dt: float, T: float, seed: int,
                 mesh: Optional[Mesh] = None, x0: float | str = 0.0,
                 bridge: bool = True, burn_in: float = 0.0,
                 t_start: float = 0.0) -> FVResult:
    """Fleming-Viot approximation of the conditioned ensemble.

    Particles diffuse as absorbed Brownian motion; an absorbed particle
    respawns at the position of a survivor chosen uniformly (multiple
    absorptions in a step are processed in index order, drawing donors from
    the step's own substream).

    Each particle carries the binned occupation of its *ancestral* path:
    on respawn it inherits the donor's record, so at the end the per-particle
    records average into the Cesaro occupation of lines that survived to T.
    That average estimates the horizon-conditioned time average whose limit
    is the quasi-ergodic law.
    """
    if n_particles < 2:
        raise ValueError(f"need at least 2 particles, got {n_particles}")
    ts = _uniform_window(t_start, T, dt)
    hb = _boundary_nodes(h, ts)
    n_steps = len(ts) - 1
    if mesh is None:
        h_max = float(hb.max())
        mesh = Mesh(x_min=-h_max, x_max=h_max, n_cells=80)

    diff_gen = make_generator(seed, 0)
    donor_gen = make_generator(seed, 2)  # re-keyed to substream (seed, 2, k) at step k
    if isinstance(x0, str):
        if x0 != "uniform":
            raise ValueError(f"unknown initial spec {x0!r}")
        pos = make_generator(seed, 1).uniform(-hb[0], hb[0], size=n_particles)
    else:
        if abs(float(x0)) >= hb[0]:
            raise ValueError(f"x0={x0} outside the open interval (-{hb[0]}, {hb[0]})")
        pos = np.full(n_particles, float(x0))

    hist = np.zeros((n_particles, mesh.n_cells))
    occupied_time = 0.0
    log: List[Tuple[float, int, int]] = []
    rows = np.arange(n_particles)
    flat_hist, cell_base = hist.reshape(-1), rows * mesh.n_cells

    for k in range(n_steps):
        dt_k = ts[k + 1] - ts[k]
        z = diff_gen.standard_normal(n_particles)
        u = diff_gen.random(n_particles)
        xn = pos + math.sqrt(dt_k) * z
        direct = np.abs(xn) >= hb[k + 1]
        if bridge:
            absorbed = direct | _bridge_step(pos, xn, hb[k], hb[k + 1], dt_k, u)
        else:
            absorbed = direct
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
            log.extend(zip([ts[k + 1]] * n_abs, dead.tolist(), donors.tolist()))
        pos = xn
        if ts[k + 1] - t_start > burn_in + 1e-12:
            flat_hist[cell_base + mesh.cell_index(pos)] += dt_k
            occupied_time += dt_k

    system = ParticleSystem(n_particles=n_particles, positions=pos,
                            time=float(ts[-1]), seed=seed, resample_log=log)
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

    def law_at(self, horizon: float) -> MeshMeasure:
        return self.laws[self.horizons.index(horizon)]


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
    if abs(x) >= hb[0]:
        raise ValueError(f"x={x} outside the open interval (-{hb[0]}, {hb[0]})")
    rec_step = int(round((t - s) / dt))
    counts = np.zeros((len(horizons), mesh.n_cells))
    n_surv = np.zeros(len(horizons), dtype=int)
    for ids in _batches(n_paths, len(ts) - 1):
        out = _engine(ts, hb, x, ids, seed, bridge=bridge, record_step=rec_step)
        states = out["rec"]
        for j, horizon in enumerate(horizons):
            alive = out["tau"] > horizon - 1e-12
            pts = states[alive]
            counts[j] += np.bincount(mesh.cell_index(pts), minlength=mesh.n_cells)
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
# conditional minorization estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorizationEstimate:
    """Monte Carlo estimate of a common component of conditioned transitions."""

    c1: float
    c1_lower: float  # 95% lower confidence value from per-cell binomial bands
    nu_hat: MeshMeasure
    probes: Tuple[float, ...]
    t_values: Tuple[float, ...]
    n_survivors: Tuple[int, ...]


def conditional_minorization_estimate(h, s: float, t_values: Sequence[float],
                                      probes: Sequence[float], n_paths: int,
                                      seed: int, mesh: Mesh, dt: float = 1e-3,
                                      bridge: bool = True) -> MinorizationEstimate:
    """Estimate c1 and nu with conditioned one-window transition histograms.

    For each probe x and window length t in t_values, the law of X_{s+t}
    conditioned on survival is estimated on the mesh; nu-hat is the
    normalized cell-wise minimum across (probe, t) and c1 its unnormalized
    mass.  c1_lower subtracts 1.96 binomial standard errors per cell first.
    """
    if len(probes) == 0 or len(t_values) == 0:
        raise ValueError("need at least one probe and one window length")
    mins = np.full(mesh.n_cells, np.inf)
    mins_lower = np.full(mesh.n_cells, np.inf)
    survivors = []
    for j, (x, t) in enumerate((x, t) for t in t_values for x in probes):
        law, n_surv = conditioned_endpoint_law(h, x, dt, t, n_paths,
                                               seed + j, mesh, bridge=bridge,
                                               t_start=s)
        survivors.append(n_surv)
        p = law.weights
        se = np.sqrt(p * (1.0 - p) / n_surv)
        mins = np.minimum(mins, p)
        mins_lower = np.minimum(mins_lower, np.maximum(p - 1.96 * se, 0.0))
    c1 = float(mins.sum())
    if c1 <= 0.0:
        zero_mesh = MeshMeasure(mesh, np.full(mesh.n_cells, 1.0 / mesh.n_cells))
        return MinorizationEstimate(c1=0.0, c1_lower=0.0, nu_hat=zero_mesh,
                                    probes=tuple(probes), t_values=tuple(t_values),
                                    n_survivors=tuple(survivors))
    nu_hat = MeshMeasure.from_unnormalized(mesh, mins)
    return MinorizationEstimate(c1=c1, c1_lower=float(mins_lower.sum()),
                                nu_hat=nu_hat, probes=tuple(probes),
                                t_values=tuple(t_values),
                                n_survivors=tuple(survivors))


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
                                dt: float = 1e-3, seed: int = 0,
                                bridge: bool = True) -> List[SurvivalGapRow]:
    """Per-k gap |P_{s+k gamma, x}[tau_h > t+k gamma] - P_{s,x}[tau_g > t]|
    and the sandwich probability P[tau_h <= t+k gamma < tau_g].

    Both boundaries ride the same driving noise (common random numbers), so
    with h <= g the per-path survival indicators are ordered and the gap
    equals the sandwich estimate exactly.
    """
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    rows = []
    for k in k_values:
        start = s + k * pair.gamma
        if t == s:
            rows.append(SurvivalGapRow(k=int(k), gap=0.0, stderr=0.0, sandwich_prob=0.0))
            continue
        ts = _uniform_window(start, t - s, dt)
        flags_h, flags_g = survival_flags([pair.h, pair.g], x, ts, seed, n_paths,
                                          bridge=bridge)
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
