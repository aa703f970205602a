import hashlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from apmarkov import absorbed
from apmarkov.absorbed import (BoundaryPair, boundary_convergence_report,
                               conditioned_endpoint_law, default_boundary_pair,
                               fleming_viot, girsanov_survival_estimate,
                               girsanov_weight, q_process_approx, qed_comparison,
                               survival_flags, survival_probability, _uniform_window)
from apmarkov.measures import Mesh, MeshMeasure, tv_distance
from apmarkov.paths import SimulationError
from apmarkov.rng import counter_uniform, make_generator, rekey, substream_key
from apmarkov.timefns import const, parse_time_function

from oracles import (bridge_uniform, conditioned_cell_masses, default_pair_g, default_pair_h,
                     dirichlet_survival_images, dirichlet_survival_spectral,
                     moving_boundary_survival, periodic_quasi_ergodic_law, qed_cell_masses,
                     qed_second_moment, reference_engine)
from test_timefns import _GRAMMAR

UNIT = const(1.0, lower=1.0, upper=1.0)


def test_survival_oracles_agree_with_each_other():
    for x, t in [(0.0, 2.0), (0.3, 1.5), (-0.8, 0.5)]:
        a = dirichlet_survival_spectral(x, t)
        b = dirichlet_survival_images(x, t)
        assert a == pytest.approx(b, abs=1e-12)


# -- boundary pair validation --------------------------------------------------

def test_default_pair_validates():
    default_boundary_pair().validate()


_DEFAULT_H = "(1 + 0.25*sin(2*pi*t)) / (1 + 0.3*exp(-0.7*t))"


def test_validate_peak_stays_within_a_megabyte():
    # one h call on the 60,001-point infimum grid holds 2.88 MB of
    # temporaries; evaluated in pieces, validate peaks within 1.0 MB
    pair = default_boundary_pair()
    tracemalloc.start()
    try:
        pair.validate()
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak <= 1.0


@pytest.mark.parametrize("expr", [_DEFAULT_H, "(1 + 0.25*sin(2*pi*t)) * (0.5 + 0.3*exp(-0.05*t))",
                                  "1 + 0.25*sin(2*pi*t)"])
def test_validate_pieces_equal_one_call_on_the_infimum_grid(expr):
    # validate's h calls after the h-below-g check are the grid's pieces;
    # together they give one h(fine) call's values bit for bit
    pair = default_boundary_pair()
    h = parse_time_function(expr, lower=0.3, upper=1.25)
    calls = []

    class Recorded:
        def __getattr__(self, name):
            return getattr(h, name)

        def __call__(self, t):
            out = h(t)
            calls.append((np.array(t), np.array(out)))
            return out

    try:
        BoundaryPair(h=Recorded(), g=pair.g, gamma=1.0).validate()
    except ValueError as exc:  # only the running-infimum check may reject
        assert "infimum" in str(exc)
    fine = pair._infimum_windows()[0]
    pieces = calls[1:]
    assert len(pieces) > 1
    assert np.concatenate([t for t, _ in pieces]).tobytes() == fine.tobytes()
    assert np.concatenate([v for _, v in pieces]).tobytes() == h(fine).tobytes()


def test_pair_rejects_h_above_g():
    g = parse_time_function("1", lower=1, upper=1, period=1.0)
    h = parse_time_function("1.1", lower=1.1, upper=1.1)
    with pytest.raises(ValueError, match="exceed"):
        BoundaryPair(h=h, g=g, gamma=1.0).validate()


def test_pair_rejects_missing_bounds():
    g = parse_time_function("1", lower=1, upper=1, period=1.0)
    h = parse_time_function("1")  # no declared bounds
    with pytest.raises(ValueError, match="bound"):
        BoundaryPair(h=h, g=g, gamma=1.0).validate()


def test_pair_rejects_escaping_infimum():
    # dips keep deepening forever, so the running infimum is never attained
    # inside [s, s + n0 gamma]
    g = parse_time_function("1 + 0.25*sin(2*pi*t)", lower=0.75, upper=1.25,
                            period=1.0)
    h = parse_time_function("(1 + 0.25*sin(2*pi*t)) * (0.5 + 0.3*exp(-0.05*t))",
                            lower=0.3, upper=1.1)
    with pytest.raises(ValueError, match="infimum"):
        BoundaryPair(h=h, g=g, gamma=1.0).validate()


@pytest.mark.parametrize("n0, gamma", [(1, 1.0), (2, 0.5), (3, 0.37)])
def test_infimum_windows_are_the_masks_as_index_ranges(n0, gamma):
    # validate reads the running infimum's two windows as slices of the
    # sorted grid; they hold exactly the elements of the comparison masks
    g = parse_time_function("1", lower=1, upper=1, period=gamma)
    pair = BoundaryPair(h=g, g=g, gamma=gamma, n0=n0)
    fine, starts, lo, mid, hi = pair._infimum_windows()
    horizon = (n0 + 25.0) * gamma
    assert len(fine) == 60_001 and len(starts) == 64
    assert fine[-1] == 30.0 * gamma + horizon and np.all(np.diff(fine) > 0)
    for s, a, b, c in zip(starts, lo, mid, hi):
        near = (fine >= s) & (fine <= s + n0 * gamma)
        far = (fine > s + n0 * gamma) & (fine <= s + horizon)
        assert np.array_equal(np.flatnonzero(near), np.arange(a, b))
        assert np.array_equal(np.flatnonzero(far), np.arange(b, c))


# -- absorbed simulation ---------------------------------------------------------

def test_unreachable_boundary_always_survives():
    huge = const(1e3, lower=1e3, upper=1e3)
    est = survival_probability(huge, 0.0, dt=0.01, T=1.0, n_paths=2000, seed=0)
    assert est.p == 1.0
    ts = _uniform_window(0.0, 1.0, 0.01)
    out = absorbed._engine(ts, absorbed._boundary_nodes(huge, ts), 0.0, range(1), 1,
                           at=range(101))
    assert np.all(out["tau"] == np.inf)
    assert out["states"].shape == (1, 101) and np.all(np.isfinite(out["states"]))


def test_x0_must_be_interior():
    with pytest.raises(ValueError, match="outside"):
        conditioned_endpoint_law(UNIT, 1.0, 0.01, 1.0, 10, 0, Mesh(-1.0, 1.0, 10))
    with pytest.raises(ValueError, match="outside"):
        girsanov_survival_estimate(UNIT, 1.0, dt=0.01, T=1.0, n_paths=10, seed=0)
    with pytest.raises(ValueError, match="outside"):
        survival_probability(UNIT, -1.2, dt=0.01, T=1.0, n_paths=10, seed=0)


def test_survival_matches_spectral_series():
    est = survival_probability(UNIT, 0.0, dt=1e-3, T=2.0, n_paths=20_000, seed=3)
    exact = dirichlet_survival_spectral(0.0, 2.0)
    assert abs(est.p - exact) <= 3.0 * est.stderr


def test_missing_bridge_correction_biases_survival_up():
    with_bridge = survival_probability(UNIT, 0.0, dt=4e-3, T=1.0,
                                       n_paths=20_000, seed=8)
    without = survival_probability(UNIT, 0.0, dt=4e-3, T=1.0,
                                   n_paths=20_000, seed=8, bridge=False)
    gap = without.p - with_bridge.p
    assert gap > 3.0 * math.hypot(with_bridge.stderr, without.stderr) / 2.0


def test_survival_under_g_matches_the_moving_boundary_solve():
    # tolerance stated before running: 3 SE
    est = survival_probability(default_boundary_pair().g, 0.0, dt=1e-3, T=2.0,
                               n_paths=40_000, seed=7)
    exact = moving_boundary_survival(default_pair_g, 0.0, 0.0, 2.0)
    assert abs(est.p - exact) <= 3.0 * est.stderr


def test_convergence_gaps_match_the_moving_boundary_solve():
    # row k's gap P[tau_g > 2] - P[tau_h(. + k) > 2] against the solve, each
    # within 3 of its SE (stated before running)
    rows = boundary_convergence_report(default_boundary_pair(), s=0.0, t=2.0, x=0.0,
                                       k_values=[0, 2, 5], n_paths=40_000, dt=1e-3, seed=8)
    p_g = moving_boundary_survival(default_pair_g, 0.0, 0.0, 2.0)
    for r in rows:
        exact = p_g - moving_boundary_survival(lambda u: default_pair_h(u + r.k), 0.0, 0.0, 2.0)
        assert abs(r.gap - exact) <= 3.0 * r.stderr


def test_survival_decreases_towards_the_boundary():
    ps = [survival_probability(UNIT, x0, dt=2e-3, T=1.0, n_paths=8000, seed=5)
          for x0 in (0.0, 0.6, 0.9)]
    assert ps[0].p - ps[1].p > 2.0 * math.hypot(ps[0].stderr, ps[1].stderr)
    assert ps[1].p - ps[2].p > 2.0 * math.hypot(ps[1].stderr, ps[2].stderr)


def test_pathwise_survival_monotone_in_boundary():
    # common random numbers: every path surviving the tighter boundary
    # survives the wider one, deterministically
    pair = default_boundary_pair()
    ts = _uniform_window(0.0, 1.5, 1e-3)
    fh = survival_flags(pair.h, 0.0, ts, seed=4, n_paths=3000)
    fg = survival_flags(pair.g, 0.0, ts, seed=4, n_paths=3000)
    assert np.all(~fh | fg)
    assert fg.sum() > fh.sum()


# -- stacked, survivor-compacted engine ---------------------------------------------

@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("k", [0, 5])
def test_stacked_boundaries_equal_separate_passes(bridge, k):
    pair = default_boundary_pair()
    ts = _uniform_window(k * pair.gamma, 1.0, 2e-3)
    stacked = survival_flags([pair.h, pair.g], 0.1, ts, seed=6, n_paths=1500,
                             bridge=bridge)
    for row, h in zip(stacked, (pair.h, pair.g)):
        assert np.array_equal(row, survival_flags(h, 0.1, ts, seed=6, n_paths=1500,
                                                  bridge=bridge))
    hb = np.stack([absorbed._boundary_nodes(h, ts) for h in (pair.h, pair.g)])
    tau = absorbed._engine(ts, hb, 0.1, range(40, 440), 6, bridge=bridge)["tau"]
    for b in range(2):
        single = absorbed._engine(ts, hb[b], 0.1, range(40, 440), 6, bridge=bridge)
        assert np.array_equal(tau[b], single["tau"])


def test_flags_do_not_depend_on_batch_size(monkeypatch):
    pair = default_boundary_pair()
    ts = _uniform_window(0.0, 1.0, 2e-3)
    whole = survival_flags([pair.h, pair.g], 0.0, ts, seed=2, n_paths=1200)
    monkeypatch.setattr(absorbed, "_MAX_BATCH_ELEMS", 400 * (len(ts) - 1))
    assert len(absorbed._batches(1200, len(ts) - 1)) == 3
    split = survival_flags([pair.h, pair.g], 0.0, ts, seed=2, n_paths=1200)
    assert np.array_equal(whole, split)


def test_girsanov_does_not_depend_on_batch_size(monkeypatch):
    h = default_boundary_pair().h
    whole = girsanov_survival_estimate(h, 0.0, dt=1e-2, T=1.0, n_paths=3000, seed=5)
    for paths_per_batch in (70, 30):
        monkeypatch.setattr(absorbed, "_MAX_BATCH_ELEMS", paths_per_batch * 100)
        assert len(absorbed._batches(3000, 100)) == math.ceil(3000 / paths_per_batch)
        split = girsanov_survival_estimate(h, 0.0, dt=1e-2, T=1.0, n_paths=3000, seed=5)
        assert (split.p, split.stderr) == (whole.p, whole.stderr)


@settings(max_examples=25, deadline=None)
@given(c_h=st.floats(0.2, 1.5), widen=st.floats(0.0, 1.0), x0=st.floats(-0.9, 0.9),
       seed=st.integers(0, 2 ** 32))
def test_stacked_flags_are_ordered_for_nested_constant_boundaries(c_h, widen, x0, seed):
    c_g = c_h + widen
    ts = _uniform_window(0.0, 0.5, 5e-3)
    f_h, f_g = survival_flags([c_h, c_g], x0 * c_h, ts, seed=seed, n_paths=300)
    assert np.all(~f_h | f_g)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.2, 1.5), amp=st.floats(0.0, 0.5), freq=st.floats(0.5, 30.0),
       phase=st.floats(0.0, 6.3), x0=st.floats(-0.9, 0.9), seed=st.integers(0, 2 ** 64 - 1))
def test_bridge_only_adds_absorptions_path_by_path(c, amp, freq, phase, x0, seed):
    # the normals come first on each path's stream and do not depend on the
    # bridge, which only adds absorptions: per path, flags on <= flags off
    # and tau on <= tau off, for a sinusoidal boundary alone and stacked
    def h(t):
        return c * (1.0 + amp * np.sin(freq * t + phase))

    ts = _uniform_window(0.0, 0.5, 2e-3)
    x = x0 * c * (1.0 - amp)
    on, off = (survival_flags(h, x, ts, seed=seed, n_paths=300, bridge=b) for b in (True, False))
    assert np.all(on <= off)
    hb = np.stack([absorbed._boundary_nodes(h, ts), np.full(len(ts), c * (1.0 + amp))])
    tau_on, tau_off = (absorbed._engine(ts, hb, x, range(300), seed, bridge=b)["tau"]
                       for b in (True, False))
    assert np.all(tau_on <= tau_off)
    assert np.array_equal(tau_on[0] == np.inf, on)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.15, 1.0), amp=st.floats(0.0, 0.4), freq=st.floats(0.5, 30.0),
       x0=st.floats(-0.9, 0.9), seed=st.integers(0, 2 ** 64 - 1))
def test_bridge_reach_cutoff_changes_no_result(c, amp, freq, x0, seed):
    # beyond _BRIDGE_REACH sqrt(dt) of the boundary p < 2^-53 <= u, so the
    # crossing probability evaluated at every step of every path or particle
    # gives the same hits: engine tau and states, and Fleming-Viot's
    # positions, occupation and respawn record, bit for bit
    def h(t):
        return c * (1.0 + amp * np.sin(freq * t))

    ts = _uniform_window(0.0, 0.4, 2e-3)
    hb = np.stack([absorbed._boundary_nodes(h, ts), np.full(len(ts), c * (1.0 + amp))])
    x = x0 * c * (1.0 - amp)
    runs = []
    for reach in (absorbed._BRIDGE_REACH, math.inf):
        with mock.patch.object(absorbed, "_BRIDGE_REACH", reach):
            out = absorbed._engine(ts, hb, x, range(200), seed, at=(100, 200))
            fv = fleming_viot(h, 40, 2e-3, 0.4, seed, x0=x)
        runs.append((out["tau"], out["states"], fv.system.positions, fv.occupation.mass,
                     fv.ancestral_mass, fv.system.resample_log))
    cut, full = runs
    for a, b in zip(cut[:-1], full[:-1]):
        assert np.array_equal(a, b, equal_nan=True)
    assert cut[-1] == full[-1]


@settings(max_examples=200, deadline=None)
@given(dt=st.floats(1e-8, 1.0), h0=st.floats(0.01, 10.0), h1=st.floats(0.01, 10.0),
       f0=st.floats(-1.0, 1.0), f1=st.floats(-1.0, 1.0))
def test_crossing_beyond_the_reach_misses_the_smallest_uniform(dt, h0, h1, f0, f1):
    # the cutoff's near edge: a step that starts and ends _BRIDGE_REACH sqrt(dt)
    # or more inside the boundary has p < 2^-53, the smallest counter uniform,
    # so no kernel misses a hit by skipping it
    reach = absorbed._BRIDGE_REACH * np.sqrt(dt)
    assume(h0 > reach and h1 > reach)
    x, xn = np.array([f0 * (h0 - reach)]), np.array([f1 * (h1 - reach)])
    assert not absorbed._crossing(x, xn, h0, h1, dt, 2.0 ** -53).any()


def test_rekeyed_generator_draws_like_a_fresh_one():
    gen = np.random.default_rng(0)
    reused = make_generator(0)
    for _ in range(300):
        seed = int(gen.integers(0, 2 ** 63))
        idx = tuple(int(i) for i in gen.integers(0, 2 ** 40, gen.integers(1, 4)))
        fresh = make_generator(seed, *idx)
        rekey(reused, seed, *idx)
        assert np.array_equal(reused.random(3, dtype=np.float32),
                              fresh.random(3, dtype=np.float32))
        assert np.array_equal(reused.standard_normal(37), fresh.standard_normal(37))
        assert np.array_equal(reused.random(11), fresh.random(11))
        reused.random(3, dtype=np.float32)  # leave a buffered half-word behind


_U64 = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from([0, 2 ** 64 - 1]))


@settings(max_examples=200, deadline=None)
@given(seed=_U64, cells=st.lists(st.tuples(st.integers(0, 2 ** 63), st.integers(0, 2 ** 63)),
                                 min_size=1, max_size=8))
def test_counter_uniform_equals_the_scalar_formula(seed, cells):
    # the engine's vectorised uniforms, on uint64 arrays with wrapping
    # arithmetic, against the formula on Python ints; no overflow warning
    paths, steps = (np.array(v, dtype=np.uint64) for v in zip(*cells))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = counter_uniform(substream_key(seed, paths), steps)
    assert u.tolist() == [bridge_uniform(substream_key(seed, r, k)) for r, k in cells]


def _unmix(z):
    """The inverse of the SplitMix64 finaliser on a 64-bit int."""
    def unshift(y, s):  # x with x ^ (x >> s) == y
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    mask = 2 ** 64 - 1
    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2 ** 64) & mask, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) & mask, 30)


def test_counter_uniform_lies_strictly_inside_the_unit_interval():
    # the keys whose step-0 outputs are 0 and 2^64 - 1 give the extremes,
    # 2^-53 and 1 - 2^-53, both exact in float64: never 0 or 1
    for out, want in ((0, 2.0 ** -53), (2 ** 64 - 1, 1.0 - 2.0 ** -53),
                      (2 ** 63, 0.5 + 2.0 ** -53), (2 ** 12 - 1, 2.0 ** -53)):
        key = (_unmix(out) - 0x9E3779B97F4A7C15) % 2 ** 64
        assert substream_key(key, 0) == out
        u = counter_uniform(np.array([key], dtype=np.uint64), np.zeros(1, dtype=int))
        assert u[0] == want == bridge_uniform(out)
    assert 0.0 < 2.0 ** -53 and 1.0 - 2.0 ** -53 < 1.0


@pytest.mark.parametrize("step", [3, np.uint64(3), np.int64(3), np.array(3), np.array([3, 3])],
                         ids=["int", "uint64", "int64", "0-d", "array"])
def test_counter_uniform_takes_any_integer_step(step):
    # one step for every key: Fleming-Viot reads its uniforms this way; the
    # uint64 wrap of a scalar step raises no overflow warning
    keys = substream_key(5, np.array([0, 1], dtype=np.uint64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = counter_uniform(keys, step)
    assert u.tolist() == [bridge_uniform(substream_key(5, r, 3)) for r in (0, 1)]


def _engine_against_reference(ts, hb, ids, seed, bridge, at):
    """Run _engine and the per-step reference on the same draws and require
    tau, alive and states to be exactly equal (see _equals_reference)."""
    tau, paths = reference_engine(ts, hb, 0.05, ids, seed, bridge, make_generator,
                                  substream_key)
    out = absorbed._engine(ts, hb, 0.05, ids, seed, bridge=bridge, at=at)
    _equals_reference(out, ts, hb, at, tau, paths)


def _equals_reference(out, ts, hb, at, tau, paths):
    """_engine's tau, alive and states equal the reference's exactly.  A
    state is NaN exactly where compaction has dropped the path: in the
    windows after the one in which the last of the boundaries absorbed it."""
    assert np.array_equal(out["tau"], tau if np.ndim(hb) == 2 else tau[0])
    assert np.array_equal(out["alive"], out["tau"] == np.inf)
    hit_step = np.searchsorted(ts, tau) - 1  # tau lies in (ts[k], ts[k + 1]]; inf gives n_steps
    last_window = hit_step.max(axis=0) // absorbed._WINDOW
    at = np.asarray(at, dtype=int)
    dropped = (at > 0) & ((at - 1) // absorbed._WINDOW > last_window[:, None])
    assert np.array_equal(out["states"], np.where(dropped, np.nan, paths[:, at]),
                          equal_nan=True)


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("n_steps", [40, 150])
def test_window_kernel_equals_per_step_reference(bridge, n_steps):
    # a non-uniform clock (as on the Girsanov route) whose last window ends
    # off the _WINDOW grid; boundaries tight enough that compaction drops paths
    gen = np.random.default_rng(n_steps)
    ts = 0.3 + np.concatenate([[0.0], np.cumsum(gen.uniform(5e-4, 2e-3, n_steps))])
    h = 0.3 + 0.2 * np.sin(7.0 * ts) ** 2
    hb = np.stack([h, h + 0.05, np.full_like(h, 0.6)])
    ids = range(7, 307)
    tau, paths = reference_engine(ts, hb, 0.05, ids, 3, bridge, make_generator,
                                  substream_key)
    w = absorbed._WINDOW
    at = [r for r in (0, w // 2 + 1, w, 2 * w, n_steps) if r <= n_steps]
    for rows in (slice(None), 0):  # stacked and single boundaries
        dropped = np.all(np.atleast_2d(tau[rows]) < np.inf, axis=0)
        for steps in (at, at[::-1], range(n_steps + 1)):
            out = absorbed._engine(ts, hb[rows], 0.05, ids, 3, bridge=bridge, at=steps)
            assert np.array_equal(out["tau"], tau[rows])
            assert np.array_equal(out["alive"], tau[rows] == np.inf)
            got, want = out["states"], paths[:, steps]
            kept = ~np.isnan(got)  # NaN only for paths compaction dropped
            assert np.all(kept | dropped[:, None])
            assert np.array_equal(got[kept], want[kept])
            # compaction never drops a survivor: its whole path is returned
            assert np.all(kept[~dropped])
            assert np.isnan(got[:, -1]).any() == (steps[-1] == n_steps > w)
        assert absorbed._engine(ts, hb[rows], 0.05, ids, 3, bridge=bridge)["states"].shape \
            == (len(ids), 0)


@settings(max_examples=40, deadline=None)
@given(n_boundaries=st.integers(1, 3), stacked=st.booleans(),
       n_steps=st.one_of(st.integers(1, 200),
                         st.builds(lambda m, d: m * absorbed._WINDOW + d,
                                   st.integers(1, 3), st.integers(-1, 1))),
       uniform=st.booleans(), bridge=st.booleans(),
       at=st.lists(st.floats(0.0, 1.0), max_size=6),
       first_id=st.integers(0, 1000), n_paths=st.integers(1, 200),
       seed=st.integers(0, 2 ** 32), data=st.data())
def test_window_kernel_equals_per_step_reference_on_random_windows(
        n_boundaries, stacked, n_steps, uniform, bridge, at, first_id, n_paths, seed, data):
    # boundaries tight enough that compaction drops paths, on a uniform or a
    # non-uniform clock (as on the Girsanov route)
    gen = np.random.default_rng(seed)
    steps = np.full(n_steps, 1e-3) if uniform else gen.uniform(5e-4, 2e-3, n_steps)
    ts = 0.3 + np.concatenate([[0.0], np.cumsum(steps)])
    hb = np.stack([data.draw(st.floats(0.15, 0.6)) + 0.2 * np.sin(gen.uniform(1, 20) * ts) ** 2
                   for _ in range(n_boundaries)])
    if not stacked:
        hb = hb[0]
    _engine_against_reference(ts, hb, range(first_id, first_id + n_paths), seed, bridge,
                              [int(f * n_steps) for f in at])


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("chunked", [True, False])
def test_engine_draws_stay_exact_across_chunk_edges(chunked, bridge, monkeypatch):
    # 3 chunks of normals, the last one 37 steps (off the chunk and window
    # grids), through the batch runs of survival: 3 batches of 40, 40 and 20
    # paths drawn through one pool of generators, or one shared generator
    # and whole-window draws where the pool would not pay.  The tight rows
    # absorb paths mid-chunk, the wide one keeps some alive across both edges
    c = absorbed._CHUNK
    n_steps = 2 * c + 37
    ts = 1e-3 * np.arange(n_steps + 1)
    h = 0.3 + 0.25 * np.sin(3.0 * ts) ** 2
    hb = np.stack([h, h + 0.1, np.full_like(h, 0.9)])
    at = (0, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1, n_steps)
    monkeypatch.setattr(absorbed, "_MAX_BATCH_ELEMS", 40 * n_steps)
    if chunked:  # a generator as cheap as one normal: the pool pays for 100 paths
        monkeypatch.setattr(absorbed, "_GEN_COST", 1)
    gens, chunk = absorbed._draws(40, 100, n_steps)
    assert chunk == (c if chunked else n_steps)
    assert len({id(g) for g in gens}) == (40 if chunked else 1)
    runs = list(absorbed._runs(ts, hb, 0.05, 100, 11, bridge=bridge, at=at))
    assert [ids for ids, _ in runs] == [range(0, 40), range(40, 80), range(80, 100)]
    out = {key: np.concatenate([o[key] for _, o in runs], axis=-2 if key == "states" else -1)
           for key in ("tau", "alive", "states")}
    tau, paths = reference_engine(ts, hb, 0.05, range(100), 11, bridge, make_generator,
                                  substream_key)
    _equals_reference(out, ts, hb, at, tau, paths)
    last = np.searchsorted(ts, tau).max(axis=0) - 1  # last absorption step; n_steps if alive
    for edge in (c, 2 * c):
        assert np.any(last >= edge)  # alive across the edge
        assert np.any((edge - c < last) & (last < edge - absorbed._WINDOW))  # dead mid-chunk
    assert np.any(last == n_steps) and np.any(np.isnan(out["states"][:, -1]))


@settings(max_examples=30, deadline=None)
@given(j=st.integers(-3, 3), c=st.floats(0.3, 2.0), wobble=st.sampled_from([0.0, 0.3]),
       x0=st.floats(-0.9, 0.9), bridge=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_engine_is_exactly_brownian_scaling_invariant(j, c, wobble, x0, bridge, seed):
    # radius h at dt against 2^j h(t / 4^j) at 4^j dt from 2^j x0: powers of
    # two scale exactly in floating point and sqrt(4^j dt) = 2^j sqrt(dt)
    def h(t):
        return c * (1.0 + wobble * np.sin(9.0 * t))

    def h_scaled(t):
        return 2.0 ** j * h(t / 4.0 ** j)

    dt, steps = 2e-3, np.arange(151)
    ts, ts_scaled = dt * steps, 4.0 ** j * dt * steps
    a = absorbed._engine(ts, absorbed._boundary_nodes(h, ts), x0 * c, range(200),
                         seed, bridge=bridge, at=(75, 150))
    b = absorbed._engine(ts_scaled, absorbed._boundary_nodes(h_scaled, ts_scaled),
                         2.0 ** j * x0 * c, range(200), seed, bridge=bridge, at=(75, 150))
    assert np.array_equal(a["alive"], b["alive"])
    assert np.array_equal(4.0 ** j * a["tau"], b["tau"])
    assert np.array_equal(2.0 ** j * a["states"], b["states"], equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(f=_GRAMMAR, j=st.integers(-3, 3), level=st.floats(0.3, 1.5), x0=st.floats(-0.9, 0.9),
       bridge=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_conditioned_endpoint_law_is_exactly_brownian_scaling_invariant(f, j, level, x0,
                                                                         bridge, seed):
    # criterion 11's lemma as an exact property: the counts for
    # (c h(t / c^2), c x0, c^2 dt) equal those for (h, x0, dt) with c = 2^j,
    # for a boundary h = level (1 + 0.3 sin(f)) with f drawn from the grammar
    h = parse_time_function(f"{level!r} * (1 + 0.3*sin({f[0]}))")
    c, dt, T = 2.0 ** j, 2.0 ** -9, 0.25
    with np.errstate(all="ignore"):
        assume(np.all(np.isfinite(h(dt * np.arange(129)))))

        def h_scaled(t):
            return c * h(t / c ** 2)

        def counts(h, c):  # survivors and their law, or None if none survive
            try:
                law, n = conditioned_endpoint_law(h, c * x0 * level * 0.7, c ** 2 * dt,
                                                  c ** 2 * T, 200, seed,
                                                  Mesh(c * -2.0, c * 2.0, 24), bridge=bridge)
            except SimulationError:
                return None
            return n, law.weights.tolist()

        assert counts(h_scaled, c) == counts(h, 1.0)


def test_survival_memory_does_not_grow_with_n_paths(monkeypatch):
    # batches of 100 paths x 500 steps hold 0.4 MB of normals;
    # the window buffers on top of them must not scale with n_paths
    pair = default_boundary_pair()
    ts = _uniform_window(0.0, 0.5, 1e-3)
    monkeypatch.setattr(absorbed, "_MAX_BATCH_ELEMS", 100 * (len(ts) - 1))
    peaks = []
    for n_paths in (400, 1600):
        tracemalloc.start()
        try:
            survival_flags([pair.h, pair.g], 0.0, ts, seed=1, n_paths=n_paths)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.05
    assert max(peaks) < 1.5


def test_engine_batch_peak_is_its_noise_and_a_fixed_window_allowance():
    # 10 batches of 500 paths x 2000 steps against two stacked boundaries,
    # enough batches for the generator pool to pay: the normals of one chunk
    # take 2.05 MB and no uniform is stored; on top of them the pool, within
    # 0.31 MB (500 generators measured alone at 0.305 MB), and only the
    # window buffers (states and their magnitudes, the gathered increments,
    # the boundary x window masks, the candidates' uniforms) and the per-step
    # reach edges, within 1.3 MB
    pair = default_boundary_pair()
    ts = _uniform_window(0.0, 2.0, 1e-3)
    n_paths, n_steps = 5000, len(ts) - 1
    assert [len(ids) for ids in absorbed._batches(n_paths, n_steps)] == [500] * 10
    noise_mb = 8 * 500 * absorbed._CHUNK / 1e6
    pool_mb = 0.31
    tracemalloc.start()
    try:
        gens, chunk = absorbed._draws(500, n_paths, n_steps)
        assert chunk == absorbed._CHUNK
        assert tracemalloc.get_traced_memory()[1] / 1e6 <= pool_mb
        del gens
        tracemalloc.reset_peak()
        survival_flags([pair.h, pair.g], 0.0, ts, seed=1, n_paths=n_paths)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak <= noise_mb + pool_mb + 1.3


def test_generator_pool_is_built_only_where_it_pays():
    # a generator per path costs about 1,000 normals' draw time, and each
    # further draw call a path makes about 100, so the pool is built only for
    # windows of three chunks or more in calls of many batches
    short = absorbed._draws(10_000, 100_000, 100)  # a window of one chunk
    two = absorbed._draws(1000, 100_000, 1000)  # two chunks: criterion 11's windows
    one = absorbed._draws(500, 500, 2000)  # every path in one batch
    for (gens, chunk), n_steps in ((short, 100), (two, 1000), (one, 2000)):
        assert chunk == n_steps and len({id(g) for g in gens}) == 1
    gens, chunk = absorbed._draws(500, 10_000, 2000)  # survival-crn: 20 batches
    assert chunk == absorbed._CHUNK and len({id(g) for g in gens}) == 500


def test_survival_flags_of_no_paths_are_empty():
    ts = _uniform_window(0.0, 2.0, 1e-3)
    pair = default_boundary_pair()
    assert survival_flags(1.0, 0.0, ts, seed=1, n_paths=0).shape == (0,)
    assert survival_flags([pair.h, pair.g], 0.0, ts, seed=1, n_paths=0).shape == (2, 0)


def test_vector_donor_draw_consumes_the_stream_like_scalar_draws():
    # Fleming-Viot draws all of a step's donors in one call
    vector, scalar = make_generator(9, 2, 0), make_generator(9, 2, 0)
    for n_survivors, n_abs in ((1, 3), (7, 5), (1999, 40), (2 ** 31 + 3, 6)):
        drawn = vector.integers(n_survivors, size=n_abs)
        assert drawn.tolist() == [int(scalar.integers(n_survivors)) for _ in range(n_abs)]
    assert vector.random() == scalar.random()


# -- Girsanov -----------------------------------------------------------------

def test_constant_boundary_weight_is_one():
    h2 = const(2.0, lower=2.0, upper=2.0)
    times = np.linspace(0.0, 1.0, 11)
    gen = np.random.default_rng(0)
    w = gen.standard_normal(11)
    assert girsanov_weight(times, w, h2) == 1.0


@settings(max_examples=60, deadline=None)
@given(c=st.floats(1e-3, 1e3), t0=st.floats(-10.0, 10.0),
       steps=st.lists(st.floats(1e-6, 10.0), max_size=60), n_rows=st.integers(1, 4),
       data=st.data())
def test_constant_boundary_weight_is_exactly_one_for_every_path(c, t0, steps, n_rows, data):
    # h' = h'' = 0: the exponent is a sum of signed zeros and sqrt(c / c) = 1
    h = const(c, lower=c, upper=c)
    times = t0 + np.concatenate([[0.0], np.cumsum(steps)])
    w = data.draw(arrays(float, (n_rows, len(times)), elements=st.floats(-1e6, 1e6)))
    assert girsanov_weight(times, w[0], h) == 1.0
    assert np.all(absorbed._weights_matrix(times, w, h) == 1.0)


def test_zero_path_weight_is_boundary_ratio():
    h = parse_time_function("1 + 0.1*sin(2*pi*t)", lower=0.9, upper=1.1)
    times = np.linspace(0.2, 0.6, 21)
    w = np.zeros(21)
    expected = math.sqrt(float(h(0.6)) / float(h(0.2)))
    assert girsanov_weight(times, w, h) == pytest.approx(expected, rel=1e-14)


def test_weight_requires_matching_clock():
    with pytest.raises(ValueError, match="clock"):
        girsanov_weight(np.zeros(3), np.zeros(4), UNIT)


def test_integrand_identity_simplification():
    # (h')^2 - (h h')' == -h h'' checked against the unsimplified tree form
    for text in ("1 + 0.1*sin(2*pi*t)", "(1 + 0.25*sin(2*pi*t)) / (1 + 0.3*exp(-0.7*t))"):
        h = parse_time_function(text)
        hp = h.derivative_fn(1)
        hpp = h.derivative_fn(2)
        unsimplified = parse_time_function(f"({text}) * {hp.root.fmt()}").derivative_fn(1)
        ts = np.linspace(0.0, 3.0, 301)
        lhs = hp(ts) ** 2 - unsimplified(ts)
        rhs = -h(ts) * hpp(ts)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("text", [
    "1 + 0.1*sin(2*pi*t)",
    "(1 + 0.25*sin(2*pi*t)) / (1 + 0.3*exp(-0.7*t))",
])
def test_weighted_and_direct_estimators_agree(text):
    h = parse_time_function(text, lower=0.5, upper=1.3)
    direct = survival_probability(h, 0.0, dt=1e-3, T=1.0, n_paths=20_000, seed=5)
    weighted = girsanov_survival_estimate(h, 0.0, dt=1e-3, T=1.0,
                                          n_paths=20_000, seed=6)
    combined = math.hypot(direct.stderr, weighted.stderr)
    assert abs(direct.p - weighted.p) <= 3.0 * combined


# -- Fleming-Viot ----------------------------------------------------------------

def test_fv_occupation_matches_squared_cosine_law():
    res = fleming_viot(UNIT, n_particles=800, dt=1e-3, T=20.0, seed=17)
    mu = res.occupation.measure()
    exact = MeshMeasure.from_unnormalized(mu.mesh, qed_cell_masses(mu.mesh.edges()))
    assert tv_distance(mu, exact) <= 0.05
    assert abs(mu.second_moment() - qed_second_moment()) <= 0.01


@pytest.mark.parametrize("boundary", ["unit", "g"])
def test_fv_killing_rate_matches_the_principal_eigenvalue(boundary):
    # respawns per particle and unit time over t in (2, 6], against pi^2/8
    # for the unit radius and the Floquet exponent of the default envelope g.
    # Tolerance stated before running: one run's SD is at most 0.017 (10-16
    # seeds), so the mean of 4 runs lies within 3 * 0.017 / 2; without the
    # bridge the rate reads 0.045 (unit) and 0.058 (g) low
    if boundary == "unit":
        h, exact = UNIT, math.pi ** 2 / 8.0
    else:
        h = default_boundary_pair().g
        exact = periodic_quasi_ergodic_law(default_pair_g, 1.0, np.array([-1.0, 1.0]))[1]
    rates = []
    for seed in range(60, 64):
        t = np.frombuffer(fleming_viot(h, 2000, 1e-3, 6.0, seed=seed).system.respawns[0])
        rates.append(np.count_nonzero(t > 2.0) / (2000 * 4.0))
    assert abs(np.mean(rates) - exact) <= 3.0 * 0.017 / 2.0


def test_fv_symmetric_input_gives_centered_occupation():
    res = fleming_viot(UNIT, n_particles=500, dt=2e-3, T=10.0, seed=23)
    assert abs(res.occupation.measure().mean()) <= 0.05


def test_fv_is_deterministic_and_preserves_count():
    a = fleming_viot(UNIT, 300, 2e-3, 5.0, seed=7)
    b = fleming_viot(UNIT, 300, 2e-3, 5.0, seed=7)
    assert np.array_equal(a.occupation.mass, b.occupation.mass)
    assert np.array_equal(a.system.positions, b.system.positions)
    assert a.system.n_particles == 300
    assert np.all(np.abs(a.system.positions) < 1.0)
    assert len(a.system.resample_log) > 0
    t, absorbed, donor = a.system.resample_log[0]
    assert 0 < t <= 5.0 and 0 <= absorbed < 300 and 0 <= donor < 300


def test_fv_respawn_record_is_pinned():
    # the record as the tuple-per-respawn log gave it: every t is the node
    # time ts[k + 1] of the respawn's step, an np.float64, and the digest
    # covers every (t, dead, donor) bit for bit; pinned to the counter
    # uniforms of substream (seed, 4, slot)
    log = fleming_viot(UNIT, 300, 2e-3, 5.0, seed=7).system.resample_log
    assert len(log) == 1770 and len({t for t, _, _ in log}) == 1254
    assert log[0] == (0.124, 223, 240) and log[-1] == (5.0, 117, 9)
    assert all(type(t) is np.float64 and type(d) is int and type(o) is int
               for t, d, o in log)
    t, dead, donor = (np.array(c) for c in zip(*log))
    assert dead.sum() == 256_640 and donor.sum() == 260_854
    ts = _uniform_window(0.0, 5.0, 2e-3)
    assert ts[np.searchsorted(ts, t)].tobytes() == t.tobytes()
    digest = hashlib.sha256(t.tobytes() + dead.astype(np.int64).tobytes()
                            + donor.astype(np.int64).tobytes()).hexdigest()
    assert digest == "be8c003b3421757aeb1006638c640dc6e43b63e73026fb9d63c10f13df07c931"


def test_fv_respawn_record_costs_at_most_16_bytes_a_respawn():
    # bound, set before measuring: from T to 4T the traced peak may grow by
    # 16 B per extra respawn (a float64 time and two int32 ids) plus 128 KiB
    # for the 4x longer time and boundary grids (48 KB) and the record's
    # growth slack; a Python tuple per respawn costs about 130 B
    runs = []
    for T in (4.0, 16.0):
        tracemalloc.start()
        try:
            res = fleming_viot(UNIT, 1000, 4e-3, T, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        runs.append((peak, len(res.system.resample_log)))
        del res
    (p1, r1), (p4, r4) = runs
    assert r4 > 3 * r1
    assert p4 - p1 <= 16 * (r4 - r1) + 128 * 1024


def test_fv_aborts_when_all_particles_die():
    tiny = const(0.05, lower=0.05, upper=0.05)
    with pytest.raises(SimulationError, match="decrease dt"):
        fleming_viot(tiny, 4, 0.5, 2.0, seed=0)


def test_fv_burn_in_discards_early_window():
    res = fleming_viot(UNIT, 200, 2e-3, 4.0, seed=3, burn_in=1.0)
    assert res.occupation.total_time == pytest.approx(3.0, rel=1e-9)


def test_fv_validates_particle_count_and_initial():
    with pytest.raises(ValueError):
        fleming_viot(UNIT, 1, 1e-3, 1.0, seed=0)
    with pytest.raises(ValueError, match="outside"):
        fleming_viot(UNIT, 10, 1e-3, 1.0, seed=0, x0=1.5)
    res = fleming_viot(UNIT, 50, 2e-3, 1.0, seed=0, x0="uniform")
    assert res.system.n_particles == 50


# -- conditioned laws ------------------------------------------------------------

def test_q_process_at_start_time_is_point_mass():
    mesh = Mesh(-1.0, 1.0, 20)
    res = q_process_approx(UNIT, s=0.0, x=0.3, t=0.0, horizons=[1.0, 2.0],
                           n_paths=500, seed=1, mesh=mesh, dt=1e-2)
    for law in res.laws:
        assert law.weights[int(mesh.cell_index(0.3))] == pytest.approx(1.0)


def test_q_process_matches_spectral_oracle():
    mesh = Mesh(-1.0, 1.0, 25)
    res = q_process_approx(UNIT, s=0.0, x=0.3, t=1.0, horizons=[2.0, 3.0],
                           n_paths=120_000, seed=9, mesh=mesh, dt=2e-3)
    assert res.stabilization[0] <= 0.05
    oracle = MeshMeasure(mesh, conditioned_cell_masses(0.3, 1.0, 3.0, mesh.edges()))
    assert tv_distance(res.laws[-1], oracle) <= 0.05
    assert not res.flagged


def test_q_process_oracle_stabilization_decays_geometrically():
    # the conditioned laws stabilize in the horizon; exact spectral values
    mesh_edges = Mesh(-1.0, 1.0, 25).edges()
    tvs = []
    for t1, t2 in [(1.5, 2.5), (2.0, 3.0), (2.5, 3.5)]:
        a = conditioned_cell_masses(0.3, 1.0, t1, mesh_edges)
        b = conditioned_cell_masses(0.3, 1.0, t2, mesh_edges)
        tvs.append(0.5 * np.abs(a - b).sum())
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] < 1e-6


def test_q_process_flags_sparse_survivors():
    mesh = Mesh(-1.0, 1.0, 10)
    res = q_process_approx(UNIT, s=0.0, x=0.0, t=0.5, horizons=[4.0],
                           n_paths=2000, seed=2, mesh=mesh, dt=5e-3)
    assert res.flagged == (4.0,)


def test_q_process_validates_horizon_order():
    with pytest.raises(ValueError):
        q_process_approx(UNIT, s=0.0, x=0.0, t=3.0, horizons=[2.0],
                         n_paths=100, seed=0, mesh=Mesh(-1, 1, 10))


def test_q_process_rejects_horizons_off_the_grid():
    with pytest.raises(ValueError, match="multiple"):
        q_process_approx(UNIT, s=0.0, x=0.0, t=0.5, horizons=[0.705, 1.0],
                         n_paths=100, seed=0, mesh=Mesh(-1, 1, 10), dt=1e-2)


def test_q_process_survivors_to_a_horizon_match_survival_flags():
    # a path absorbed by a direct hit exactly at the horizon's node is dead.
    # Without the bridge a path's first steps do not depend on the window
    # length, so every horizon can be checked against its own window
    mesh = Mesh(-1.0, 1.0, 20)
    for bridge, horizons in ((True, [0.5]), (False, [0.5, 0.8, 1.0])):
        res = q_process_approx(UNIT, s=0.0, x=0.3, t=0.5, horizons=horizons,
                               n_paths=20_000, seed=0, mesh=mesh, dt=1e-2, bridge=bridge)
        for horizon, n_surv in zip(horizons, res.n_survivors):
            flags = survival_flags(UNIT, 0.3, _uniform_window(0.0, horizon, 1e-2),
                                   seed=0, n_paths=20_000, bridge=bridge)
            assert n_surv == flags.sum()
        law, n_surv = conditioned_endpoint_law(UNIT, 0.3, 1e-2, 0.5, 20_000, 0, mesh,
                                               bridge=bridge)
        assert n_surv == res.n_survivors[0]
        assert np.array_equal(law.weights, res.laws[0].weights)


def test_q_process_does_not_depend_on_batch_size(monkeypatch):
    kw = dict(s=0.0, x=0.2, t=0.4, horizons=[0.6, 1.0], n_paths=1200, seed=5,
              mesh=Mesh(-1.0, 1.0, 16), dt=1e-2)
    whole = q_process_approx(UNIT, **kw)
    monkeypatch.setattr(absorbed, "_MAX_BATCH_ELEMS", 400 * 100)
    assert len(absorbed._batches(1200, 100)) == 3
    split = q_process_approx(UNIT, **kw)
    assert split.n_survivors == whole.n_survivors
    for a, b in zip(split.laws, whole.laws):
        assert np.array_equal(a.weights, b.weights)


# -- boundary convergence ----------------------------------------------------------

def test_equal_boundaries_have_zero_gap():
    g = parse_time_function("1 + 0.25*sin(2*pi*t)", lower=0.75, upper=1.25,
                            period=1.0)
    pair = BoundaryPair(h=g, g=g, gamma=1.0)
    rows = boundary_convergence_report(pair, s=0.0, t=1.0, x=0.0,
                                       k_values=[0, 3], n_paths=2000, dt=2e-3,
                                       seed=1)
    assert all(r.gap == 0.0 and r.sandwich_prob == 0.0 for r in rows)


def test_degenerate_window_has_zero_gap():
    pair = default_boundary_pair()
    rows = boundary_convergence_report(pair, s=0.5, t=0.5, x=0.0,
                                       k_values=[0, 1], n_paths=10, dt=1e-3,
                                       seed=0)
    assert all(r.gap == 0.0 for r in rows)


def test_gap_shrinks_with_k_and_equals_sandwich():
    pair = default_boundary_pair()
    rows = boundary_convergence_report(pair, s=0.0, t=2.0, x=0.0,
                                       k_values=[0, 8], n_paths=4000, dt=2e-3,
                                       seed=4)
    by_k = {r.k: r for r in rows}
    assert by_k[0].gap - by_k[8].gap > 2.0 * math.hypot(by_k[0].stderr,
                                                        by_k[8].stderr)
    for r in rows:
        assert r.gap == pytest.approx(r.sandwich_prob, abs=1e-15)


# -- QED comparison ------------------------------------------------------------

def test_qed_comparison_identical_runs_have_zero_tv():
    pair = default_boundary_pair()
    cmp0 = qed_comparison(pair, n_particles=200, T=5.0, dt=2e-3, seeds=(5, 5),
                          n_bins=40, boundaries=(pair.g, pair.g), n_bootstrap=20)
    assert cmp0.tv == 0.0


def test_qed_comparison_default_pair_small_scale():
    pair = default_boundary_pair()
    cmp_hg = qed_comparison(pair, n_particles=600, T=15.0, dt=2e-3, seeds=(1, 2),
                            n_bins=50, n_bootstrap=60)
    assert cmp_hg.tv <= 0.10
    assert cmp_hg.bootstrap_err > 0.0


def test_qed_comparison_halving_horizon_raises_tv():
    # shorter runs keep more of the finite-time transient: TV goes up
    pair = default_boundary_pair()
    kw = dict(n_particles=600, dt=2e-3, seeds=(1, 2), n_bins=50, n_bootstrap=10)
    long_run = qed_comparison(pair, T=16.0, **kw)
    short_run = qed_comparison(pair, T=8.0, **kw)
    assert short_run.tv > long_run.tv


# -- scaling (dilation) property ----------------------------------------------------

def test_conditioned_law_scaling_smoke():
    # radius-2 law at t equals the dilation of the radius-1 law at t/4
    n = 30_000
    mesh2 = Mesh(-2.0, 2.0, 20)
    mesh1 = Mesh(-1.0, 1.0, 20)
    law2, _ = conditioned_endpoint_law(const(2.0, lower=2, upper=2), 0.0,
                                       1e-3, 0.8, n, 11, mesh2)
    law1, _ = conditioned_endpoint_law(const(1.0, lower=1, upper=1), 0.0,
                                       0.25e-3, 0.2, n, 12, mesh1)
    assert 0.5 * np.abs(law2.weights - law1.weights).sum() <= 0.04
