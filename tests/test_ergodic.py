import math
import threading
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.stats import ks_2samp

from apmarkov import ergodic
from apmarkov.config import OBSERVABLES
from apmarkov.ergodic import (default_checkpoints, ergodic_time_averages,
                              normal_initial, point_initial, run_as_experiment,
                              run_l2_experiment)
from apmarkov.ou import OUSpec, default_ou_spec, transition_params
from apmarkov.paths import Observable
from apmarkov.rng import make_generator

from oracles import ou_grid_params_quad, x2_average_moments, x_average_moments

ONE = Observable("one", lambda x: np.ones_like(x), bound=1.0)
X2 = Observable("x2", lambda x: x * x)
X = Observable("x", lambda x: x)


def default_lam(t):  # default_ou_spec().lam, written out for scipy's quadrature
    return (1 + 0.5 * math.sin(2 * math.pi * t)) * (1 + 0.3 * math.exp(-0.7 * t))


def var_se(a, var) -> float:
    """The sample variance's SE, from the replicas' fourth central moment."""
    n, m4 = len(a), np.mean((a - a.mean()) ** 4)
    return math.sqrt((m4 - (n - 3) / (n - 1) * var ** 2) / n)


def periodic_spec() -> OUSpec:
    spec = default_ou_spec()
    return OUSpec(lam=spec.g, g=spec.g, gamma=spec.gamma)


def reference_averages(drift, fn, x0, t_values, dt, n_replicas, seed):
    # one scalar step x -> m x + sigma z per grid step, drawn from replica
    # r's substream, then the trapezoid rule along the stored path
    n_steps = int(round(max(t_values) / dt))
    ts = dt * np.arange(n_steps + 1)
    steps = [transition_params(drift, ts[k], ts[k + 1]) for k in range(n_steps)]
    slow = np.empty((n_replicas, len(t_values)))
    for r in range(n_replicas):
        gen = make_generator(seed, r)
        x = [x0]
        for tr in steps:
            x.append(tr.m * x[-1] + tr.sigma * gen.standard_normal())
        x = np.array(x)
        for j, t in enumerate(t_values):
            n = int(round(t / dt))
            slow[r, j] = np.trapezoid(fn(x[:n + 1]), dx=dt) / t
    return slow


def test_fast_runner_matches_reference_paths():
    spec = default_ou_spec()
    dt, t_values = 0.01, (1.0, 2.5)
    slow = reference_averages(spec.lam, X2, 0.5, t_values, dt, 4, seed=77)
    fast = ergodic_time_averages(spec.lam, X2, point_initial(0.5), list(t_values),
                                 dt, 4, seed=77)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


def test_chunked_draws_and_batches_give_the_same_bits(monkeypatch):
    # 1100 steps: 4 full windows of 256 and a partial one; checkpoints on the
    # first step, window edges (256, 512, 1024: block edges for blocks of 1, 2
    # and 4 windows), the steps after them, and the last step
    spec = default_ou_spec()
    t_values = [0.01, 2.56, 2.57, 5.12, 10.24, 10.25, 11.0]

    def run(f, threads=1):
        return ergodic_time_averages(spec.lam, f, normal_initial(0.0, 1.0), t_values,
                                     0.01, 5, seed=31, threads=threads)

    # block 1 is one draw per window, 100 exceeds the run; 5 replicas in rows of
    # 2 or 3 end in a partial sub-block; cap 2200 makes 3 batches (2, 2 and 1)
    cases = list(product((1, 2, 3, ergodic._ROWS), (1, 2, ergodic._BLOCK, 100),
                         (ergodic._MAX_BATCH_ELEMS, 2200), (1, 2)))
    # X returns the state buffer itself; the shipped x2, abs and cos write into
    # it, on a partial last window too
    for f in (X2, X, *(OBSERVABLES[k] for k in ("x2", "abs", "cos"))):
        whole = run(f)
        for rows, block, cap, threads in cases:
            monkeypatch.setattr(ergodic, "_ROWS", rows)
            monkeypatch.setattr(ergodic, "_BLOCK", block)
            monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", cap)
            assert np.array_equal(run(f, threads), whole)
        monkeypatch.undo()
    assert np.array_equal(run(OBSERVABLES["x2"]), run(X2))
    slow = reference_averages(spec.lam, X, 0.25, t_values, 0.01, 2, seed=31)
    fast = ergodic_time_averages(spec.lam, X, point_initial(0.25), t_values, 0.01, 2,
                                 seed=31)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


def test_runner_is_thread_count_invariant(monkeypatch):
    spec = default_ou_spec()

    def run(n_replicas=6, seed=9, threads=1):
        return ergodic_time_averages(spec.lam, X2, normal_initial(0.0, 1.0), [1.0, 2.0],
                                     0.01, n_replicas, seed=seed, threads=threads)

    whole = run()
    assert np.array_equal(run(threads=4), whole)  # one batch: the pool is skipped
    # 200 steps per replica: caps of 400 and 200 give 3 and 6 batches
    for cap in (400, 200):
        monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", cap)
        assert np.array_equal(run(threads=1), whole)
        assert np.array_equal(run(threads=4), whole)
    assert np.array_equal(run(), whole)  # same seed, same bits
    assert not np.array_equal(run(seed=10), whole)
    assert np.array_equal(run(n_replicas=8, threads=4)[:3], run(n_replicas=3))


def test_one_replica_batches_and_runs_give_the_bits_of_a_wider_run(monkeypatch):
    # numpy sums a lone column pairwise, not in cumsum's order, so one-replica
    # batches and sub-blocks are where the step-major trapezoid sums could part
    # from a wider run.  700 steps: the last window (512-700) ends mid-block, with
    # checkpoints inside it and on its last step
    spec = default_ou_spec()
    t_values = [1.0, 5.5, 7.0]

    def run(f, n_replicas, threads=1):
        return ergodic_time_averages(spec.lam, f, normal_initial(0.0, 1.0), t_values, 0.01,
                                     n_replicas, seed=5, threads=threads)

    for f in (X, X2, *(OBSERVABLES[k] for k in ("x2", "abs", "cos"))):
        wide = run(f, 4)
        for rows, block, threads in product((1, 2, 3, ergodic._ROWS),
                                            (1, 2, ergodic._BLOCK, 100), (1, 2)):
            monkeypatch.setattr(ergodic, "_ROWS", rows)  # rows of 3: a lone last replica
            monkeypatch.setattr(ergodic, "_BLOCK", block)
            assert np.array_equal(run(f, 1, threads), wide[:1])
            for cap in (700, 3 * 700):  # batches of 1 replica, and of 3 then 1
                monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", cap)
                assert np.array_equal(run(f, 4, threads), wide)
            monkeypatch.undo()


def test_each_replica_draws_once_per_block(monkeypatch):
    # a point start draws nothing, so replica r's generator is called once per
    # block of _BLOCK windows: 1, 1, 2 and 3 calls for 1, 4096, 4097 and 8193
    # steps; 70 replicas end in a partial sub-block
    class Counted:
        def __init__(self, gen):
            self.gen, self.calls = gen, 0

        def standard_normal(self, *args, **kwargs):
            self.calls += 1
            return self.gen.standard_normal(*args, **kwargs)

    made = []

    def counted_generator(seed, r):
        made.append(Counted(make_generator(seed, r)))
        return made[-1]

    monkeypatch.setattr(ergodic, "make_generator", counted_generator)
    span = ergodic._BLOCK * ergodic._WINDOW
    for n_steps in (1, span, span + 1, 2 * span + 1):
        made.clear()
        ergodic_time_averages(default_ou_spec().lam, X2, point_initial(0.0),
                              [n_steps * 0.01], 0.01, 70, seed=2, threads=2)
        assert [g.calls for g in made] == [math.ceil(n_steps / span)] * 70


def test_serial_runs_stay_on_the_calling_thread(monkeypatch):
    # a serial run must stay interruptible: no worker thread, even with
    # batches.  The observable is evaluated wherever a batch steps a window.
    def threads_seen(threads):
        seen = set()

        def x2(x):
            seen.add(threading.current_thread())
            return x * x
        ergodic_time_averages(default_ou_spec().lam, Observable("x2", x2), point_initial(0.0),
                              [2.0], 0.01, 3, seed=0, threads=threads)
        return seen

    monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", 200)
    assert threads_seen(1) == {threading.main_thread()}
    assert threads_seen(2) - {threading.main_thread()}  # the hook sees pool workers


def peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_follows_the_run_not_the_window(monkeypatch):
    # work buffers no wider than the run, transition parameters streamed per
    # window: 4000 replicas x 10 steps and 2 batches of 1 replica x 1e5 steps
    spec = default_ou_spec()
    for n_replicas, t_max, cap, limit_mb in ((4000, 0.1, int(2e7), 8.0),
                                            (2, 1000.0, 100000, 0.5)):
        monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", cap)
        peak = peak_bytes(lambda: ergodic_time_averages(spec.lam, X2, point_initial(0.0),
                                                        [t_max], 0.01, n_replicas, seed=3))
        assert peak < limit_mb * 1e6
    # at --threads 2 the pool runs waves of 2 batches of 200 replicas x 2000
    # steps, so 6 batches peak where 2 do
    monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", 200 * 2000)
    two, six = (peak_bytes(lambda: ergodic_time_averages(spec.lam, X2, point_initial(0.0),
                                                         [20.0], 0.01, n, seed=3, threads=2))
                for n in (400, 1200))
    assert six <= 1.1 * two


@pytest.mark.parametrize("name", ["x2", "cos"])
def test_batch_holds_its_chunk_states_and_cum_with_an_in_place_observable(name):
    # one batch of 1000 replicas x 2000 steps with a shipped ufunc observable,
    # which the engine evaluates in its states buffer: the peak is one sub-block's
    # normals (64 replicas x at most 16 windows of 256 steps), its states and its
    # step-major trapezoid buffer (256 steps each), plus 1.5 MB for 1000
    # generators (about 0.6 MB), two blocks of transition parameters and the
    # per-replica vectors.  A batch-wide buffer of any of them would add 2 MB.
    buffers = 8 * (64 * 4096 + 2 * 64 * 256)
    peak = peak_bytes(lambda: ergodic_time_averages(default_ou_spec().lam, OBSERVABLES[name],
                                                    point_initial(0.0), [20.0], 0.01, 1000,
                                                    seed=3))
    assert peak <= buffers + 1.5e6


def test_checkpoints_must_align_with_grid():
    spec = default_ou_spec()
    with pytest.raises(ValueError, match="multiple of dt"):
        ergodic_time_averages(spec.lam, X2, point_initial(0.0), [0.505],
                              0.01, 1, seed=0)


def test_constant_observable_has_zero_l2_error():
    report = run_l2_experiment(default_ou_spec(), ONE, point_initial(0.3),
                               [1.0, 2.0, 4.0], n_replicas=8, dt=0.01, seed=1)
    assert report.limit == pytest.approx(1.0, rel=1e-12)
    assert all(e <= 1e-24 for e in report.l2_err)
    # reducer is order-insensitive up to float reassociation (tol 1e-12)
    assert all(v <= 1e-24 for v in report.var)


def test_l2_error_decays_with_horizon():
    report = run_l2_experiment(default_ou_spec(), X2, point_initial(0.0),
                               [5.0, 50.0, 500.0], n_replicas=100, dt=0.01, seed=21)
    assert report.l2_err[0] > report.l2_err[1] > report.l2_err[2]
    assert -1.3 <= report.var_slope <= -0.7
    final_gap = abs(report.mean_avg[-1] - report.limit)
    assert final_gap <= 4.0 * report.stderr[-1]


def test_l2_report_matches_the_exact_ar1_moments():
    # ergodic_default's model, observable, start, dt, replicas and seed, up to
    # t = 10.  Each report column must lie within 3 of its own standard errors
    # of the exact moments of the engine's trapezoid average.
    spec = default_ou_spec()
    grid = np.linspace(0.0, 10.0, 41)
    np.testing.assert_allclose(spec.lam(grid), [default_lam(t) for t in grid], rtol=1e-14)
    dt, t_values, n, seed = 0.01, [1.0, 10.0], 1000, 12345
    report = run_l2_experiment(spec, X2, point_initial(0.0), t_values, n_replicas=n,
                               dt=dt, seed=seed)
    avgs = ergodic_time_averages(spec.lam, X2, point_initial(0.0), t_values, dt, n, seed)
    m, sig = ou_grid_params_quad(default_lam, dt, int(round(t_values[-1] / dt)))
    for j, t in enumerate(t_values):
        mean, var = x2_average_moments(m, sig, dt, int(round(t / dt)))
        a = avgs[:, j]
        assert abs(report.mean_avg[j] - mean) <= 3.0 * report.stderr[j]
        assert abs(report.var[j] - var) <= 3.0 * var_se(a, report.var[j])
        # l2_err is the replica mean of (A_t - L)^2, whose expectation is
        # Var A_t + (E A_t - L)^2
        se_l2 = np.std((a - report.limit) ** 2, ddof=1) / math.sqrt(n)
        assert abs(report.l2_err[j] - (var + (mean - report.limit) ** 2)) <= 3.0 * se_l2


def assert_normal_start_report_matches(f, moments, seed):
    # f from X_0 ~ N(1.5, 0.5^2), on ergodic_default's model and dt, 1000
    # replicas, t = 1 and 5.  mean_avg must lie within 3 stderr of the exact
    # mean and var within 3 SE of the exact variance.
    spec = default_ou_spec()
    dt, t_values, n = 0.01, [1.0, 5.0], 1000
    initial = normal_initial(1.5, 0.5)
    report = run_l2_experiment(spec, f, initial, t_values, n_replicas=n, dt=dt, seed=seed)
    avgs = ergodic_time_averages(spec.lam, f, initial, t_values, dt, n, seed)
    m, sig = ou_grid_params_quad(default_lam, dt, int(round(t_values[-1] / dt)))
    for j, t in enumerate(t_values):
        mean, var = moments(m, sig, dt, int(round(t / dt)), 1.5, 0.5)
        assert abs(report.mean_avg[j] - mean) <= 3.0 * report.stderr[j]
        assert abs(report.var[j] - var) <= 3.0 * var_se(avgs[:, j], report.var[j])


def test_x_report_from_a_normal_start_matches_the_exact_ar1_moments():
    assert_normal_start_report_matches(X, x_average_moments, seed=2024)


def test_x2_report_from_a_normal_start_matches_the_exact_ar1_moments():
    assert_normal_start_report_matches(OBSERVABLES["x2"], x2_average_moments, seed=2026)


def test_average_moment_oracles_match_the_explicit_linear_representation():
    # X = c + L xi with xi standard normal (X_0's own normal first), so
    # t A_t of x is w.X and of x2 the quadratic form X' W X, whose mean and
    # variance are c'Wc + tr(M) and 2 tr(M^2) + 4 |L'Wc|^2 with M = L'WL
    rng = np.random.default_rng(40)
    n, dt, mean0, sd0 = 40, 0.05, 1.5, 0.5
    m, sig = rng.uniform(0.5, 1.5, n), rng.uniform(0.1, 1.0, n)
    c, L = np.empty(n + 1), np.zeros((n + 1, n + 1))
    c[0], L[0, 0] = mean0, sd0
    for k in range(n):
        c[k + 1], L[k + 1] = m[k] * c[k], m[k] * L[k]
        L[k + 1, k + 1] = sig[k]
    w = np.full(n + 1, dt)
    w[[0, -1]] = dt / 2.0
    t = n * dt
    np.testing.assert_allclose(x_average_moments(m, sig, dt, n, mean0, sd0),
                               (w @ c / t, np.sum((L.T @ w) ** 2) / t ** 2), rtol=1e-12)
    M, b = L.T @ (w[:, None] * L), L.T @ (w * c)
    np.testing.assert_allclose(x2_average_moments(m, sig, dt, n, mean0, sd0),
                               ((c @ (w * c) + np.trace(M)) / t,
                                (2.0 * np.sum(M * M) + 4.0 * b @ b) / t ** 2), rtol=1e-12)


def test_default_checkpoints_follow_squares_and_decades():
    pts = default_checkpoints(100.0)
    assert 1.0 in pts and 4.0 in pts and 81.0 in pts
    assert 10.0 in pts and 100.0 in pts
    assert pts == sorted(pts)


def test_as_report_structure_and_constant_observable():
    report = run_as_experiment(default_ou_spec(), ONE, point_initial(0.2),
                               t_max=25.0, dt=0.01, seed=2)
    assert all(d <= 1e-12 for d in report.deviations)
    assert report.final_deviation <= 1e-12
    assert report.t_values[-1] == 25.0


def test_as_deviations_shrink():
    report = run_as_experiment(default_ou_spec(), X2, point_initial(0.0),
                               t_max=2000.0, dt=0.01, seed=6)
    early = report.deviations[report.t_values.index(4.0)]
    late = report.final_deviation
    assert late < early
    assert late <= 0.08


def test_periodic_case_p_and_q_reports_agree_bitwise():
    # lam identical to g: identical seeds and matched transitions give the
    # same paths, hence byte-equal reports
    spec = periodic_spec()
    a = run_l2_experiment(spec, X2, point_initial(0.0), [2.0, 8.0],
                          n_replicas=16, dt=0.01, seed=12, use_auxiliary=False)
    b = run_l2_experiment(spec, X2, point_initial(0.0), [2.0, 8.0],
                          n_replicas=16, dt=0.01, seed=12, use_auxiliary=True)
    assert a.mean_avg == b.mean_avg
    assert a.l2_err == b.l2_err


def test_periodic_case_p_and_q_same_distribution_ks():
    # independent seeds: replica averages from P and Q should pass a
    # two-sample Kolmogorov-Smirnov test at level 0.01
    spec = periodic_spec()
    a = ergodic_time_averages(spec.lam, X2, normal_initial(0.0, 0.5), [20.0],
                              0.01, 300, seed=100)
    b = ergodic_time_averages(spec.g, X2, normal_initial(0.0, 0.5), [20.0],
                              0.01, 300, seed=200)
    assert ks_2samp(a[:, 0], b[:, 0]).pvalue > 0.01


def test_two_seeds_share_the_limit():
    spec = default_ou_spec()
    a = run_as_experiment(spec, X2, point_initial(0.0), 1000.0, dt=0.01, seed=41)
    b = run_as_experiment(spec, X2, point_initial(0.0), 1000.0, dt=0.01, seed=42)
    assert abs(a.averages[-1] - b.averages[-1]) <= 0.1
