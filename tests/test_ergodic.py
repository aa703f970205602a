import math
import threading
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.stats import ks_2samp

from apmarkov import ergodic
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
    # first step, window edges (256, 512), the default chunk edge (1024), the
    # steps after them, and the last step
    spec = default_ou_spec()
    t_values = [0.01, 2.56, 2.57, 5.12, 10.24, 10.25, 11.0]

    def run(f, threads=1):
        return ergodic_time_averages(spec.lam, f, normal_initial(0.0, 1.0), t_values,
                                     0.01, 5, seed=31, threads=threads)

    # chunk 1 is one draw per window, 100 exceeds the run; cap 2200 makes 3 batches
    cases = list(product((1, 2, ergodic._CHUNK, 100), (ergodic._MAX_BATCH_ELEMS, 2200),
                         (1, 2)))
    for f in (X2, X):  # X returns the state buffer itself
        whole = run(f)
        for chunk, cap, threads in cases:
            monkeypatch.setattr(ergodic, "_CHUNK", chunk)
            monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", cap)
            assert np.array_equal(run(f, threads), whole)
        monkeypatch.undo()
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
    # batches are where the step-major trapezoid sums could part from a wider
    # run.  700 steps: the last window (512-700) ends mid-chunk, with
    # checkpoints inside it and on its last step
    spec = default_ou_spec()
    t_values = [1.0, 5.5, 7.0]

    def run(f, n_replicas, threads=1):
        return ergodic_time_averages(spec.lam, f, normal_initial(0.0, 1.0), t_values, 0.01,
                                     n_replicas, seed=5, threads=threads)

    for f in (X, X2):
        wide = run(f, 4)
        for threads in (1, 2):
            assert np.array_equal(run(f, 1, threads), wide[:1])
            for cap in (700, 3 * 700):  # batches of 1 replica, and of 3 then 1
                monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", cap)
                assert np.array_equal(run(f, 4, threads), wide)
            monkeypatch.undo()


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


def test_x_report_from_a_normal_start_matches_the_exact_ar1_moments():
    # the observable x from X_0 ~ N(1.5, 0.5^2), on ergodic_default's model and
    # dt, 1000 replicas, seed 2024, t = 1 and 5.  mean_avg must lie within 3
    # stderr of the exact mean and var within 3 SE of the exact variance.
    spec = default_ou_spec()
    dt, t_values, n, seed = 0.01, [1.0, 5.0], 1000, 2024
    initial = normal_initial(1.5, 0.5)
    report = run_l2_experiment(spec, X, initial, t_values, n_replicas=n, dt=dt, seed=seed)
    avgs = ergodic_time_averages(spec.lam, X, initial, t_values, dt, n, seed)
    m, sig = ou_grid_params_quad(default_lam, dt, int(round(t_values[-1] / dt)))
    for j, t in enumerate(t_values):
        mean, var = x_average_moments(m, sig, dt, int(round(t / dt)), 1.5, 0.5)
        assert abs(report.mean_avg[j] - mean) <= 3.0 * report.stderr[j]
        assert abs(report.var[j] - var) <= 3.0 * var_se(avgs[:, j], report.var[j])


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
