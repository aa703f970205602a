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

ONE = Observable("one", lambda x: np.ones_like(x), bound=1.0)
X2 = Observable("x2", lambda x: x * x)


def periodic_spec() -> OUSpec:
    spec = default_ou_spec()
    return OUSpec(lam=spec.g, g=spec.g, gamma=spec.gamma)


def test_fast_runner_matches_reference_paths():
    # reference: one scalar step x -> m x + sigma z per grid step, drawn from
    # replica r's substream, then the trapezoid rule along the stored path
    spec = default_ou_spec()
    dt, n_steps, t_values = 0.01, 250, (1.0, 2.5)
    ts = dt * np.arange(n_steps + 1)
    steps = [transition_params(spec.lam, ts[k], ts[k + 1]) for k in range(n_steps)]
    slow = np.empty((4, len(t_values)))
    for r in range(4):
        gen = make_generator(77, r)
        x = [0.5]
        for tr in steps:
            x.append(tr.m * x[-1] + tr.sigma * gen.standard_normal())
        x = np.array(x)
        for j, t in enumerate(t_values):
            n = int(round(t / dt))
            slow[r, j] = np.trapezoid(x[:n + 1] ** 2, dx=dt) / t
    fast = ergodic_time_averages(spec.lam, X2, point_initial(0.5), list(t_values),
                                 dt, 4, seed=77)
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
