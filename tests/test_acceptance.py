"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete.  Monte Carlo tolerances are stated in standard errors or
against deterministic oracles, so the suite is robust to the seed choice.
"""

import json
import math

import numpy as np
import pytest

from apmarkov.absorbed import (boundary_convergence_report, conditioned_endpoint_law,
                               default_boundary_pair, fleming_viot,
                               girsanov_survival_estimate, girsanov_weight,
                               qed_comparison, survival_probability)
from apmarkov.certificates import check_drift, gaussian_class_minorization
from apmarkov.cli import main
from apmarkov.ergodic import point_initial, run_as_experiment, run_l2_experiment
from apmarkov.invariant import (limiting_value, power_iteration_invariant,
                                skeleton_kernel_matrix)
from apmarkov.measures import Mesh, MeshMeasure, tv_distance
from apmarkov.ou import OUSpec, default_ou_spec, transition_params
from apmarkov.paths import Observable
from apmarkov.timefns import const, parse_time_function

from oracles import (default_pair_g, dirichlet_survival_spectral,
                     periodic_quasi_ergodic_law, qed_cell_masses, qed_second_moment)

X2 = Observable("x2", lambda x: x * x)


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:02d}: PASS  {detail}")


def unit_g_spec() -> OUSpec:
    one = const(1.0, lower=1.0, upper=1.0)
    return OUSpec(lam=one, g=const(1.0, lower=1.0, upper=1.0, period=1.0), gamma=1.0)


def test_criterion_01_transition_exactness_and_composition():
    unit = const(1.0, lower=1.0, upper=1.0)
    tr = transition_params(unit, 0.0, 1.0)
    assert tr.m == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert tr.sigma ** 2 == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-9)
    spec = default_ou_spec()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        s, u, t = np.sort(rng.uniform(0.0, 3.0, 3))
        comp = transition_params(spec.lam, s, u).compose(
            transition_params(spec.lam, u, t))
        whole = transition_params(spec.lam, s, t)
        worst = max(worst,
                    abs(comp.m - whole.m) / whole.m,
                    abs(comp.sigma ** 2 - whole.sigma ** 2) / whole.sigma ** 2)
    assert worst <= 1e-9
    report(1, f"m, sigma^2 exact to 1e-9; worst composition error {worst:.2e}")


def test_criterion_02_skeleton_invariant_cross_check():
    mesh = Mesh(-6.0, 6.0, 400)
    mu, iters = power_iteration_invariant(skeleton_kernel_matrix(unit_g_spec(), mesh),
                                          mesh, tol=1e-12)
    err = abs(mu.variance() - 0.5)
    assert err <= 1e-3
    report(2, f"mesh invariant variance error {err:.2e} (<= 1e-3) in {iters} iterations")


def test_criterion_03_l2_ergodic_theorem():
    spec = default_ou_spec()
    rep = run_l2_experiment(spec, X2, point_initial(0.0), [10.0, 100.0, 1000.0],
                            n_replicas=1000, dt=1e-2, seed=31)
    limit = limiting_value(spec, X2)
    gap = abs(rep.mean_avg[-1] - limit)
    assert gap <= 3.0 * rep.stderr[-1]
    assert -1.3 <= rep.var_slope <= -0.7
    report(3, f"mean {rep.mean_avg[-1]:.4f} within {gap / rep.stderr[-1]:.2f} SE of "
              f"limit {limit:.4f}; variance slope {rep.var_slope:.2f}")


def test_criterion_04_almost_sure_convergence():
    spec = default_ou_spec()
    a = run_as_experiment(spec, X2, point_initial(0.0), 10_000.0, dt=1e-2, seed=51)
    b = run_as_experiment(spec, X2, point_initial(0.0), 10_000.0, dt=1e-2, seed=52)
    assert a.final_deviation <= 0.05
    assert abs(a.averages[-1] - b.averages[-1]) <= 0.1
    report(4, f"|A_t - L| = {a.final_deviation:.4f} at t=1e4; "
              f"two-seed gap {abs(a.averages[-1] - b.averages[-1]):.4f}")


def test_criterion_05_drift_certificate():
    unit = const(1.0, lower=1.0, upper=1.0)
    good = check_drift(unit, s=0.0, t1=1.0, theta=0.5, C=0.94, k_edge=1.6)
    assert good.valid and good.max_residual <= 0.0
    bad = check_drift(unit, s=0.0, t1=1.0, theta=0.1, C=0.94, k_edge=1.6)
    assert not bad.valid
    report(5, f"certificate valid with max residual {good.max_residual:.4f}; "
              f"theta=0.1 invalid (residual {bad.max_residual:.2f})")


def test_criterion_06_gaussian_class_minorization():
    centered = gaussian_class_minorization(a=0.0, b_minus=1.0, b_plus=2.0,
                                           n_members=1000, seed=6)
    assert centered.c == pytest.approx(0.5, rel=1e-9)
    shifted = gaussian_class_minorization(a=3.0, b_minus=1.0, b_plus=2.0,
                                          n_members=1000, seed=7)
    assert centered.n_violations == 0 and shifted.n_violations == 0
    assert centered.nu.mesh.n_cells == 2001
    report(6, f"c = b-/b+ to 1e-9; 0 violations over 1000 members x 2001 cells "
              f"(worst margins {centered.worst_margin:.2e}, {shifted.worst_margin:.2e})")


def test_criterion_07_constant_boundary_survival():
    unit = const(1.0, lower=1.0, upper=1.0)
    exact = dirichlet_survival_spectral(0.0, 2.0)
    est = survival_probability(unit, 0.0, dt=1e-3, T=2.0, n_paths=100_000, seed=71)
    assert abs(est.p - exact) <= 3.0 * est.stderr
    naive = survival_probability(unit, 0.0, dt=1e-3, T=2.0, n_paths=100_000,
                                 seed=71, bridge=False)
    bias = naive.p - est.p
    assert bias > 2.0 * math.hypot(est.stderr, naive.stderr)
    report(7, f"bridge estimate {est.p:.5f} vs series {exact:.5f} "
              f"({abs(est.p - exact) / est.stderr:.2f} SE); naive bias +{bias:.5f}")


def test_criterion_08_girsanov_identity():
    h2 = const(2.0, lower=2.0, upper=2.0)
    times = np.linspace(0.0, 1.0, 101)
    w = np.random.default_rng(0).standard_normal(101)
    assert girsanov_weight(times, w, h2) == 1.0
    h = parse_time_function("1 + 0.1*sin(2*pi*t)", lower=0.9, upper=1.1)
    direct = survival_probability(h, 0.0, dt=1e-3, T=1.0, n_paths=100_000, seed=81)
    weighted = girsanov_survival_estimate(h, 0.0, dt=1e-3, T=1.0,
                                          n_paths=100_000, seed=82)
    combined = math.hypot(direct.stderr, weighted.stderr)
    gap = abs(direct.p - weighted.p)
    assert gap <= 3.0 * combined
    report(8, f"constant-boundary weight exactly 1; direct {direct.p:.5f} vs "
              f"weighted {weighted.p:.5f} ({gap / combined:.2f} combined SE)")


def test_criterion_09_quasi_ergodic_distribution():
    unit = const(1.0, lower=1.0, upper=1.0)
    res = fleming_viot(unit, n_particles=2000, dt=1e-3, T=50.0, seed=91)
    mu = res.occupation.measure()
    exact = MeshMeasure.from_unnormalized(mu.mesh, qed_cell_masses(mu.mesh.edges()))
    tv = tv_distance(mu, exact)
    m2_err = abs(mu.second_moment() - qed_second_moment())
    assert tv <= 0.05
    assert m2_err <= 0.01
    report(9, f"occupation vs squared-cosine law: TV {tv:.4f} (<= 0.05), "
              f"second-moment error {m2_err:.5f} (<= 0.01)")


def test_criterion_10_boundary_convergence_and_qed_match():
    pair = default_boundary_pair()
    rows = boundary_convergence_report(pair, s=0.0, t=2.0, x=0.0,
                                       k_values=[0, 5, 10, 15, 20],
                                       n_paths=10_000, dt=1e-3, seed=101)
    by_k = {r.k: r for r in rows}
    drop = by_k[0].gap - by_k[20].gap
    combined = math.hypot(by_k[0].stderr, by_k[20].stderr)
    assert drop > 2.0 * combined
    gaps = [by_k[k].gap for k in (0, 5, 10, 15, 20)]
    assert all(g0 >= g1 - 2.0 * combined for g0, g1 in zip(gaps[:-1], gaps[1:]))

    hg = qed_comparison(pair, n_particles=2000, T=50.0, dt=1e-3, seeds=(102, 103))
    control = qed_comparison(pair, n_particles=2000, T=50.0, dt=1e-3,
                             seeds=(104, 105), boundaries=(pair.g, pair.g))
    assert control.tv <= 0.03
    assert hg.tv <= 0.07
    # each of the four occupations against the deterministic quasi-ergodic law
    mesh = hg.occupation_a.mesh
    beta = MeshMeasure.from_unnormalized(
        mesh, periodic_quasi_ergodic_law(default_pair_g, pair.gamma, mesh.edges())[0])
    tv_beta = max(tv_distance(occ.measure(), beta) for run in (hg, control)
                  for occ in (run.occupation_a, run.occupation_b))
    assert tv_beta <= 0.05
    report(10, f"survival gap {by_k[0].gap:.4f} -> {by_k[20].gap:.4f} "
               f"({drop / combined:.1f} combined SE); QED TV h-vs-g {hg.tv:.4f} "
               f"(<= 0.07), noise floor {control.tv:.4f} (<= 0.03), "
               f"worst TV to the Floquet law {tv_beta:.4f} (<= 0.05)")


def test_criterion_11_scaling_lemma():
    n = 100_000
    mesh2 = Mesh(-2.0, 2.0, 20)
    mesh1 = Mesh(-1.0, 1.0, 20)
    law2, n2 = conditioned_endpoint_law(const(2.0, lower=2, upper=2), 0.0,
                                        1e-3, 1.0, n, 111, mesh2)
    law1, n1 = conditioned_endpoint_law(const(1.0, lower=1, upper=1), 0.0,
                                        0.25e-3, 0.25, n, 112, mesh1)
    tv = 0.5 * float(np.abs(law2.weights - law1.weights).sum())
    assert tv <= 0.02
    report(11, f"radius-2 law at t=1 vs dilated radius-1 law at t=1/4: "
               f"TV {tv:.4f} (<= 0.02; {n2} and {n1} survivors)")


def test_criterion_12_cli_determinism(tmp_path):
    doc = {
        "experiment": "ergodic", "seed": 7,
        "model": {
            "kind": "ou",
            "lambda": {"expr": "(1 + 0.5*sin(2*pi*t)) * (1 + 0.3*exp(-0.7*t))",
                       "lower": 0.5, "upper": 1.95},
            "g": {"expr": "1 + 0.5*sin(2*pi*t)", "lower": 0.5, "upper": 1.5,
                  "period": 1.0},
            "gamma": 1.0,
        },
        "params": {"observable": "x2", "t_values": [2.0, 8.0],
                   "n_replicas": 32, "dt": 0.01},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    report(12, "identical config + seed reproduce byte-identical CSV artifacts")
