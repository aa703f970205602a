"""Workload definitions: the inputs each workload feeds to ``apmarkov.cli``.

Every input is derived from the shipped configs in ``configs/`` and the
workload seed, so the same seed always gives the same inputs.  This module
uses only the standard library; the parent process imports it without
importing the package under test.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

WORKLOADS = ("ergodic-l2", "survival-crn", "qsd-fv", "certify-sweep")

# Workload sizes, scaled from the shipped configs so that several operations
# fit in one run while each workload keeps the property it exists for.
ERGODIC_T_VALUES = [10.0, 100.0, 400.0]  # 1000 replicas x 4e4 steps: 2 pool batches
SURVIVAL_K_VALUES = [0]                  # h and g: 2 passes of 1e4 paths x 2000 steps
QSD_T = 10.0                             # 2000 particles x 1e4 steps
THREADS = 2

# certify-sweep: valid certificate operations per sweep, per kind, and the
# number of distinct seed-generated sweeps one run cycles through
SWEEP_PER_KIND = 40
SWEEP_VARIANTS = 8
# Largest k the sweep draws.  The TV distance halves with each period of k,
# and the error of ou.gaussian_tv grows as it shrinks: at most 2e-11 at
# k <= 8, about 1e-10 from k = 9, and misses of 1e-9 to 5e-9 on about one
# draw in 10^4 at k = 13-15, where TV is about 1e-6.  The sweep stays at
# k <= 8 so that no timed op fails; TV_PROBE shows the defect in every run.
SWEEP_K_MAX = 8
# (n, k, probe_x) on the shipped asymptotic-periodicity model where
# ou.gaussian_tv misses the closed form by 1.2e-9, 1.1e-9 and 4.9e-9
TV_PROBE = [(1, 15, 0.280633), (3, 14, 0.594535), (2, 15, 1.456136)]

WORK_UNITS = {
    "ergodic-l2": "replica-steps",
    "survival-crn": "path-steps",
    "qsd-fv": "particle-steps",
    "certify-sweep": "valid certificate ops",
}


def _load(root: Path, name: str) -> dict:
    with open(root / "configs" / name) as fh:
        return json.load(fh)


def _write(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def _op(key: str, kind: str, config: str, seed: int, out: Path,
        threads: int | None = None, **check) -> dict:
    argv = ["run", "--config", config, "--out", str(out), "--seed", str(seed)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return {"key": key, "kind": kind, "argv": argv, "out": str(out), "check": check}


def batch_op(root: Path, workload: str, seed: int, work: Path,
             threads: int = THREADS) -> tuple[dict, int]:
    """The single cli operation of a batch workload, with its work count."""
    cfg_dir = work / "inputs"
    out = work / "artifacts" / f"{workload}-t{threads}"
    if workload == "ergodic-l2":
        doc = _load(root, "ergodic_default.json")
        doc["params"]["t_values"] = list(ERGODIC_T_VALUES)
        p = doc["params"]
        work_count = p["n_replicas"] * int(round(max(p["t_values"]) / p["dt"]))
        op = _op(workload, "ergodic", _write(cfg_dir / "ergodic.json", doc), seed, out,
                 threads)
    elif workload == "survival-crn":
        doc = _load(root, "survival_default.json")
        doc["params"]["k_values"] = list(SURVIVAL_K_VALUES)
        p = doc["params"]
        n_steps = int(round((p["t"] - p["s"]) / p["dt"]))
        work_count = 2 * len(p["k_values"]) * p["n_paths"] * n_steps
        op = _op(workload, "survival", _write(cfg_dir / "survival.json", doc), seed, out,
                 threads, k_values=list(p["k_values"]))
    elif workload == "qsd-fv":
        doc = _load(root, "qsd_default.json")
        doc["params"]["T"] = QSD_T
        p = doc["params"]
        work_count = p["n_particles"] * int(round(p["T"] / p["dt"]))
        op = _op(workload, "qsd", _write(cfg_dir / "qsd.json", doc), seed, out,
                 n_bins=p.get("n_bins", 80))
    else:
        raise ValueError(f"{workload} is not a batch workload")
    return op, work_count


def sweep_ops(root: Path, seed: int, work: Path, variant: int) -> list[dict]:
    """Seed-generated certificate operations, interleaved by kind.

    Sizes that set an operation's cost (number of k values, the mix of n,
    mesh size, class members) stay fixed; the drawn parameters move only
    the values.
    A run cycles through several variants, so its latency distribution
    covers many draws and depends little on the seed.
    """
    rnd = random.Random(f"sweep-{seed}-{variant}")
    ap = _load(root, "asymptotic_periodicity.json")
    drift = _load(root, "drift_certificate.json")
    minor = _load(root, "minorization.json")
    cfg_dir = work / "inputs"
    ops = []
    for i in range(SWEEP_PER_KIND):
        doc = copy.deepcopy(ap)
        p = doc["params"]
        p["k_values"] = sorted(rnd.sample(range(0, SWEEP_K_MAX + 1),
                                          len(ap["params"]["k_values"])))
        p["n"] = 1 + i % 3  # n sets the cost, so every sweep has the same mix
        p["probe_x"] = round(rnd.uniform(0.25, 2.0), 6)
        ops.append(("ap", doc))

        doc = copy.deepcopy(drift)
        p = doc["params"]
        p["s"] = round(rnd.uniform(0.0, 0.95), 6)
        p["theta"] = round(rnd.uniform(0.4, 0.9), 6)
        p["C"] = round(rnd.uniform(0.8, 2.0), 6)
        p["k_edge"] = round(rnd.uniform(1.5, 3.5), 6)
        ops.append(("drift", doc))

        doc = copy.deepcopy(minor)
        p = doc["params"]
        p["a"] = round(rnd.uniform(1.0, 4.0), 6)
        p["b_minus"] = round(rnd.uniform(0.5, 1.5), 6)
        p["b_plus"] = round(p["b_minus"] * rnd.uniform(1.0, 2.0), 6)
        ops.append(("minorization", doc))
    out = []
    for j, (kind, doc) in enumerate(ops):
        name = f"sweep-v{variant}-{j:03d}-{kind}"
        config = _write(cfg_dir / f"{name}.json", doc)
        out.append(_op(f"certify-sweep/{name}", kind, config, seed,
                       work / "artifacts" / name))
    return out


def malformed_ops(root: Path, seed: int, work: Path) -> list[dict]:
    """One malformed config per class of the documented rejection contract
    (exit 2, naming the field).  Sizes are tiny, so a config that slips
    through still finishes fast.  ``fields`` lists the names a correct
    message may use."""
    rnd = random.Random(seed ^ 0x5EED)
    erg = _load(root, "ergodic_default.json")
    erg["params"].update(n_replicas=8, t_values=[1.0])
    surv = _load(root, "survival_default.json")
    surv["params"].update(n_paths=64, k_values=[0], t=0.5, dt=0.01)
    qsd = _load(root, "qsd_default.json")
    qsd["params"].update(n_particles=16, T=0.5, dt=0.01)
    drift = _load(root, "drift_certificate.json")
    drift["params"]["mesh"]["n_cells"] = 101
    minor = _load(root, "minorization.json")
    minor["params"]["n_members"] = 10

    def with_params(base, **params):
        doc = copy.deepcopy(base)
        doc["params"].update(params)
        return doc

    def with_model(base, **model):
        doc = copy.deepcopy(base)
        doc["model"].update(model)
        return doc

    x_out = round(1.5 + rnd.uniform(0.0, 1.0), 6)
    edge = round(rnd.uniform(-4.0, 4.0), 6)
    cases = [
        ("qsd-T-not-multiple-of-dt",
         with_params(qsd, T=round(0.5 + 0.01 * rnd.uniform(0.2, 0.8), 6)), ["T"]),
        ("boundary-n0-not-integer", with_model(surv, n0="x"), ["n0"]),
        ("survival-x-not-number", with_params(surv, x="abc"), ["x"]),
        ("survival-x-outside-boundary", with_params(surv, x=x_out), ["x"]),
        ("survival-s-after-t",
         with_params(surv, s=round(0.6 + rnd.uniform(0.0, 0.4), 6)), ["s", "t"]),
        ("mesh-n_cells-not-integer",
         with_params(drift, mesh={"x_min": -8.0, "x_max": 8.0, "n_cells": "a"}),
         ["n_cells"]),
        ("mesh-empty",
         with_params(drift, mesh={"x_min": edge, "x_max": edge, "n_cells": 101}),
         ["mesh", "x_min", "x_max"]),
        ("ergodic-t_values-off-grid",
         with_params(erg, t_values=[round(1.0 + 0.01 * rnd.uniform(0.2, 0.8), 6)]),
         ["t_values"]),
        ("minorization-a-nan", with_params(minor, a=math.nan), ["a"]),
        ("qsd-n_bins-zero", with_params(qsd, n_bins=0), ["n_bins"]),
        ("ergodic-initial-uniform",
         with_params(erg, initial={"kind": "uniform"}), ["initial", "kind"]),
    ]
    cfg_dir = work / "inputs"
    ops = []
    for j, (name, doc, fields) in enumerate(cases):
        config = _write(cfg_dir / f"malformed-{j:02d}.json", doc)
        ops.append(_op(f"malformed/{name}", "malformed", config, seed,
                       work / "artifacts" / f"malformed-{j:02d}", fields=fields))
    return ops


def accuracy_ops(root: Path, seed: int, work: Path) -> list[dict]:
    """One asymptotic-periodicity op per TV_PROBE case, checked against the
    closed-form TV like every sweep op."""
    ap = _load(root, "asymptotic_periodicity.json")
    cfg_dir = work / "inputs"
    ops = []
    for j, (n, k, x) in enumerate(TV_PROBE):
        doc = copy.deepcopy(ap)
        doc["params"].update(n=n, k_values=[k], probe_x=x)
        config = _write(cfg_dir / f"accuracy-{j:02d}.json", doc)
        ops.append(_op(f"accuracy/n{n}-k{k}-x{x}", "ap", config, seed,
                       work / "artifacts" / f"accuracy-{j:02d}"))
    return ops
