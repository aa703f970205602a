import ast
import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import apmarkov
from apmarkov import absorbed, ergodic
from apmarkov.absorbed import BoundaryPair
from apmarkov.cli import _write_csv, main
from apmarkov.config import (ConfigError, config_hash, parse_config,
                             serialize_config)
from apmarkov.ou import OUSpec
from apmarkov.timefns import parse_time_function

OU_MODEL = {
    "kind": "ou",
    "lambda": {"expr": "(1 + 0.5*sin(2*pi*t)) * (1 + 0.3*exp(-0.7*t))",
               "lower": 0.5, "upper": 1.95},
    "g": {"expr": "1 + 0.5*sin(2*pi*t)", "lower": 0.5, "upper": 1.5, "period": 1.0},
    "gamma": 1.0,
}

BOUNDARY_MODEL = {
    "kind": "boundary",
    "h": {"expr": "(1 + 0.25*sin(2*pi*t)) / (1 + 0.3*exp(-0.7*t))",
          "lower": 0.57, "upper": 1.25},
    "g": {"expr": "1 + 0.25*sin(2*pi*t)", "lower": 0.75, "upper": 1.25,
          "period": 1.0},
    "gamma": 1.0,
    "n0": 1,
}


def ergodic_doc(**params):
    base = {"observable": "one", "t_values": [1.0, 2.0], "n_replicas": 4,
            "dt": 0.01}
    base.update(params)
    return {"experiment": "ergodic", "seed": 7, "model": OU_MODEL, "params": base}


def write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# -- parsing and validation -----------------------------------------------------

def test_parse_and_round_trip():
    cfg = parse_config(ergodic_doc())
    again = parse_config(serialize_config(cfg))
    assert serialize_config(cfg) == serialize_config(again)
    assert config_hash(cfg) == config_hash(again)


def test_unknown_top_level_key_rejected():
    doc = ergodic_doc()
    doc["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(doc)


def test_unknown_param_key_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(ergodic_doc(bogus=3))


def test_negative_dt_names_field():
    with pytest.raises(ConfigError, match="params.dt"):
        parse_config(ergodic_doc(dt=-0.01))


def test_bad_observable_rejected():
    with pytest.raises(ConfigError, match="observable"):
        parse_config(ergodic_doc(observable="nope"))


def test_bad_expression_names_field():
    doc = ergodic_doc()
    doc["model"] = dict(OU_MODEL, g={"expr": "sin(", "period": 1.0})
    with pytest.raises(ConfigError, match="model.g.expr"):
        parse_config(doc)


def test_model_invariants_checked():
    doc = ergodic_doc()
    # g without a declared period fails the model validation
    doc["model"] = dict(OU_MODEL, g={"expr": "1 + 0.5*sin(2*pi*t)",
                                     "lower": 0.5, "upper": 1.5})
    with pytest.raises(ConfigError, match="period"):
        parse_config(doc)


def test_experiment_model_kind_mismatch():
    doc = ergodic_doc()
    doc["model"] = BOUNDARY_MODEL
    with pytest.raises(ConfigError, match="ou model"):
        parse_config(doc)


def test_minorization_needs_no_model():
    cfg = parse_config({"experiment": "minorization", "seed": 1,
                        "params": {"a": 0.0, "b_minus": 1.0, "b_plus": 2.0}})
    assert cfg.model() is None


def test_seed_and_threads_validation():
    doc = ergodic_doc()
    doc["seed"] = -1
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)
    doc["seed"] = 1
    doc["threads"] = 0
    with pytest.raises(ConfigError, match="threads"):
        parse_config(doc)


# -- CLI ----------------------------------------------------------------------

def test_cli_minimal_ergodic_run(tmp_path, capsys):
    cfg = write(tmp_path, ergodic_doc())
    out = tmp_path / "out"
    assert main(["ergodic", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "t,mean_avg,l2_err,var,stderr"
    # constant observable: zero L2 error at machine precision
    for line in report[1:]:
        assert float(line.split(",")[2]) <= 1e-24
    manifest = json.loads((out / "manifest.jsonl").read_text())
    assert manifest["experiment"] == "ergodic"
    assert set(manifest["versions"]) == {"apmarkov", "numpy", "python"}


def run_fresh(*args, check=True):
    """Run the interpreter with apmarkov's source first on its path."""
    src = str(Path(apmarkov.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=check)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so the modules the test session loaded do not count
    code = ("import apmarkov.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh("-c", code).stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures is imported only by an ergodic run that uses the pool
    code = "import apmarkov.cli, sys; print('concurrent.futures' in sys.modules)"
    assert run_fresh("-c", code).stdout.strip() == "False"


@pytest.mark.parametrize("case", ["out-is-a-file", "out-below-a-file",
                                  "artifact-is-a-directory"])
def test_cli_unusable_out_exit_2(tmp_path, case):
    out = tmp_path / "out"
    if case == "artifact-is-a-directory":
        (out / "certificates.jsonl").mkdir(parents=True)
    else:
        out.write_text("")
        if case == "out-below-a-file":
            out = out / "sub"
    res = run_fresh("-m", "apmarkov.cli", "run", "--config",
                    str(CONFIGS / "drift_certificate.json"), "--out", str(out), check=False)
    assert res.returncode == 2
    assert "--out" in res.stderr
    assert "Traceback" not in res.stderr


def test_library_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(Path(apmarkov.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_library_imports_are_used_and_all_names_are_defined():
    for path in sorted(Path(apmarkov.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.name != "__init__.py":  # there, the imports are the package's exports
            assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"
        defined, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined |= names
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        assert set(exported) <= defined, \
            f"{path.name} __all__ names undefined {sorted(set(exported) - defined)}"


def test_cli_validation_failure_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, ergodic_doc(dt=-1.0))
    assert main(["ergodic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "params.dt" in capsys.readouterr().err


def test_cli_subcommand_mismatch_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, ergodic_doc())
    assert main(["qsd", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path, ergodic_doc(observable="x2"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.jsonl").read_text())
    m2 = json.loads((out2 / "manifest.jsonl").read_text())
    for m in (m1, m2):  # the fields that describe the run, not its results
        for key in ("timestamp", "timings", "peak_rss_mb"):
            m.pop(key)
    assert m1 == m2


def test_cli_manifest_schema(tmp_path):
    cfg = write(tmp_path, ergodic_doc(observable="x2"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 2  # one record appended per run
    for record in map(json.loads, lines):
        assert set(record) == {"config_hash", "experiment", "seed", "config", "artifacts",
                               "versions", "timestamp", "timings", "peak_rss_mb"}
        assert record["artifacts"] == ["report.csv", "summary.json"]
        assert set(record["timings"]) == {"load", "run", "write"}
        assert all(isinstance(v, float) and 0.0 <= v < 60.0
                   for v in record["timings"].values())
        # ru_maxrss of this process, in kilobytes on Linux: at least the interpreter
        assert isinstance(record["peak_rss_mb"], float) and record["peak_rss_mb"] > 1.0


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path, ergodic_doc(observable="x2"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2),
                 "--seed", "99"]) == 0
    assert (out1 / "report.csv").read_bytes() != (out2 / "report.csv").read_bytes()
    assert json.loads((out2 / "manifest.jsonl").read_text())["seed"] == 99


def test_cli_survival_with_k_list_override(tmp_path):
    doc = {"experiment": "survival", "seed": 5, "model": BOUNDARY_MODEL,
           "params": {"s": 0.0, "t": 0.3, "x": 0.0, "k_values": [0],
                      "n_paths": 200, "dt": 0.01}}
    cfg = write(tmp_path, doc)
    out = tmp_path / "sv"
    assert main(["survival", "--config", str(cfg), "--out", str(out),
                 "--k-list", "0,2"]) == 0
    lines = (out / "survival.csv").read_text().splitlines()
    assert lines[0] == "k,gap,stderr,sandwich_prob"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "2"]


def test_cli_validates_the_model_once(tmp_path, monkeypatch):
    calls = []
    validate = BoundaryPair.validate

    def counted(self, *args, **kwargs):
        calls.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(BoundaryPair, "validate", counted)
    doc = {"experiment": "survival", "seed": 5, "model": BOUNDARY_MODEL,
           "params": {"s": 0.0, "t": 0.3, "x": 0.0, "k_values": [0],
                      "n_paths": 50, "dt": 0.01}}
    cfg = write(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "sv")]) == 0
    assert len(calls) == 1


def test_reciprocal_at_zero_is_inf_and_rejected_by_bounds(tmp_path, capsys):
    doc = ergodic_doc()
    doc["model"] = dict(OU_MODEL, **{"lambda": {"expr": "1/t", "lower": 0.5, "upper": 2}})
    cfg = write(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_time_function("1/t")(0.0) == math.inf
        assert main(["ergodic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "bounds" in capsys.readouterr().err


def test_negative_power_at_zero_is_inf_and_rejected_by_bounds(tmp_path, capsys):
    doc = ergodic_doc()
    doc["model"] = dict(OU_MODEL, **{"lambda": {"expr": "t^-1", "lower": 0.5, "upper": 2}})
    cfg = write(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_time_function("t^-1")(0.0) == math.inf
        assert parse_time_function("t^-1")(np.array([0.0, 2.0])).tolist() == [math.inf, 0.5]
        assert main(["ergodic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "bounds" in capsys.readouterr().err


def test_cli_minorization_rejects_a_model(tmp_path, capsys):
    doc = {"experiment": "minorization", "seed": 1, "model": {"kind": "junk", "x": 1},
           "params": {"a": 1.0, "b_minus": 1.0, "b_plus": 2.0}}
    cfg = write(tmp_path, doc)
    assert main(["minorization", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "model" in capsys.readouterr().err


def test_cli_ergodic_report_is_thread_count_invariant(tmp_path, monkeypatch):
    # 300 steps per replica under a cap of 1000 replica-steps: 2 batches of 3
    monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", 1000)
    cfg = write(tmp_path, ergodic_doc(observable="x2", t_values=[1.0, 3.0], n_replicas=6))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert main(["ergodic", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("c", [300, 3000])
def test_cli_ergodic_drift_past_float_range_exits_3(tmp_path, capsys, c):
    # lambda = (1 + 0.5 sin 2 pi t)(1 + c e^{-0.7t}) integrates to about 3850 over
    # the first 256-step window at c = 3000, so the window's prefix product of
    # m = exp(-int lambda) falls below the least normal float, e^-708; at c = 300
    # the integral is about 387
    lam = {"expr": f"(1 + 0.5*sin(2*pi*t)) * (1 + {c}*exp(-0.7*t))",
           "lower": 0.5, "upper": 1.5 * (1 + c)}
    doc = ergodic_doc(observable="x2", t_values=[1.0, 10.0], n_replicas=8)
    doc["model"] = dict(OU_MODEL, **{"lambda": lam})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ergodic", "--config", str(write(tmp_path, doc)), "--out", str(out)])
    if c == 3000:
        assert code == 3 and not (out / "report.csv").exists()
        assert "window at t=0 leaves float range" in capsys.readouterr().err
    else:
        assert code == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_cli_threads_override_is_validated(tmp_path, capsys, threads):
    from pathlib import Path
    cfg = Path(__file__).resolve().parent.parent / "configs" / "ergodic_default.json"
    out = tmp_path / "out"
    assert main(["ergodic", "--config", str(cfg), "--out", str(out),
                 "--threads", threads]) == 2
    assert "threads" in capsys.readouterr().err
    assert not (out / "manifest.jsonl").exists()


def test_cli_minorization_nan_a_exit_2(tmp_path, capsys):
    doc = {"experiment": "minorization", "seed": 1,
           "params": {"a": math.nan, "b_minus": 1.0, "b_plus": 2.0}}
    cfg = write(tmp_path, doc)
    assert main(["minorization", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "params.a" in capsys.readouterr().err


def test_cli_minorization_deep_in_the_tail_exits_0(tmp_path):
    # c is about 2.8e-17 here; nu must still have mass on the default mesh
    doc = {"experiment": "minorization", "seed": 1,
           "params": {"a": 3.0, "b_minus": 0.36, "b_plus": 1.0}}
    cfg = write(tmp_path, doc)
    assert main(["minorization", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "certificates.jsonl").read_text())["n_violations"] == 0


def test_cli_bad_k_list_exit_2(tmp_path, capsys):
    doc = {"experiment": "survival", "seed": 5, "model": BOUNDARY_MODEL,
           "params": {"s": 0.0, "t": 0.3, "x": 0.0, "k_values": [0],
                      "n_paths": 50, "dt": 0.01}}
    cfg = write(tmp_path, doc)
    assert main(["survival", "--config", str(cfg), "--out", str(tmp_path),
                 "--k-list", "0,x"]) == 2
    # an override goes through the config's own checks
    assert main(["survival", "--config", str(cfg), "--out", str(tmp_path),
                 "--k-list=-3,0"]) == 2
    assert "params.k_values" in capsys.readouterr().err


def test_cli_ergodic_t_values_off_dt_grid_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, ergodic_doc(t_values=[1.0, 1.005], dt=0.01))
    assert main(["ergodic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "params.t_values" in capsys.readouterr().err


def test_cli_qsd_zero_bins_exit_2(tmp_path, capsys):
    doc = {"experiment": "qsd", "seed": 3, "model": BOUNDARY_MODEL,
           "params": {"n_particles": 10, "T": 0.1, "dt": 0.01, "n_bins": 0}}
    cfg = write(tmp_path, doc)
    assert main(["qsd", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "params.n_bins" in capsys.readouterr().err


def _survival_doc(**params):
    base = {"s": 0.0, "t": 0.3, "x": 0.0, "k_values": [0], "n_paths": 50, "dt": 0.01}
    base.update(params)
    return {"experiment": "survival", "seed": 5, "model": BOUNDARY_MODEL, "params": base}


def _drift_doc(**mesh):
    return {"experiment": "drift", "seed": 1, "model": OU_MODEL,
            "params": {"s": 0.0, "t1": 1.0, "theta": 0.6, "C": 1.3, "k_edge": 2.5,
                       "mesh": dict({"x_min": -8.0, "x_max": 8.0, "n_cells": 11}, **mesh)}}


@pytest.mark.parametrize("doc, field", [
    (ergodic_doc(t_values=[1.0, 10 ** 400]), "params.t_values"),  # too large for a float
    (_survival_doc(x="abc"), "params.x"),
    (dict(_survival_doc(), model=dict(BOUNDARY_MODEL, n0="x")), "model.n0"),
    (_drift_doc(n_cells="a"), "params.mesh.n_cells"),
], ids=["ergodic-huge-int-t", "survival-x-string", "boundary-n0-string",
        "mesh-n_cells-string"])
def test_cli_non_finite_or_non_numeric_field_exit_2(tmp_path, capsys, doc, field):
    cfg = write(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and field in err


def _qsd_doc(**params):
    base = {"n_particles": 10, "T": 0.1, "dt": 0.01}
    base.update(params)
    return {"experiment": "qsd", "seed": 3, "model": BOUNDARY_MODEL, "params": base}


def _ap_doc(**params):
    base = {"s": 0.0, "n": 1, "k_values": [0, 2]}
    base.update(params)
    return {"experiment": "asymptotic-periodicity", "seed": 1, "model": OU_MODEL,
            "params": base}


# the boundary models' h at time 0, where every start point must lie inside
H0 = 1.0 / 1.3


@pytest.mark.parametrize("doc, field", [
    # once a library ValueError, escaping as a traceback
    (_qsd_doc(T=0.105), "params.T"),
    (_survival_doc(x=1.9), "params.x"),
    (_survival_doc(s=0.5), "params.s"),
    (_survival_doc(t=0.305), "params.t"),
    (_qsd_doc(initial={"kind": "point", "x": 5}), "params.initial.x"),
    (_qsd_doc(burn_in=0.1), "params.burn_in"),
    (_qsd_doc(n_particles=1), "params.n_particles"),
    (_ap_doc(s=1.0), "params.s"),
    # once run, but not as written
    (_qsd_doc(initial={"kind": "normal", "mean": 0.5}), "params.initial.kind"),
    (ergodic_doc(use_auxiliary="false"), "params.use_auxiliary"),
    (_qsd_doc(initial={"kind": "uniform", "x": 0.3}), "params.initial"),
    (ergodic_doc(initial={"kind": "point", "mean": 1.0}), "params.initial"),
    (ergodic_doc(initial={"kind": "normal", "sd": -1.0}), "params.initial.sd"),
    (_qsd_doc(burn_in=-0.05), "params.burn_in"),
    # the start point is checked against h and g at every s + k gamma
    (_survival_doc(x=H0), "params.x"),
    (_survival_doc(x=0.8, k_values=[2, 0]), "params.x"),
    # once exit 2 from the run, now from the schema
    (ergodic_doc(initial={"kind": "uniform"}), "params.initial.kind"),
], ids=["qsd-T-off-grid", "survival-x-outside", "survival-s-after-t",
        "survival-t-minus-s-off-grid", "qsd-point-outside", "qsd-burn-in-past-T",
        "qsd-one-particle", "ap-s-past-gamma", "qsd-normal-initial",
        "ergodic-string-use-auxiliary", "qsd-uniform-with-x", "ergodic-point-with-mean",
        "ergodic-negative-sd", "qsd-negative-burn-in", "survival-x-on-boundary",
        "survival-x-outside-at-k0-only", "ergodic-uniform-initial"])
def test_cli_config_the_library_cannot_run_exit_2(tmp_path, capsys, doc, field):
    cfg = write(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and field in err
    assert not (out / "manifest.jsonl").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_cli_seed_override_is_validated(tmp_path, capsys, seed):
    # minorization keys Philox on the seed itself (-1 was a key error); the rng keys on 64 bits
    doc = {"experiment": "minorization", "seed": 1,
           "params": {"a": 1.0, "b_minus": 1.0, "b_plus": 2.0, "n_members": 10}}
    cfg = write(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seed", seed]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_k_list_override_rechecks_the_start_point(tmp_path, capsys):
    # x = 0.8 lies inside h(2) ~ 0.93 but outside h(0) ~ 0.77
    cfg = write(tmp_path, _survival_doc(x=0.8, k_values=[2]))
    assert main(["survival", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["survival", "--config", str(cfg), "--out", str(tmp_path / "b"),
                 "--k-list", "0,2"]) == 2
    assert "params.x" in capsys.readouterr().err


def test_cli_runs_every_initial_kind_each_experiment_takes(tmp_path):
    for doc in (ergodic_doc(initial={"kind": "normal", "mean": 0.5, "sd": 0.0}),
                ergodic_doc(use_auxiliary=True),
                _qsd_doc(initial={"kind": "uniform"}, burn_in=0.05),
                _qsd_doc(initial={"kind": "point", "x": 0.5}, boundary="g")):
        cfg = write(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


_MINORIZATION_DOC = {"experiment": "minorization", "seed": 2,
                     "params": {"a": 0.5, "b_minus": 1.0, "b_plus": 2.0, "n_members": 20,
                                "mesh": {"x_min": -6.0, "x_max": 6.0, "n_cells": 41}}}


@pytest.mark.parametrize("doc", [
    ergodic_doc(observable="x2", t_values=[1.0, 2.0], n_replicas=6), _drift_doc(),
    _MINORIZATION_DOC, _qsd_doc(n_particles=20), _survival_doc(k_values=[0, 1]),
    _ap_doc(),
], ids=lambda doc: doc["experiment"])
def test_cli_artifacts_do_not_depend_on_threads_or_batches(tmp_path, monkeypatch, doc):
    # 200 steps per replica under a cap of 400 replica-steps: 3 batches of 2
    monkeypatch.setattr(ergodic, "_MAX_BATCH_ELEMS", 400)
    cfg = write(tmp_path, doc)

    def artifacts(name, *flags):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out), *flags]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.jsonl"}

    serial = artifacts("threads1", "--threads", "1")
    assert serial and artifacts("threads3", "--threads", "3") == serial
    _assert_recorded("tiny", doc["experiment"], serial)
    if doc["experiment"] == "survival":  # 30 steps a path, 16 paths a batch
        monkeypatch.setattr(absorbed, "_MAX_BATCH_ELEMS", 16 * 30)
        assert len(absorbed._batches(doc["params"]["n_paths"], 30)) >= 3
        assert artifacts("batched") == serial


RECORD = json.loads((Path(__file__).parent / "artifact_hashes.json").read_text())
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _assert_recorded(group, name, artifacts):
    """The sha256 of each artifact (file name -> bytes) equals the record's.
    The record holds for its numpy, Python and C library (libm's erf and erfc)
    versions only, so another version fails here, by name, rather than pass or
    skip unchecked."""
    for lib, version in (("numpy", np.__version__), ("python", platform.python_version()),
                         ("libc", " ".join(platform.libc_ver()))):
        assert version == RECORD[lib], (f"{lib} {version} is not the {lib} {RECORD[lib]} of "
                                        "tests/artifact_hashes.json: check the bytes again")
    got = {f: hashlib.sha256(b).hexdigest() for f, b in sorted(artifacts.items())}
    assert got == RECORD[group][name], f"{group} {name} artifacts moved: {got}"


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_shipped_config_artifacts_equal_the_record(tmp_path, name):
    assert main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)]) == 0
    _assert_recorded("shipped", name, {p.name: p.read_bytes() for p in tmp_path.iterdir()
                                       if p.name != "manifest.jsonl"})


def _deep_ap_doc(n_terms):
    # 1 + 0*t + ... + 0*t: a left-leaning sum n_terms deep, equal to 1
    model = dict(OU_MODEL, **{"lambda": {"expr": "1" + " + 0*t" * n_terms,
                                         "lower": 0.5, "upper": 1.5}})
    return dict(_ap_doc(k_values=[0]), model=model)


def test_cli_deep_expression_runs_or_exits_2(tmp_path, capsys):
    # wherever Python's recursion limit falls, a deep expression either runs or
    # is a configuration error naming the expression; it never escapes
    assert main(["run", "--config", str(write(tmp_path, _deep_ap_doc(400))),
                 "--out", str(tmp_path / "out")]) == 0
    codes = set()
    for n_terms in range(900, 1101):
        cfg = write(tmp_path, _deep_ap_doc(n_terms))
        codes.add(main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]))
    assert codes <= {0, 2} and 2 in codes
    assert "model" in capsys.readouterr().err


def test_cli_deep_expression_exit_2_without_traceback(tmp_path):
    cfg = write(tmp_path, _deep_ap_doc(5000))
    src = str(Path(apmarkov.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "apmarkov.cli", "run", "--config", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 2
    assert "configuration error: model.lambda.expr" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("model, key", [(OU_MODEL, "lambda"), (OU_MODEL, "g"),
                                        (BOUNDARY_MODEL, "h"), (BOUNDARY_MODEL, "g")])
def test_expression_too_deep_to_evaluate_names_its_field(monkeypatch, model, key):
    # validation run 60 frames deeper than the reader, so that some
    # expressions the reader walks are too deep for validation to evaluate
    # (as in a CLI run, where it depends on the frames above each); the
    # error names the time function's field, not the model
    cls = OUSpec if model is OU_MODEL else BoundaryPair
    validate = cls.validate

    def deeper(self, frames=60):
        return deeper(self, frames - 1) if frames else validate(self)

    monkeypatch.setattr(cls, "validate", deeper)
    deep = []
    for n_terms in range(900, 1101, 10):
        fn = dict(model[key], expr=str(model[key]["upper"]) + " + 0*t" * n_terms)
        doc = dict(ergodic_doc() if model is OU_MODEL else _qsd_doc(),
                   model=dict(model, **{key: fn}))
        try:
            parse_config(doc)
        except ConfigError as exc:
            deep += [str(exc)] if "too deep to evaluate" in str(exc) else []
    assert deep and all(m.startswith(f"model.{key}.expr: ") for m in deep)


@pytest.mark.parametrize("expr", [5, 1.5, None, ["t"], {"t": 1}])
def test_cli_non_string_expression_exit_2(tmp_path, capsys, expr):
    doc = dict(_ap_doc(), model=dict(OU_MODEL, **{"lambda": dict(OU_MODEL["lambda"],
                                                                 expr=expr)}))
    assert main(["run", "--config", str(write(tmp_path, doc)),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: model.lambda.expr must be a string, "
                          f"got {expr!r}")


def test_cli_integer_past_the_digit_limit_exit_2(tmp_path, capsys):
    # json refuses to convert an integer literal of more than 4300 digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ergodic_doc()).replace('"seed": 7', '"seed": 1' + "0" * 5000))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_cli_ergodic_long_period_limit_is_finite(tmp_path):
    # gamma = 400 puts exp(800) inside the limit's profile; it must not overflow
    model = {"kind": "ou", "lambda": {"expr": "1", "lower": 1.0, "upper": 1.0},
             "g": {"expr": "1", "lower": 1.0, "upper": 1.0, "period": 400.0},
             "gamma": 400.0}
    doc = {"experiment": "ergodic", "seed": 7, "model": model,
           "params": {"observable": "x2", "t_values": [1.0, 2.0], "n_replicas": 4,
                      "dt": 0.01}}
    cfg = write(tmp_path, doc)
    assert main(["ergodic", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(math.isfinite(float(row.split(",")[2])) for row in rows)
    limit = json.loads((tmp_path / "summary.json").read_text())["limit"]
    assert abs(limit - 0.5) <= 5e-3


def test_cli_qsd_emits_normalized_occupation(tmp_path):
    doc = {"experiment": "qsd", "seed": 3, "model": BOUNDARY_MODEL,
           "params": {"n_particles": 100, "T": 2.0, "dt": 0.002, "n_bins": 20}}
    cfg = write(tmp_path, doc)
    out = tmp_path / "q"
    assert main(["qsd", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "occ.csv").read_text().splitlines()
    assert lines[0] == "bin_center,mass"
    total = sum(float(ln.split(",")[1]) for ln in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cli_numeric_failure_exit_3(tmp_path, capsys):
    # boundary so tight that every particle dies in the first huge step
    doc = {"experiment": "qsd", "seed": 0,
           "model": {"kind": "boundary",
                     "h": {"expr": "0.01", "lower": 0.01, "upper": 0.01},
                     "g": {"expr": "0.011 + 0.0*sin(2*pi*t)", "lower": 0.011,
                           "upper": 0.011, "period": 1.0},
                     "gamma": 1.0},
           "params": {"n_particles": 2, "T": 2.0, "dt": 1.0}}
    cfg = write(tmp_path, doc)
    code = main(["qsd", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_cli_minorization_mesh_without_nu_mass_exit_3(tmp_path, capsys):
    # f = exp(-(|x| + 3)^2 / 2) is below the least double on [40, 42]: no cell has mass
    doc = {"experiment": "minorization", "seed": 1,
           "params": {"a": 3.0, "b_minus": 1.0, "b_plus": 2.0, "n_members": 10,
                      "mesh": {"x_min": 40.0, "x_max": 42.0, "n_cells": 101}}}
    cfg = write(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "no mass on the mesh" in capsys.readouterr().err


def test_cli_drift_certificate_artifact(tmp_path):
    doc = {"experiment": "drift", "seed": 2, "model": OU_MODEL,
           "params": {"s": 0.0, "t1": 1.0, "theta": 0.6, "C": 1.3,
                      "k_edge": 2.5,
                      "mesh": {"x_min": -8.0, "x_max": 8.0, "n_cells": 801}}}
    cfg = write(tmp_path, doc)
    out = tmp_path / "d"
    assert main(["drift", "--config", str(cfg), "--out", str(out)]) == 0
    cert = json.loads((out / "certificates.jsonl").read_text())
    assert cert["kind"] == "drift"
    assert cert["valid"] is True


def test_cli_minorization_artifacts(tmp_path):
    doc = {"experiment": "minorization", "seed": 2,
           "params": {"a": 0.0, "b_minus": 1.0, "b_plus": 2.0,
                      "n_members": 50}}
    cfg = write(tmp_path, doc)
    out = tmp_path / "m"
    assert main(["minorization", "--config", str(cfg), "--out", str(out)]) == 0
    cert = json.loads((out / "certificates.jsonl").read_text())
    assert cert["c"] == pytest.approx(0.5, rel=1e-9)
    lines = (out / "nu.csv").read_text().splitlines()
    assert lines[0] == "cell_center,weight"


def test_cli_shipped_default_ergodic_config(tmp_path):
    # the packaged default config: final mean within 3 SE of the computed limit
    from pathlib import Path
    cfg = Path(__file__).resolve().parent.parent / "configs" / "ergodic_default.json"
    out = tmp_path / "full"
    assert main(["ergodic", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in
            (out / "report.csv").read_text().splitlines()[1:]]
    final = rows[-1]
    limit = json.loads((out / "summary.json").read_text())["limit"]
    assert abs(float(final[1]) - limit) <= 3.0 * float(final[4])


def test_cli_asymptotic_periodicity_artifact(tmp_path):
    doc = {"experiment": "asymptotic-periodicity", "seed": 1, "model": OU_MODEL,
           "params": {"s": 0.0, "n": 1, "k_values": [0, 2, 4], "probe_x": 1.0}}
    cfg = write(tmp_path, doc)
    out = tmp_path / "p"
    assert main(["asymptotic-periodicity", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = (out / "periodicity.csv").read_text().splitlines()
    assert lines[0] == "k,n,s,tv"
    tvs = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert tvs[0] > tvs[-1]


def _csv_writer_bytes(path, header, rows):
    # reference: csv.writer, given ints (bools too) as they are and every
    # other cell as repr(float(c))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, int) else repr(float(c)) for c in row])
    return path.read_bytes()


@pytest.mark.parametrize("rows", [
    [],
    [(0, True, -0.0, math.nan), (-3, False, math.inf, -math.inf),
     (2 ** 70, True, 1e-05, 1e16), (7, False, 5e-324, -5e-324)],
    [(np.float64(-0.0), np.float64(1e-05), np.float32(0.1), np.int64(3)),
     (np.float64(math.nan), np.float64(1e16), np.float32(-2.5), np.int64(-4))],
    [(10, 0.5, np.float64(0.25), 1), (100.5, 2, np.float64(5e-324), 1.0),
     (np.float64(1000.0), -0.0, 7, True)],
    list(zip(np.linspace(-8.0, 8.0, 2001).tolist(),
             np.random.default_rng(0).random(2001).tolist())),
])
def test_csv_bytes_equal_csv_writer(tmp_path, rows):
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 3)]
    _write_csv(tmp_path / "new.csv", header, rows)
    expected = _csv_writer_bytes(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == expected
