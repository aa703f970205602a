import json
import math
import warnings

import numpy as np
import pytest

from apmarkov import ergodic
from apmarkov.absorbed import BoundaryPair
from apmarkov.cli import main
from apmarkov.config import (ConfigError, config_hash, parse_config,
                             serialize_config)
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
    assert set(manifest["versions"]) == {"apmarkov", "numpy", "scipy", "python"}


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
    m1.pop("timestamp")
    m2.pop("timestamp")
    assert m1 == m2


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


def test_cli_bad_k_list_exit_2(tmp_path, capsys):
    doc = {"experiment": "survival", "seed": 5, "model": BOUNDARY_MODEL,
           "params": {"s": 0.0, "t": 0.3, "x": 0.0, "k_values": [0],
                      "n_paths": 50, "dt": 0.01}}
    cfg = write(tmp_path, doc)
    assert main(["survival", "--config", str(cfg), "--out", str(tmp_path),
                 "--k-list", "0,x"]) == 2


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
