"""Experiment configuration: one JSON grammar, strictly validated.

A config document selects an experiment kind, a model (drift pair or
boundary pair, with time functions as expression strings), the numeric
parameters of that experiment, and a seed.  Unknown keys are rejected
everywhere; all diagnostics name the offending field.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

import numpy as np

from .absorbed import BoundaryPair
from .ou import OUSpec
from .paths import Observable
from .timefns import TimeFunction, parse_time_function

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config",
           "serialize_config", "config_hash", "OBSERVABLES", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = ("ergodic", "drift", "minorization", "qsd", "survival",
                    "asymptotic-periodicity")

OBSERVABLES: Dict[str, Observable] = {
    "one": Observable("one", lambda x: np.ones_like(x), bound=1.0),
    "x": Observable("x", lambda x: x),
    "x2": Observable("x2", lambda x: x * x),
    "abs": Observable("abs", np.abs),
    "cos": Observable("cos", np.cos, bound=1.0),
}


class ConfigError(ValueError):
    """Invalid configuration; message names the field."""


def _require_keys(obj: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _positive(obj: dict, where: str, key: str, integer: bool = False) -> float:
    v = obj[key]
    if integer and not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be a positive integer, got {v!r}")
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not v > 0:
        raise ConfigError(f"{where}.{key} must be > 0, got {v!r}")
    return v


def _parse_timefn(obj: Any, where: str) -> TimeFunction:
    _require_keys(obj, where, ("expr",), ("lower", "upper", "period"))
    try:
        return parse_time_function(
            obj["expr"],
            lower=float(obj.get("lower", -math.inf)),
            upper=float(obj.get("upper", math.inf)),
            period=obj.get("period"),
        )
    except Exception as exc:
        raise ConfigError(f"{where}.expr: {exc}") from exc


def _parse_model(obj: Any):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("model must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "ou":
        _require_keys(obj, "model", ("kind", "lambda", "g", "gamma"))
        spec = OUSpec(lam=_parse_timefn(obj["lambda"], "model.lambda"),
                      g=_parse_timefn(obj["g"], "model.g"),
                      gamma=_positive(obj, "model", "gamma"))
        try:
            spec.validate()
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
        return spec
    if kind == "boundary":
        _require_keys(obj, "model", ("kind", "h", "g", "gamma"), ("n0",))
        pair = BoundaryPair(h=_parse_timefn(obj["h"], "model.h"),
                            g=_parse_timefn(obj["g"], "model.g"),
                            gamma=_positive(obj, "model", "gamma"),
                            n0=int(obj.get("n0", 1)))
        try:
            pair.validate()
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
        return pair
    raise ConfigError(f"model.kind must be 'ou' or 'boundary', got {kind!r}")


_PARAM_SCHEMAS = {
    # kind: (required, optional)
    "ergodic": (("observable", "t_values", "n_replicas", "dt"),
                ("initial", "use_auxiliary")),
    "drift": (("s", "t1", "theta", "C", "k_edge"), ("mesh", "use_auxiliary")),
    "minorization": (("a", "b_minus", "b_plus"), ("n_members", "mesh")),
    "qsd": (("n_particles", "T", "dt"), ("n_bins", "initial", "burn_in", "boundary")),
    "survival": (("s", "t", "x", "k_values", "n_paths", "dt"), ()),
    "asymptotic-periodicity": (("s", "n", "k_values"), ("probe_x",)),
}


def _check_params(kind: str, params: dict) -> dict:
    where = "params"
    required, optional = _PARAM_SCHEMAS[kind]
    _require_keys(params, where, required, optional)
    if kind == "ergodic":
        if params["observable"] not in OBSERVABLES:
            raise ConfigError(f"{where}.observable must be one of "
                              f"{sorted(OBSERVABLES)}, got {params['observable']!r}")
        tv = params["t_values"]
        if (not isinstance(tv, list) or not tv
                or any(not isinstance(v, (int, float)) or v <= 0 for v in tv)):
            raise ConfigError(f"{where}.t_values must be a non-empty list of positive times")
        _positive(params, where, "n_replicas", integer=True)
        dt = _positive(params, where, "dt")
        for t in tv:  # the tolerance ergodic._checkpoint_steps applies
            k = round(t / dt) if math.isfinite(t / dt) else 0
            if k < 1 or abs(k * dt - t) > 1e-9 * max(1.0, t):
                raise ConfigError(f"{where}.t_values: {t!r} is not a positive multiple "
                                  f"of {where}.dt={dt!r}")
    elif kind == "drift":
        for key in ("t1", "C", "k_edge"):
            _positive(params, where, key)
        if not (0.0 < params["theta"] < 1.0):
            raise ConfigError(f"{where}.theta must lie in (0,1), got {params['theta']!r}")
        if not isinstance(params["s"], (int, float)) or params["s"] < 0:
            raise ConfigError(f"{where}.s must be >= 0, got {params['s']!r}")
    elif kind == "minorization":
        if not isinstance(params["a"], (int, float)) or not params["a"] >= 0:
            raise ConfigError(f"{where}.a must be >= 0, got {params['a']!r}")
        _positive(params, where, "b_minus")
        _positive(params, where, "b_plus")
        if params["b_minus"] > params["b_plus"]:
            raise ConfigError(f"{where}: need b_minus <= b_plus")
    elif kind == "qsd":
        _positive(params, where, "n_particles", integer=True)
        _positive(params, where, "T")
        _positive(params, where, "dt")
        if "n_bins" in params:
            _positive(params, where, "n_bins", integer=True)
        if params.get("boundary", "h") not in ("h", "g"):
            raise ConfigError(f"{where}.boundary must be 'h' or 'g'")
    elif kind == "survival":
        _positive(params, where, "n_paths", integer=True)
        _positive(params, where, "dt")
        ks = params["k_values"]
        if not isinstance(ks, list) or any(not isinstance(k, int) or k < 0 for k in ks):
            raise ConfigError(f"{where}.k_values must be a list of non-negative integers")
    elif kind == "asymptotic-periodicity":
        _positive(params, where, "n", integer=True)
        ks = params["k_values"]
        if not isinstance(ks, list) or any(not isinstance(k, int) or k < 0 for k in ks):
            raise ConfigError(f"{where}.k_values must be a list of non-negative integers")
    if "mesh" in params and params["mesh"] is not None:
        _require_keys(params["mesh"], f"{where}.mesh", ("x_min", "x_max", "n_cells"))
    if "initial" in params and params["initial"] is not None:
        init = params["initial"]
        _require_keys(init, f"{where}.initial", ("kind",), ("x", "mean", "sd"))
        if init["kind"] not in ("point", "normal", "uniform"):
            raise ConfigError(f"{where}.initial.kind must be point|normal|uniform")
    return params


def _check_threads(threads: Any) -> int:
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    return threads


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    model_raw: dict
    params: dict
    out: Optional[str] = None
    threads: int = 1
    # the OUSpec or BoundaryPair parse_config built and validated from model_raw
    parsed_model: Any = field(default=None, compare=False, repr=False)

    def model(self):
        return self.parsed_model

    def with_overrides(self, seed: Optional[int] = None,
                       threads: Optional[int] = None,
                       params: Optional[dict] = None) -> "ExperimentConfig":
        return replace(self,
                       seed=self.seed if seed is None else seed,
                       threads=self.threads if threads is None else _check_threads(threads),
                       params={**self.params, **(params or {})})


def parse_config(doc: Any) -> ExperimentConfig:
    _require_keys(doc, "config", ("experiment", "seed", "params"),
                  ("model", "out", "threads"))
    kind = doc["experiment"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    if not isinstance(doc["seed"], int) or isinstance(doc["seed"], bool) or doc["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {doc['seed']!r}")
    threads = _check_threads(doc.get("threads", 1))
    model_raw = doc.get("model")
    if kind == "minorization":
        if "model" in doc:  # the Gaussian-class certificate takes no model
            raise ConfigError("model: experiment 'minorization' takes no model")
        model = None
    else:
        if model_raw is None:
            raise ConfigError(f"experiment {kind!r} needs a model")
        model = _parse_model(model_raw)
        wants_boundary = kind in ("qsd", "survival")
        if wants_boundary and not isinstance(model, BoundaryPair):
            raise ConfigError(f"experiment {kind!r} needs a boundary model")
        if not wants_boundary and not isinstance(model, OUSpec):
            raise ConfigError(f"experiment {kind!r} needs an ou model")
    params = _check_params(kind, doc["params"])
    return ExperimentConfig(experiment=kind, seed=doc["seed"],
                            model_raw=model_raw or {}, params=params,
                            out=doc.get("out"), threads=threads, parsed_model=model)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def serialize_config(cfg: ExperimentConfig) -> dict:
    doc: Dict[str, Any] = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "params": cfg.params,
    }
    if cfg.model_raw:
        doc["model"] = cfg.model_raw
    if cfg.out is not None:
        doc["out"] = cfg.out
    if cfg.threads != 1:
        doc["threads"] = cfg.threads
    return doc


def config_hash(cfg: ExperimentConfig) -> str:
    text = json.dumps(serialize_config(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
