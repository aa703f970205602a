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
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

import numpy as np

from .absorbed import BoundaryPair, _check_start
from .ou import OUSpec
from .paths import Observable
from .timefns import TimeFunction, grid_steps, parse_time_function

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


def _number(v: Any, name: str, integer: bool = False):
    """v itself if it is a finite number (an integer if asked for)."""
    kind = "an integer" if integer else "a number"
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        raise ConfigError(f"{name} must be {kind}, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # NaN, inf, or an integer too large for a float
        raise ConfigError(f"{name} must be a finite number, got {v!r}")
    return v


def _numbers(obj: dict, where: str, keys: tuple) -> None:
    for key in keys:
        if key in obj:
            _number(obj[key], f"{where}.{key}")


def _integer_in(v: Any, name: str, lo: int, hi: float = math.inf) -> int:
    """v itself if it is an integer in [lo, hi)."""
    if not lo <= _number(v, name, integer=True) < hi:
        raise ConfigError(f"{name} must be an integer in [{lo}, {hi}), got {v!r}")
    return v


def _positive(obj: dict, where: str, key: str):
    v = _number(obj[key], f"{where}.{key}")
    if not v > 0:
        raise ConfigError(f"{where}.{key} must be > 0, got {v!r}")
    return v


def _k_values(params: dict, where: str) -> None:
    ks = params["k_values"]
    if (not isinstance(ks, list)
            or any(_number(k, f"{where}.k_values", integer=True) < 0 for k in ks)):
        raise ConfigError(f"{where}.k_values must be a list of non-negative integers")


def _parse_timefn(obj: Any, where: str) -> TimeFunction:
    _require_keys(obj, where, ("expr",), ("lower", "upper", "period"))
    _numbers(obj, where, ("lower", "upper"))
    if obj.get("period") is not None:  # null declares no period
        _number(obj["period"], f"{where}.period")
    if not isinstance(obj["expr"], str):
        raise ConfigError(f"{where}.expr must be a string, got {obj['expr']!r}")
    try:
        return parse_time_function(obj["expr"], lower=float(obj.get("lower", -math.inf)),
                                   upper=float(obj.get("upper", math.inf)),
                                   period=obj.get("period"))
    except Exception as exc:
        raise ConfigError(f"{where}.expr: {exc}") from exc


def _library_rule(name: str, rule, *args, fields=()):
    """rule(*args), one of the library's own checks, with its ValueError
    re-raised as a ConfigError naming the field: ``name``, or the field of
    the (field, time function) pair in ``fields`` too deep to evaluate."""
    try:
        return rule(*args)
    except ValueError as exc:
        deep = [f for f, fn in fields if getattr(exc, "fn", None) is fn]
        raise ConfigError(f"{deep[0] if deep else name}: {exc}") from exc


def _grid_steps(params: dict, name: str, label: str, span: float) -> int:
    """Steps of params.dt in a span, which must be a positive multiple of it."""
    n_steps = _library_rule(name, grid_steps, span, params["dt"], label)
    if n_steps < 1:
        raise ConfigError(f"{name}: {label}={span!r} is shorter than dt={params['dt']!r}")
    return n_steps


def _start_inside(x: float, name: str, starts) -> None:
    """x lies inside every (boundary, start time) of starts, the boundary
    evaluated as the absorbed engine evaluates it: on an array of times."""
    h0 = min(float(b(np.array([t]))[0]) for b, t in starts)
    _library_rule(name, _check_start, x, h0)


def _parse_model(obj: Any):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("model must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "ou":
        _require_keys(obj, "model", ("kind", "lambda", "g", "gamma"))
        fns = {k: _parse_timefn(obj[k], f"model.{k}") for k in ("lambda", "g")}
        model = OUSpec(lam=fns["lambda"], g=fns["g"], gamma=_positive(obj, "model", "gamma"))
    elif kind == "boundary":
        _require_keys(obj, "model", ("kind", "h", "g", "gamma"), ("n0",))
        fns = {k: _parse_timefn(obj[k], f"model.{k}") for k in ("h", "g")}
        model = BoundaryPair(h=fns["h"], g=fns["g"], gamma=_positive(obj, "model", "gamma"),
                             n0=_integer_in(obj["n0"], "model.n0", 1) if "n0" in obj else 1)
    else:
        raise ConfigError(f"model.kind must be 'ou' or 'boundary', got {kind!r}")
    _library_rule("model", model.validate, fields=[(f"model.{k}.expr", f) for k, f in fns.items()])
    return model


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
# the initial laws each experiment can start from, and the keys of each law
_INITIAL_KINDS = {"ergodic": ("point", "normal"), "qsd": ("point", "uniform")}
_INITIAL_KEYS = {"point": ("x",), "normal": ("mean", "sd"), "uniform": ()}


def _check_initial(kind: str, init: Any, where: str) -> None:
    _require_keys(init, where, ("kind",), ("x", "mean", "sd"))
    if init["kind"] not in _INITIAL_KINDS[kind]:
        raise ConfigError(f"{where}.kind must be one of {_INITIAL_KINDS[kind]} for "
                          f"experiment {kind!r}, got {init['kind']!r}")
    _require_keys(init, where, ("kind",), _INITIAL_KEYS[init["kind"]])
    _numbers(init, where, ("x", "mean", "sd"))
    if init.get("sd", 0.0) < 0:
        raise ConfigError(f"{where}.sd must be >= 0, got {init['sd']!r}")


def _check_params(kind: str, params: dict, model) -> dict:
    """Check params against the experiment's schema and, through the
    library's own grid and start-point rules, against the parsed model."""
    where = "params"
    required, optional = _PARAM_SCHEMAS[kind]
    _require_keys(params, where, required, optional)
    if params.get("initial") is not None:
        _check_initial(kind, params["initial"], f"{where}.initial")
    if not isinstance(params.get("use_auxiliary", False), bool):
        raise ConfigError(f"{where}.use_auxiliary must be true or false, "
                          f"got {params['use_auxiliary']!r}")
    if kind == "ergodic":
        obs = params["observable"]
        if not isinstance(obs, str) or obs not in OBSERVABLES:
            raise ConfigError(f"{where}.observable must be one of "
                              f"{sorted(OBSERVABLES)}, got {obs!r}")
        tv = params["t_values"]
        if (not isinstance(tv, list) or not tv
                or any(not _number(v, f"{where}.t_values") > 0 for v in tv)):
            raise ConfigError(f"{where}.t_values must be a non-empty list of positive times")
        _integer_in(params["n_replicas"], f"{where}.n_replicas", 1)
        _positive(params, where, "dt")
        for i, t in enumerate(tv):
            _grid_steps(params, f"{where}.t_values[{i}]", "t", t)
    elif kind == "drift":
        for key in ("t1", "C", "k_edge"):
            _positive(params, where, key)
        if not (0.0 < _number(params["theta"], f"{where}.theta") < 1.0):
            raise ConfigError(f"{where}.theta must lie in (0,1), got {params['theta']!r}")
        if _number(params["s"], f"{where}.s") < 0:
            raise ConfigError(f"{where}.s must be >= 0, got {params['s']!r}")
    elif kind == "minorization":
        if not _number(params["a"], f"{where}.a") >= 0:
            raise ConfigError(f"{where}.a must be >= 0, got {params['a']!r}")
        _positive(params, where, "b_minus")
        _positive(params, where, "b_plus")
        if params["b_minus"] > params["b_plus"]:
            raise ConfigError(f"{where}: need b_minus <= b_plus")
        if "n_members" in params:
            _integer_in(params["n_members"], f"{where}.n_members", 1)
    elif kind == "qsd":
        _integer_in(params["n_particles"], f"{where}.n_particles", 2)
        T = _positive(params, where, "T")
        dt = _positive(params, where, "dt")
        n_steps = _grid_steps(params, f"{where}.T", "T", T)
        if "n_bins" in params:
            _integer_in(params["n_bins"], f"{where}.n_bins", 1)
        # fleming_viot counts a step's occupation once its end passes burn_in + 1e-12
        burn_in = _number(params.get("burn_in", 0.0), f"{where}.burn_in")
        if not (0.0 <= burn_in and burn_in + 1e-12 < dt * n_steps):
            raise ConfigError(f"{where}.burn_in must lie in [0, T), got {burn_in!r}")
        if params.get("boundary", "h") not in ("h", "g"):
            raise ConfigError(f"{where}.boundary must be 'h' or 'g'")
        init = params.get("initial") or {"kind": "point"}
        if init["kind"] == "point":
            boundary = model.h if params.get("boundary", "h") == "h" else model.g
            _start_inside(init.get("x", 0.0), f"{where}.initial.x", [(boundary, 0.0)])
    elif kind == "survival":
        _integer_in(params["n_paths"], f"{where}.n_paths", 1)
        _positive(params, where, "dt")
        _numbers(params, where, ("s", "t", "x"))
        _k_values(params, where)
        s, t = params["s"], params["t"]
        if not 0 <= s <= t:
            raise ConfigError(f"{where}.s must lie in [0, {where}.t], got s={s!r}, t={t!r}")
        if t > s:
            _grid_steps(params, f"{where}.t", "t - s", t - s)
        # row k starts from x at s + k gamma, inside both h and g there
        if params["k_values"]:
            _start_inside(params["x"], f"{where}.x", [(b, s + k * model.gamma)
                                                      for k in params["k_values"]
                                                      for b in (model.h, model.g)])
    elif kind == "asymptotic-periodicity":
        _integer_in(params["n"], f"{where}.n", 1)
        _numbers(params, where, ("s", "probe_x"))
        _k_values(params, where)
        if not 0 <= params["s"] < model.gamma:
            raise ConfigError(f"{where}.s must lie in [0, gamma={model.gamma!r}), "
                              f"got {params['s']!r}")
    if "mesh" in params and params["mesh"] is not None:
        mesh = params["mesh"]
        _require_keys(mesh, f"{where}.mesh", ("x_min", "x_max", "n_cells"))
        _numbers(mesh, f"{where}.mesh", ("x_min", "x_max"))
        _integer_in(mesh["n_cells"], f"{where}.mesh.n_cells", 1)
        if not mesh["x_min"] < mesh["x_max"]:
            raise ConfigError(f"{where}.mesh: need x_min < x_max")
    return params




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
        """This config with the CLI's overrides, checked by the same rules."""
        seed = self.seed if seed is None else seed
        threads = self.threads if threads is None else threads
        return replace(self, seed=_integer_in(seed, "seed", 0, 2 ** 64),
                       threads=_integer_in(threads, "threads", 1),
                       params=_check_params(self.experiment, {**self.params, **(params or {})},
                                            self.parsed_model))


def parse_config(doc: Any) -> ExperimentConfig:
    _require_keys(doc, "config", ("experiment", "seed", "params"),
                  ("model", "out", "threads"))
    kind = doc["experiment"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    _integer_in(doc["seed"], "seed", 0, 2 ** 64)  # the rng keys on 64 bits
    threads = _integer_in(doc.get("threads", 1), "threads", 1)
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
    params = _check_params(kind, doc["params"], model)
    return ExperimentConfig(experiment=kind, seed=doc["seed"],
                            model_raw=model_raw or {}, params=params,
                            out=doc.get("out"), threads=threads, parsed_model=model)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
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
