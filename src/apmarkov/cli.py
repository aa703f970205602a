"""Command-line entry point.

Exit codes: 0 success, 2 configuration/validation failure, 3 numeric failure.
Artifacts are CSV files plus a JSON-lines run manifest; identical config and
seed reproduce the CSV bytes exactly (the manifest carries the only
timestamp, phase timings and peak RSS).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import resource
import sys
import time
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .absorbed import (boundary_convergence_report, fleming_viot)
from .certificates import check_drift, default_certificate_mesh, gaussian_class_minorization
from .config import (EXPERIMENT_KINDS, OBSERVABLES, ConfigError, ExperimentConfig,
                     config_hash, load_config, serialize_config)
from .ergodic import normal_initial, point_initial, run_l2_experiment
from .measures import Mesh
from .ou import asymptotic_periodicity_report
from .paths import SimulationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _write_csv(path: Path, header, rows) -> None:
    """Write numeric rows as csv.writer writes them, with CRLF line ends: an
    int cell (bools too) by str, any other by repr(float(c)).  A column that
    holds no int is formatted with no per-cell type test."""
    cols = []
    for col in zip(*rows):
        if any(map(isinstance, col, repeat(int))):
            cols.append([str(c) if isinstance(c, int) else repr(float(c)) for c in col])
        else:
            cols.append(map(repr, map(float, col)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for line in zip(*cols):
            fh.write(",".join(line) + "\r\n")


def _initial_from(params: dict):
    init = params.get("initial") or {"kind": "point"}
    if init["kind"] == "normal":
        return normal_initial(float(init.get("mean", 0.0)), float(init.get("sd", 1.0)))
    return point_initial(float(init.get("x", 0.0)))


def _mesh_from(params: dict) -> Mesh:
    m = params.get("mesh")
    return (default_certificate_mesh() if m is None
            else Mesh(x_min=float(m["x_min"]), x_max=float(m["x_max"]), n_cells=m["n_cells"]))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Dispatch one experiment; returns its artifacts by file name, each a
    text or the (header, rows) of a CSV file."""
    p = cfg.params
    if cfg.experiment == "ergodic":
        report = run_l2_experiment(cfg.model(), OBSERVABLES[p["observable"]],
                                   _initial_from(p), p["t_values"], n_replicas=p["n_replicas"],
                                   dt=p["dt"], seed=cfg.seed, threads=cfg.threads,
                                   use_auxiliary=p.get("use_auxiliary", False))
        extra = {"limit": report.limit, "var_slope": report.var_slope}
        return {"report.csv": (["t", "mean_avg", "l2_err", "var", "stderr"], report.rows()),
                "summary.json": json.dumps(extra, sort_keys=True) + "\n"}

    if cfg.experiment == "asymptotic-periodicity":
        rows = asymptotic_periodicity_report(cfg.model(), s=float(p["s"]), n=p["n"],
                                             k_values=p["k_values"],
                                             x=float(p.get("probe_x", 1.0)))
        return {"periodicity.csv": (["k", "n", "s", "tv"],
                                    [(r.k, r.n, r.s, r.tv) for r in rows])}

    if cfg.experiment == "drift":
        cert = check_drift(cfg.model().drift(p.get("use_auxiliary", False)),
                           s=float(p["s"]), t1=float(p["t1"]),
                           theta=float(p["theta"]), C=float(p["C"]),
                           k_edge=float(p["k_edge"]), mesh=_mesh_from(p))
        return {"certificates.jsonl": cert.to_json() + "\n"}

    if cfg.experiment == "minorization":
        cert = gaussian_class_minorization(a=float(p["a"]), b_minus=float(p["b_minus"]),
                                           b_plus=float(p["b_plus"]),
                                           mesh=_mesh_from(p),
                                           n_members=int(p.get("n_members", 1000)),
                                           seed=cfg.seed)
        return {"certificates.jsonl": cert.to_json() + "\n",
                "nu.csv": (["cell_center", "weight"], cert.nu.to_rows())}

    if cfg.experiment == "qsd":
        pair = cfg.model()
        boundary = pair.h if p.get("boundary", "h") == "h" else pair.g
        init = p.get("initial") or {"kind": "point", "x": 0.0}
        x0 = "uniform" if init["kind"] == "uniform" else float(init.get("x", 0.0))
        result = fleming_viot(boundary, n_particles=p["n_particles"], dt=p["dt"],
                              T=p["T"], seed=cfg.seed,
                              mesh=Mesh(-boundary.upper, boundary.upper,
                                        int(p.get("n_bins", 80))),
                              x0=x0, burn_in=float(p.get("burn_in", 0.0)))
        return {"occ.csv": (["bin_center", "mass"], result.occupation.measure().to_rows())}

    # survival, the last of config.EXPERIMENT_KINDS
    rows = boundary_convergence_report(cfg.model(), s=float(p["s"]), t=float(p["t"]),
                                       x=float(p["x"]), k_values=p["k_values"],
                                       n_paths=p["n_paths"], dt=p["dt"], seed=cfg.seed)
    return {"survival.csv": (["k", "gap", "stderr", "sandwich_prob"],
                             [(r.k, r.gap, r.stderr, r.sandwich_prob) for r in rows])}


def _write_artifacts(out_dir: Path, artifacts: dict) -> None:
    for name, content in artifacts.items():
        if isinstance(content, str):
            (out_dir / name).write_text(content)
        else:
            _write_csv(out_dir / name, *content)


def _write_manifest(cfg: ExperimentConfig, out_dir: Path, artifacts: list[str],
                    timings: dict) -> None:
    record = {
        "config_hash": config_hash(cfg),
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config": serialize_config(cfg),
        "artifacts": artifacts,
        "versions": {
            "apmarkov": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "timings": timings,  # seconds per phase
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    with open(out_dir / "manifest.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _unusable_out(out: Path, exc: OSError) -> int:
    print(f"configuration error: --out {str(out)!r} is not a usable directory: {exc}",
          file=sys.stderr)
    return EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmarkov",
        description="experiments on asymptotically periodic Markov dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run",) + EXPERIMENT_KINDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", default=None,
                        help="output directory (or a .csv path whose directory is used)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads for replica batches")
        if name == "survival":
            sp.add_argument("--k-list", default=None,
                            help="comma-separated k values overriding the config")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # once per process, on the first main call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        if args.command != "run" and cfg.experiment != args.command:
            raise ConfigError(f"config is for experiment {cfg.experiment!r}, "
                              f"but the {args.command!r} command was invoked")
        overrides = {}
        if getattr(args, "k_list", None):
            try:
                overrides["k_values"] = [int(v) for v in args.k_list.split(",") if v]
            except ValueError:
                raise ConfigError(f"--k-list must be comma-separated integers, "
                                  f"got {args.k_list!r}")
        cfg = cfg.with_overrides(seed=args.seed, threads=args.threads,
                                 params=overrides or None)
        out = Path(args.out) if args.out else Path(cfg.out or ".")
        if out.suffix == ".csv":
            out = out.parent if str(out.parent) else Path(".")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _unusable_out(out, exc)
    try:
        t1 = time.perf_counter()
        artifacts = run_experiment(cfg)
        t2 = time.perf_counter()
    except (SimulationError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        _write_artifacts(out, artifacts)
        timings = {"load": t1 - t0, "run": t2 - t1, "write": time.perf_counter() - t2}
        _write_manifest(cfg, out, list(artifacts), timings)
    except OSError as exc:
        return _unusable_out(out, exc)
    for name in artifacts:
        print(out / name)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
