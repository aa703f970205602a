"""Command-line entry point.

Exit codes: 0 success, 2 configuration/validation failure, 3 numeric failure.
Artifacts are CSV files plus a JSON-lines run manifest; identical config and
seed reproduce the CSV bytes exactly (the manifest carries the only
timestamp).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .absorbed import (boundary_convergence_report, fleming_viot)
from .certificates import (GaussianKernel, check_drift, default_certificate_mesh,
                           gaussian_class_minorization, quadratic_psi)
from .config import (OBSERVABLES, ConfigError, ExperimentConfig, config_hash,
                     load_config, serialize_config)
from .ergodic import normal_initial, point_initial, run_l2_experiment
from .measures import Mesh
from .ou import asymptotic_periodicity_report
from .paths import SimulationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, (str, int)) else _fmt(c) for c in row])


def _initial_from(params: dict):
    init = params.get("initial") or {"kind": "point", "x": 0.0}
    if init["kind"] == "point":
        return point_initial(float(init.get("x", 0.0)))
    if init["kind"] == "normal":
        return normal_initial(float(init.get("mean", 0.0)), float(init.get("sd", 1.0)))
    raise ConfigError(f"unsupported initial kind {init['kind']!r} for this experiment")


def _mesh_from(params: dict) -> Mesh:
    m = params.get("mesh")
    if m is None:
        return default_certificate_mesh()
    return Mesh(x_min=float(m["x_min"]), x_max=float(m["x_max"]),
                n_cells=int(m["n_cells"]))


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    """Dispatch one experiment; returns the artifact file names written."""
    p = cfg.params
    if cfg.experiment == "ergodic":
        spec = cfg.model()
        report = run_l2_experiment(spec, OBSERVABLES[p["observable"]],
                                   _initial_from(p), p["t_values"],
                                   n_replicas=p["n_replicas"], dt=p["dt"],
                                   seed=cfg.seed,
                                   use_auxiliary=bool(p.get("use_auxiliary", False)),
                                   threads=cfg.threads)
        _write_csv(out_dir / "report.csv", ["t", "mean_avg", "l2_err", "var", "stderr"],
                   report.rows())
        extra = {"limit": report.limit, "var_slope": report.var_slope}
        (out_dir / "summary.json").write_text(json.dumps(extra, sort_keys=True) + "\n")
        return ["report.csv", "summary.json"]

    if cfg.experiment == "asymptotic-periodicity":
        spec = cfg.model()
        rows = asymptotic_periodicity_report(spec, s=float(p["s"]), n=p["n"],
                                             k_values=p["k_values"],
                                             x=float(p.get("probe_x", 1.0)))
        _write_csv(out_dir / "periodicity.csv", ["k", "n", "s", "tv"],
                   [(r.k, r.n, r.s, r.tv) for r in rows])
        return ["periodicity.csv"]

    if cfg.experiment == "drift":
        spec = cfg.model()
        kernel = GaussianKernel(spec.drift(bool(p.get("use_auxiliary", False))))
        cert = check_drift(kernel, quadratic_psi, s=float(p["s"]), t1=float(p["t1"]),
                           theta=float(p["theta"]), C=float(p["C"]),
                           k_edge=float(p["k_edge"]), mesh=_mesh_from(p))
        (out_dir / "certificates.jsonl").write_text(cert.to_json() + "\n")
        return ["certificates.jsonl"]

    if cfg.experiment == "minorization":
        cert = gaussian_class_minorization(a=float(p["a"]), b_minus=float(p["b_minus"]),
                                           b_plus=float(p["b_plus"]),
                                           mesh=_mesh_from(p),
                                           n_members=int(p.get("n_members", 1000)),
                                           seed=cfg.seed)
        (out_dir / "certificates.jsonl").write_text(cert.to_json() + "\n")
        _write_csv(out_dir / "nu.csv", ["cell_center", "weight"], cert.nu.to_rows())
        return ["certificates.jsonl", "nu.csv"]

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
        _write_csv(out_dir / "occ.csv", ["bin_center", "mass"],
                   result.occupation.measure().to_rows())
        return ["occ.csv"]

    if cfg.experiment == "survival":
        pair = cfg.model()
        rows = boundary_convergence_report(pair, s=float(p["s"]), t=float(p["t"]),
                                           x=float(p["x"]), k_values=p["k_values"],
                                           n_paths=p["n_paths"], dt=p["dt"],
                                           seed=cfg.seed)
        _write_csv(out_dir / "survival.csv", ["k", "gap", "stderr", "sandwich_prob"],
                   [(r.k, r.gap, r.stderr, r.sandwich_prob) for r in rows])
        return ["survival.csv"]

    raise ConfigError(f"unknown experiment {cfg.experiment!r}")


def _write_manifest(cfg: ExperimentConfig, out_dir: Path, artifacts: list[str]) -> None:
    record = {
        "config_hash": config_hash(cfg),
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config": serialize_config(cfg),
        "artifacts": artifacts,
        "versions": {
            "apmarkov": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(out_dir / "manifest.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apmarkov",
        description="experiments on asymptotically periodic Markov dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "ergodic", "drift", "minorization", "qsd", "survival",
                 "asymptotic-periodicity"):
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        artifacts = run_experiment(cfg, out)
        _write_manifest(cfg, out, artifacts)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for name in artifacts:
        print(out / name)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
