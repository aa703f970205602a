"""Output checks: every artifact of every operation is compared with a
closed form or an invariant the result must satisfy.

Each check returns a list of problems; an empty list means the output is
correct.  Runs in the child process, outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.special import ndtr

# band for the fitted log-log slope of the cross-replica variance; the
# O(1/t) decay gives -1, the transient from x0 = 0 flattens it somewhat
VAR_SLOPE_BAND = (-1.3, -0.7)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_ergodic(out: Path, check: dict) -> list[str]:
    rows = _rows(out / "report.csv")
    summary = json.loads((out / "summary.json").read_text())
    last = rows[-1]
    mean, stderr = float(last["mean_avg"]), float(last["stderr"])
    problems = []
    if not abs(mean - summary["limit"]) <= 5.0 * stderr:
        problems.append(f"mean_avg(t_max)={mean!r} is more than 5 stderr ({stderr!r}) "
                        f"from the limit {summary['limit']!r}")
    lo, hi = VAR_SLOPE_BAND
    if not lo <= summary["var_slope"] <= hi:
        problems.append(f"var_slope={summary['var_slope']!r} outside [{lo}, {hi}]")
    return problems


def check_survival(out: Path, check: dict) -> list[str]:
    rows = _rows(out / "survival.csv")
    problems = []
    if [int(r["k"]) for r in rows] != check["k_values"]:
        problems.append(f"k column {[r['k'] for r in rows]} != {check['k_values']}")
    for r in rows:
        gap, sandwich = float(r["gap"]), float(r["sandwich_prob"])
        if not abs(gap - sandwich) <= 1e-12:
            problems.append(f"k={r['k']}: gap {gap!r} != sandwich_prob {sandwich!r}")
        if not (0.0 <= gap <= 1.0 and 0.0 <= sandwich <= 1.0):
            problems.append(f"k={r['k']}: value outside [0, 1]")
    return problems


def check_qsd(out: Path, check: dict) -> list[str]:
    mass = np.array([float(r["mass"]) for r in _rows(out / "occ.csv")])
    problems = []
    if len(mass) != check["n_bins"]:
        problems.append(f"{len(mass)} bins, expected {check['n_bins']}")
    if np.any(mass < 0.0):
        problems.append("negative mass")
    if not abs(mass.sum() - 1.0) <= 1e-9:
        problems.append(f"masses sum to {mass.sum()!r}")
    return problems


def gaussian_tv_closed(m1: float, s1: float, m2: float, s2: float) -> float:
    """TV between two normals: P1(A) - P2(A) on A = {f1 > f2}, whose
    boundary points are the real roots of log f1 - log f2."""
    if s1 == s2 and m1 == m2:
        return 0.0
    alpha = 0.5 / s2 ** 2 - 0.5 / s1 ** 2
    beta = m1 / s1 ** 2 - m2 / s2 ** 2
    c0 = m2 ** 2 / (2.0 * s2 ** 2) - m1 ** 2 / (2.0 * s1 ** 2) + math.log(s2 / s1)
    if alpha == 0.0:
        roots = [-c0 / beta]
    else:
        disc = beta ** 2 - 4.0 * alpha * c0
        r = math.sqrt(max(disc, 0.0))
        roots = sorted([(-beta - r) / (2.0 * alpha), (-beta + r) / (2.0 * alpha)])
    edges = [-math.inf] + roots + [math.inf]
    tv = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        probe = (a + b) / 2 if math.isfinite(a) and math.isfinite(b) else (
            b - 1.0 if math.isfinite(b) else a + 1.0)
        if alpha * probe ** 2 + beta * probe + c0 > 0.0:  # f1 > f2 here
            p1 = ndtr((b - m1) / s1) - ndtr((a - m1) / s1)
            p2 = ndtr((b - m2) / s2) - ndtr((a - m2) / s2)
            tv += p1 - p2
    return float(tv)


def check_periodicity(out: Path, check: dict, doc: dict, spec) -> list[str]:
    from apmarkov.ou import transition_params

    p = doc["params"]
    s, n, x = float(p["s"]), int(p["n"]), float(p.get("probe_x", 1.0))
    q = transition_params(spec.g, s, s + n * spec.gamma)
    problems = []
    rows = _rows(out / "periodicity.csv")
    if [int(r["k"]) for r in rows] != p["k_values"]:
        problems.append("k column does not match the config")
    for r in rows:
        k = int(r["k"])
        tr = transition_params(spec.lam, s + k * spec.gamma, s + (k + n) * spec.gamma)
        want = gaussian_tv_closed(tr.m * x, tr.sigma, q.m * x, q.sigma)
        if not abs(float(r["tv"]) - want) <= 1e-9:
            problems.append(f"k={k}: tv {r['tv']} != closed form {want!r}")
    return problems


def check_drift(out: Path, check: dict, doc: dict, spec) -> list[str]:
    from apmarkov.ou import transition_params

    p = doc["params"]
    cert = json.loads((out / "certificates.jsonl").read_text().splitlines()[0])
    s, t1 = float(p["s"]), float(p["t1"])
    tr = transition_params(spec.lam, s, s + t1)
    mesh = p["mesh"]
    edges = np.linspace(mesh["x_min"], mesh["x_max"], mesh["n_cells"] + 1)
    x = 0.5 * (edges[:-1] + edges[1:])
    p_psi = 1.0 + tr.m ** 2 * x * x + tr.sigma ** 2
    residual = p_psi - p["theta"] * (1.0 + x * x) - p["C"] * (np.abs(x) <= p["k_edge"])
    want = float(residual.max())
    if not abs(cert["max_residual"] - want) <= 1e-9 * (1.0 + abs(want)):
        return [f"max_residual {cert['max_residual']!r} != closed form {want!r}"]
    return []


def check_minorization(out: Path, check: dict, doc: dict) -> list[str]:
    p = doc["params"]
    cert = json.loads((out / "certificates.jsonl").read_text().splitlines()[0])
    a, b, b_plus = float(p["a"]), float(p["b_minus"]), float(p["b_plus"])
    # int exp(-(|x| + a)^2 / (2 b^2)) dx = 2 sqrt(2 pi) b (1 - Phi(a/b))
    want = 2.0 * b * (1.0 - float(ndtr(a / b))) / b_plus
    problems = []
    if not abs(cert["c"] - want) <= 1e-9:
        problems.append(f"c {cert['c']!r} != closed form {want!r}")
    if cert["n_violations"] != 0:
        problems.append(f"{cert['n_violations']} class members violate the minorization")
    return problems


def check_malformed(code: int, stderr: str, fields: list[str]) -> list[str]:
    if code != 2:
        return [f"exit code {code}, expected 2"]
    if not any(re.search(rf"(?<![A-Za-z0-9_]){re.escape(f)}(?![A-Za-z0-9_])", stderr)
               for f in fields):
        return [f"message does not name any of {fields}: {stderr.strip()!r}"]
    return []
