"""One workload process: set up, run its operations, check the outputs.

Usage: python3 perfbench/child.py JOB.json

The job file names the checkout root, the config loaded during set-up, the
operations (``apmarkov.cli.main`` argument lists), and whether to trace.
Operations run back to back, one at a time; their outputs are checked and
hashed only after the last one ends, so ``run_s`` holds the program's work
alone.  The result is printed as one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _artifacts(out: Path) -> tuple[dict, int]:
    """sha256 of every deterministic artifact, and the bytes of all files.
    The manifest carries a timestamp, so it is sized but not hashed."""
    hashes, size = {}, 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        if path.name != "manifest.jsonl":
            hashes[path.name] = hashlib.sha256(data).hexdigest()
    return hashes, size


def _call_cli(cli, argv: list) -> tuple[int | None, str, str | None]:
    """(exit code, stderr text, escaped exception) of one in-process call."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # recorded; the caller's checks decide what it means
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return None, err.getvalue(), last
    return code, err.getvalue(), None


def _check(checks, op: dict, code, escaped) -> list[str]:
    from apmarkov.config import parse_config

    if escaped is not None:
        return [f"raised {escaped}"]
    if code != 0:
        return [f"exit code {code}"]
    out = Path(op["out"])
    kind, check = op["kind"], op["check"]
    if kind == "ergodic":
        return checks.check_ergodic(out, check)
    if kind == "survival":
        return checks.check_survival(out, check)
    if kind == "qsd":
        return checks.check_qsd(out, check)
    doc = json.loads(Path(op["argv"][2]).read_text())
    if kind == "ap":
        return checks.check_periodicity(out, check, doc, parse_config(doc).model())
    if kind == "drift":
        return checks.check_drift(out, check, doc, parse_config(doc).model())
    if kind == "minorization":
        return checks.check_minorization(out, check, doc)
    raise ValueError(f"no check for operation kind {kind!r}")


def rng_probe(seed: int) -> dict:
    """Standard normals per second drawn through make_generator, at the
    ergodic block size (256 per replica window, one stream per replica) and
    the survival block size (2000 per path, one new stream per path)."""
    import numpy as np
    from apmarkov.rng import make_generator

    n_draws = 5_120_000

    def block256():
        gens = [make_generator(seed, r) for r in range(1000)]
        for _ in range(n_draws // (256 * 1000)):
            np.stack([g.standard_normal(256) for g in gens])

    def block2000():
        for r in range(n_draws // 2000):
            make_generator(seed, r).standard_normal(2000)

    rates = {}
    for name, fn in (("block256", block256), ("block2000", block2000)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        rates[name] = n_draws / sorted(times)[1]
    return rates


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(Path(job["root"]) / "src"))

    import numpy
    import scipy
    import apmarkov
    import apmarkov.cli as cli
    from apmarkov.config import load_config

    load_config(job["setup_config"]).model()
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t_setup_end = time.monotonic()

    result = {"t_setup_end": t_setup_end,
              "versions": {"apmarkov": apmarkov.__version__, "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if job.get("rng_probe"):
        result["rng"] = rng_probe(job["seed"])

    outcomes = []
    t_run0 = time.perf_counter()
    for i, op in enumerate(job["ops"]):
        if tracer:
            tracer.op, tracer.active = i, True
        t0 = time.perf_counter()
        code, _, escaped = _call_cli(cli, op["argv"])
        outcomes.append((code, escaped, time.perf_counter() - t0))
        if tracer:
            tracer.active = False
    run_s = time.perf_counter() - t_run0
    t_run_end = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import checks

    ops = []
    for op, (code, escaped, seconds) in zip(job["ops"], outcomes):
        problems = _check(checks, op, code, escaped)
        hashes, size = _artifacts(Path(op["out"])) if code == 0 else ({}, 0)
        ops.append({"key": op["key"], "kind": op["kind"], "ms": seconds * 1e3,
                    "problems": problems, "hashes": hashes, "bytes": size})

    malformed = []
    for op in job.get("malformed", []):
        code, stderr, escaped = _call_cli(cli, op["argv"])
        malformed.append({"key": op["key"], "code": code, "escaped": escaped,
                          "problems": ([f"raised {escaped}"] if escaped is not None else
                                       checks.check_malformed(code, stderr,
                                                              op["check"]["fields"]))})

    accuracy = []
    for op in job.get("accuracy", []):
        code, _, escaped = _call_cli(cli, op["argv"])
        accuracy.append({"key": op["key"], "problems": _check(checks, op, code, escaped)})

    result.update(run_s=run_s, t_run_end=t_run_end, peak_rss_kb=peak_kb, ops=ops,
                  malformed=malformed, accuracy=accuracy,
                  trace=tracer.summary() if tracer else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
