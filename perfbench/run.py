"""apmarkov benchmark driver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next operation starts
only after the previous one has ended.  Every operation runs in a fresh
child process (``perfbench/child.py``), and every output is checked.  With
``--trace 0`` the run reports the end-to-end metrics of the workload with
tracing off; with ``--trace 1`` it makes the traced run, which covers all
four workloads and reports the per-layer metrics.  The metric names and
units are those of ``BENCHMARK.json``.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
MIN_OPS = 3            # operations per run, even when one outlasts --seconds
RUN_LIMIT_S = 170.0    # a run ends well inside the 180 s allowed
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

PER_LAYER_BASE = {
    "config.load_ms": "per load_config call, all traced ops",
    "config.model_ms": "per ExperimentConfig.model call, all traced ops",
    "config.model_validations_per_op": "model validate calls per op that has a model",
    "config.clean_reject_frac": "malformed classes exiting 2 and naming the field, of 11",
    "cli.self_ms": "cli self time per certify-sweep op",
    "cli.artifact_bytes": "bytes written per certify-sweep op",
    "timefns.integrate_calls": "per certify-sweep op",
    "timefns.integrand_evals": "per certify-sweep op",
    "timefns.integrate_ms": "integrate busy time per certify-sweep op",
    "ou.gaussian_tv_calls": "per certify-sweep op",
    "ou.gaussian_tv_ms": "per gaussian_tv call",
    "ou.gaussian_tv_probe_misses": "TV_PROBE ops missing the closed form by > 1e-9, of 3",
    "ou.transition_params_calls": "per certify-sweep op",
    "ou.transition_params_ms": "per transition_params call",
    "ou.grid_params_s": "grid_transition_params busy time per ergodic-l2 op",
    "invariant.limiting_value_ms": "per limiting_value call, ergodic-l2",
    "certificates.check_drift_calls": "per certify sweep",
    "certificates.check_drift_ms": "per check_drift call",
    "certificates.minorization_calls": "per certify sweep",
    "certificates.minorization_ms": "per gaussian_class_minorization call",
    "rng.generators.ergodic-l2": "make_generator calls per op",
    "rng.generators.survival-crn": "make_generator calls per op",
    "rng.generators.qsd-fv": "make_generator calls per op",
    "rng.make_generator_us": "per make_generator call, all traced ops",
    "rng.normals_per_s.block256": "standalone: 1000 streams x 256-normal windows",
    "rng.normals_per_s.block2000": "standalone: one new stream per 2000 normals",
    "ergodic.replica_steps": "per ergodic-l2 op",
    "ergodic.replica_steps_per_s": "over ergodic_time_averages busy time, --threads 2",
    "ergodic.thread_speedup": "busy time at --threads 1 over --threads 2, same inputs",
    "ergodic.serial_run_s": "run_s of ergodic-l2 at --threads 1 (traced)",
    "ergodic.thread_invariant": "1 if artifacts at --threads 1 and 2 hash equal",
    "absorbed.engine_passes": "survival_flags calls per survival-crn op",
    "absorbed.path_steps": "per survival-crn op",
    "absorbed.path_steps_per_s": "over survival_flags busy time",
    "absorbed.alive_frac_end": "paths alive at window end over paths stepped, all passes",
    "absorbed.noise_batch_mb": "computed: largest normal+uniform batch, 8 bytes per float",
    "absorbed.serial_run_s": "run_s of survival-crn at --threads 1 (traced)",
    "absorbed.thread_invariant": "1 if artifacts at --threads 1 and 2 hash equal",
    "absorbed.particle_steps": "per qsd-fv op",
    "absorbed.particle_steps_per_s": "over fleming_viot busy time",
    "absorbed.respawns": "per qsd-fv op",
    "absorbed.respawn_step_frac": "steps with a respawn over steps, qsd-fv",
    "measures.cell_index_s": "Mesh.cell_index busy time per qsd-fv op",
    "trace.overhead_s": "sum over workloads of traced minus untraced run_s",
}


def log(msg: str = "") -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# records that outlive one run: machine, code digest, artifact hashes
# ---------------------------------------------------------------------------

def machine_record() -> dict:
    rec = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            rec["caches"][f"L{level}"] = size
    return rec


def code_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(list((root / "src" / "apmarkov").glob("*.py"))
                       + list((root / "configs").glob("*.json"))):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_hash_record(record_path: Path, digest: str, hashes: dict) -> tuple[list, list]:
    """Compare this run's artifact hashes with earlier runs.  Returns keys
    that differ from a run of the same code (failures) and keys that differ
    from runs of other code (reported only).  Then records this run."""
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    same, other = [], []
    for key, h in hashes.items():
        seen = record.setdefault(key, {})
        if digest in seen and seen[digest] != h:
            same.append(key)
        if any(d != digest and v != h for d, v in seen.items()):
            other.append(key)
        seen.setdefault(digest, h)
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    tmp.replace(record_path)
    return same, other


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, root: Path, work: Path, started: float):
        self.root, self.work, self.started = root, work, started
        self.n_jobs = 0

    def spawn(self, job: dict) -> dict:
        """Run one child to completion; returns its result, or a record of
        the crash.  ``setup_s`` counts from just before the spawn."""
        self.n_jobs += 1
        job_path = self.work / f"job-{self.n_jobs}.json"
        job_path.write_text(json.dumps({"root": str(self.root), **job}))
        shutil.rmtree(self.work / "artifacts", ignore_errors=True)
        timeout = max(10.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                  cwd=self.root, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {timeout:.0f} s",
                    "wall_s": time.monotonic() - t_spawn}
        wall = time.monotonic() - t_spawn
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            return {"error": f"child exit {proc.returncode}: {tail}", "wall_s": wall}
        res = json.loads(lines[-1])
        res["setup_s"] = res["t_setup_end"] - t_spawn
        res["op_s"] = res["t_run_end"] - t_spawn
        res["wall_s"] = wall
        return res


def job_for(root: Path, workload: str, seed: int, work: Path,
            threads: int = workloads.THREADS, trace: bool = False, variant: int = 0,
            probes: bool = False) -> tuple[dict, int]:
    """A child's job and its work count.  ``variant`` selects the
    certify-sweep sweep; ``probes`` adds the known-defect probes: malformed
    configs and gaussian_tv accuracy.  They run after the timed ops and are
    reported, not counted in ``failed``."""
    if workload != "certify-sweep":
        op, work_count = workloads.batch_op(root, workload, seed, work, threads)
        return {"setup_config": op["argv"][2], "ops": [op], "trace": trace,
                "seed": seed}, work_count
    ops = workloads.sweep_ops(root, seed, work, variant)
    return {"setup_config": ops[0]["argv"][2], "ops": ops, "trace": trace, "seed": seed,
            "malformed": workloads.malformed_ops(root, seed, work) if probes else [],
            "accuracy": workloads.accuracy_ops(root, seed, work) if probes else []
            }, len(ops)


def op_failures(res: dict) -> list[str]:
    if "error" in res:
        return [res["error"]]
    return [f"{op['key']}: {p}" for op in res["ops"] for p in op["problems"]]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list, n_floor: int) -> tuple[float, str]:
    """Highest ladder percentile with at least 10 samples beyond it
    (nearest rank); the maximum when there are fewer than 11 samples.
    The percentile is chosen from ``n_floor``, the op count every run
    reaches, so that it is the same percentile in every run of a workload."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        if min(n, n_floor) * (100.0 - p) / 100.0 >= 10.0:
            rank = max(1, -(-int(round(p * n)) // 100))
            return xs[rank - 1], f"p{p:g}"
    return xs[-1], f"max of {n} (fewer than 11 ops)"


# ---------------------------------------------------------------------------
# the untraced run of one workload
# ---------------------------------------------------------------------------

def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    children = []
    t0 = time.monotonic()
    while True:
        i = len(children)  # one probe per run; the sweeps cycle through variants
        job, work_count = job_for(runner.root, workload, seed, runner.work,
                                  variant=i % workloads.SWEEP_VARIANTS, probes=i == 0)
        res = runner.spawn(job)
        children.append(res)
        elapsed = time.monotonic() - t0
        if "error" in res or elapsed > RUN_LIMIT_S / 2:
            break
        if len(children) >= MIN_OPS and elapsed + res["wall_s"] > seconds:
            break
    return {"job": job, "work_count": work_count, "children": children,
            "measured_s": time.monotonic() - t0}


def end_to_end(workload: str, run: dict) -> tuple[dict, dict]:
    ok = [c for c in run["children"] if "error" not in c]
    n = len(ok)
    setup = [c["setup_s"] for c in ok]
    run_s = [c["run_s"] for c in ok]
    if workload == "certify-sweep":
        lat = [op["ms"] for c in ok for op in c["ops"] if not op["problems"]]
        rate = [sum(1 for op in c["ops"] if not op["problems"]) / c["run_s"] for c in ok]
    else:
        lat = [c["op_s"] * 1e3 for c in ok]
        rate = [run["work_count"] / c["run_s"] for c in ok]
    tail_ms, tail_label = tail(lat, MIN_OPS * len(run["job"]["ops"]))
    values = {
        "setup_s": (statistics.median(setup), n),
        "run_s": (statistics.median(run_s), n),
        "work_rate": (statistics.median(rate), n),
        "peak_rss_mb": (statistics.median(c["peak_rss_kb"] * 1024 / 1e6 for c in ok), n),
        "op_p50_ms": (statistics.median(lat), len(lat)),
        "op_tail_ms": (tail_ms, len(lat)),
    }
    notes = {"op_tail_ms": tail_label, "work_rate": f"{workloads.WORK_UNITS[workload]}/s",
             "op_p50_ms": "per cli op" if workload == "certify-sweep" else
             "per child process, spawn to last artifact"}
    return values, notes


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics over all four workloads
# ---------------------------------------------------------------------------

def traced_run(runner: Runner, seed: int) -> dict:
    root, work = runner.root, runner.work
    plan = [  # (label, workload, threads, traced)
        ("ergodic-l2", "ergodic-l2", 2, False),
        ("ergodic-l2+trace", "ergodic-l2", 2, True),
        ("ergodic-l2+trace/t1", "ergodic-l2", 1, True),
        ("survival-crn", "survival-crn", 2, False),
        ("survival-crn+trace", "survival-crn", 2, True),
        ("survival-crn+trace/t1", "survival-crn", 1, True),
        ("qsd-fv", "qsd-fv", 2, False),
        ("qsd-fv+trace", "qsd-fv", 2, True),
        ("certify-sweep", "certify-sweep", 2, False),
        ("certify-sweep+trace", "certify-sweep", 2, True),
    ]
    results, jobs = {}, {}
    for label, workload, threads, traced in plan:
        job, _ = job_for(root, workload, seed, work, threads, traced, probes=traced)
        jobs[label] = job
        results[label] = runner.spawn(job)
        log(f"  {label:24s} {results[label].get('run_s', float('nan')):9.4f} s run"
            f"{'  ' + results[label]['error'] if 'error' in results[label] else ''}")
    rng_job = {"setup_config": jobs["ergodic-l2"]["setup_config"], "ops": [],
               "trace": False, "seed": seed, "rng_probe": True}
    results["rng-probe"] = runner.spawn(rng_job)
    return {"results": results, "jobs": jobs}


def per_layer(traced: dict) -> tuple[dict, list]:
    r = traced["results"]
    errors = [f"{label}: {e}" for label, res in r.items() for e in op_failures(res)]
    if any("error" in res for res in r.values()):
        return {}, errors

    def names(label):
        return r[label]["trace"]["names"]

    def calls(label, name):
        return names(label).get(name, {}).get("calls", 0)

    def busy(label, name):
        return names(label).get(name, {}).get("total_s", 0.0)

    def extra(label, name, key):
        return r[label]["trace"]["extras"].get(name, {}).get(key, 0)

    def per_call(labels, name, scale):
        c = sum(calls(lb, name) for lb in labels)
        return scale * sum(busy(lb, name) for lb in labels) / c if c else 0.0

    traced_labels = [lb for lb in r if lb.endswith("+trace")]
    sweep = "certify-sweep+trace"
    n_sweep = len(r[sweep]["ops"])
    erg, surv, qsd = "ergodic-l2+trace", "survival-crn+trace", "qsd-fv+trace"
    model_ops = n_sweep - sum(1 for op in r[sweep]["ops"] if op["kind"] == "minorization") + 2
    malformed = r[sweep]["malformed"]
    cli_self = [v.get("cli", 0.0) for v in r[sweep]["trace"]["layer_self_by_op"].values()]

    def hashes(label):
        return [op["hashes"] for op in r[label]["ops"]]

    m = {
        "config.load_ms": per_call(traced_labels, "config.load_config", 1e3),
        "config.model_ms": per_call(traced_labels, "config.ExperimentConfig.model", 1e3),
        "config.model_validations_per_op":
            sum(r[lb]["trace"]["validations_in_ops"] for lb in (sweep, surv, qsd)) / model_ops,
        "config.clean_reject_frac":
            sum(1 for op in malformed if not op["problems"]) / len(malformed),
        "cli.self_ms": 1e3 * sum(cli_self) / n_sweep,
        "cli.artifact_bytes": sum(op["bytes"] for op in r[sweep]["ops"]) / n_sweep,
        "timefns.integrate_calls": calls(sweep, "timefns.integrate") / n_sweep,
        "timefns.integrand_evals": extra(sweep, "timefns.integrate", "evals") / n_sweep,
        "timefns.integrate_ms": 1e3 * busy(sweep, "timefns.integrate") / n_sweep,
        "ou.gaussian_tv_calls": calls(sweep, "ou.gaussian_tv") / n_sweep,
        "ou.gaussian_tv_ms": per_call([sweep], "ou.gaussian_tv", 1e3),
        "ou.gaussian_tv_probe_misses":
            sum(1 for op in r[sweep]["accuracy"] if op["problems"]),
        "ou.transition_params_calls": calls(sweep, "ou.transition_params") / n_sweep,
        "ou.transition_params_ms": per_call([sweep], "ou.transition_params", 1e3),
        "ou.grid_params_s": busy(erg, "ou.grid_transition_params"),
        "invariant.limiting_value_ms": per_call([erg], "invariant.limiting_value", 1e3),
        "certificates.check_drift_calls": calls(sweep, "certificates.check_drift"),
        "certificates.check_drift_ms": per_call([sweep], "certificates.check_drift", 1e3),
        "certificates.minorization_calls":
            calls(sweep, "certificates.gaussian_class_minorization"),
        "certificates.minorization_ms":
            per_call([sweep], "certificates.gaussian_class_minorization", 1e3),
        "rng.generators.ergodic-l2": calls(erg, "rng.make_generator"),
        "rng.generators.survival-crn": calls(surv, "rng.make_generator"),
        "rng.generators.qsd-fv": calls(qsd, "rng.make_generator"),
        "rng.make_generator_us": per_call(traced_labels, "rng.make_generator", 1e6),
        "rng.normals_per_s.block256": r["rng-probe"]["rng"]["block256"],
        "rng.normals_per_s.block2000": r["rng-probe"]["rng"]["block2000"],
        "ergodic.replica_steps":
            extra(erg, "ergodic.ergodic_time_averages", "replica_steps"),
        "ergodic.replica_steps_per_s":
            extra(erg, "ergodic.ergodic_time_averages", "replica_steps")
            / busy(erg, "ergodic.ergodic_time_averages"),
        "ergodic.thread_speedup": busy(erg + "/t1", "ergodic.ergodic_time_averages")
            / busy(erg, "ergodic.ergodic_time_averages"),
        "ergodic.serial_run_s": r[erg + "/t1"]["run_s"],
        "ergodic.thread_invariant": float(hashes(erg) == hashes(erg + "/t1")
                                          == hashes("ergodic-l2")),
        "absorbed.engine_passes": calls(surv, "absorbed.survival_flags"),
        "absorbed.path_steps": extra(surv, "absorbed.survival_flags", "path_steps"),
        "absorbed.path_steps_per_s": extra(surv, "absorbed.survival_flags", "path_steps")
            / busy(surv, "absorbed.survival_flags"),
        "absorbed.alive_frac_end": extra(surv, "absorbed.survival_flags", "alive")
            / extra(surv, "absorbed.survival_flags", "paths"),
        "absorbed.noise_batch_mb":
            8 * r[surv]["trace"]["maxima"].get("absorbed._engine.noise_elems", 0) / 1e6,
        "absorbed.serial_run_s": r[surv + "/t1"]["run_s"],
        "absorbed.thread_invariant": float(hashes(surv) == hashes(surv + "/t1")
                                           == hashes("survival-crn")),
        "absorbed.particle_steps": extra(qsd, "absorbed.fleming_viot", "particle_steps"),
        "absorbed.particle_steps_per_s":
            extra(qsd, "absorbed.fleming_viot", "particle_steps")
            / busy(qsd, "absorbed.fleming_viot"),
        "absorbed.respawns": extra(qsd, "absorbed.fleming_viot", "respawns"),
        "absorbed.respawn_step_frac": extra(qsd, "absorbed.fleming_viot", "respawn_steps")
            / extra(qsd, "absorbed.fleming_viot", "steps"),
        "measures.cell_index_s": busy(qsd, "measures.Mesh.cell_index"),
        "trace.overhead_s": sum(r[lb + "+trace"]["run_s"] - r[lb]["run_s"]
                                for lb in workloads.WORKLOADS),
    }
    for name in ("ergodic", "absorbed"):
        if m[f"{name}.thread_invariant"] != 1.0:
            errors.append(f"{name}: artifacts differ between --threads 1 and 2")
    return m, errors


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "apmarkov" / "__init__.py").is_file():
        print("error: no src/apmarkov here; run from the root of an apmarkov checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    out = HERE / "out"
    work = out / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    machine = machine_record()
    load_before = os.getloadavg()
    digest = code_digest(root)
    busy_start = load_before[0] > machine["nproc"]
    log(f"apmarkov benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}, code {digest}")
    log(f"machine: {machine['nproc']} cpus ({machine['cpu_model']}), caches "
        f"{machine['caches']}, python {machine['python']}, load {load_before}")
    if busy_start:
        log("WARNING: load average above nproc at start; timings are suspect")

    runner = Runner(root, work, started)
    failures: list[str] = []
    notes: dict = {}
    if args.trace:
        traced = traced_run(runner, args.seed)
        values, errors = per_layer(traced)
        failures += errors
        children = list(traced["results"].values())
        attempted = sum(len(j["ops"]) for j in traced["jobs"].values())
        hash_keys = {f"{lb}|{op['key']}": op["hashes"]
                     for lb, res in traced["results"].items() if "error" not in res
                     for op in res["ops"]}
        values = {k: (v, None) for k, v in values.items()}
        hooks = {h for res in children for h in (res.get("trace") or {}).get("missing", [])}
        if hooks:
            log(f"tracer: no such function {sorted(hooks)}; metrics read from it are 0")
    else:
        run = timed_run(runner, args.workload, args.seed, args.seconds)
        children = run["children"]
        per_child = len(run["job"]["ops"])
        attempted = per_child * len(children)
        for c in children:  # a crashed child fails all of its ops
            failures += op_failures(c) * (per_child if "error" in c else 1)
        ok = [c for c in children if "error" not in c]
        values, notes = end_to_end(args.workload, run) if ok else ({}, {})
        # byte determinism inside the run: every repeat of an op hashes equal
        hash_keys = {}
        for c in ok:
            for op in c["ops"]:
                first = hash_keys.setdefault(op["key"], op["hashes"])
                if op["hashes"] != first:
                    failures.append(f"{op['key']}: artifact hashes differ between repeats")
    versions = next((c["versions"] for c in children if "versions" in c), {})
    record_key = f"{args.workload if not args.trace else 'traced'}|seed={args.seed}"
    same, other = compare_hash_record(
        out / "hashes.json", digest,
        {f"{record_key}|{k}": v for k, v in hash_keys.items() if v})
    failures += [f"{k}: artifact hashes differ from an earlier run of this code"
                 for k in same]
    load_after = os.getloadavg()

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}; failures: {failures[:5]}",
              file=sys.stderr)
        return 1

    log(f"closed loop, 1 client: {len(children)} child processes, {attempted} ops "
        f"in {time.monotonic() - started:.1f} s")
    for name, unit in units.items():
        v, n = values[name]
        note = None
        if n is None:
            base = PER_LAYER_BASE[name]
        elif name == "op_tail_ms":
            base = f"{notes[name]} of {n}"
        else:
            base, note = f"median of {n}", notes.get(name)
        log(f"  {name:34s} {v:14.6g} {unit:6s} {base}{'; ' + note if note else ''}")
    n_failed = len(failures)
    log(f"  failed_frac                        {n_failed}/{attempted}")
    for f in failures[:20]:
        log(f"  FAILED {f}")
    probe = next((c["malformed"] for c in children if c.get("malformed")), [])
    for op in probe:
        log(f"  {op['key']:44s} {'exit 2' if not op['problems'] else op['problems'][0]}")
    probe = next((c["accuracy"] for c in children if c.get("accuracy")), [])
    for op in probe:
        log(f"  {op['key']:44s} {op['problems'][0] if op['problems'] else 'within 1e-9'}")
    if other:
        log(f"  {len(other)} artifact hashes changed against other code versions "
            "(reported, not counted)")
    log(f"load average before {load_before}, after {load_after}; versions {versions}")

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json").write_text(
        json.dumps({"args": vars(args), "code": digest, "machine": machine,
                    "versions": versions, "load_before": load_before,
                    "load_after": load_after, "busy_start": busy_start,
                    "metrics": {k: v for k, (v, _) in values.items()},
                    "samples": {k: n for k, (_, n) in values.items()}, "notes": notes,
                    "failures": failures, "hashes_changed_vs_other_code": other,
                    "children": children}, indent=1, default=str))
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
                      "metrics": {name: {"value": values[name][0], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
