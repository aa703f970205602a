"""Config fuzzer: one field of a tiny shipped config replaced by a bad value.

Whatever the replacement, ``apmarkov run`` must exit 0, 2 or 3 without
raising, and an exit-2 message must name the field (or, for a model field,
the model).  The tiny copies use the sizes of the benchmark's malformed
probe, with every optional field the experiment reads spelled out at its
default, so a run takes milliseconds.

A replacement is of the wrong JSON type, null, NaN, +-inf, 0, negative,
off the dt grid by a fraction of dt, or just past a stated bound.  None
enlarges the work: a count or span only shrinks or turns invalid, and dt
only grows.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from apmarkov.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
H0 = 1.0 / 1.3  # the shipped boundary models' h at time 0


def _tiny(name: str, params: dict, **top) -> dict:
    doc = json.loads((CONFIGS / name).read_text())
    doc["params"].update(params)
    doc.update(top)
    return doc


TINY = [
    _tiny("ergodic_default.json", {"n_replicas": 8, "t_values": [1.0],
                                   "use_auxiliary": False}, threads=1),
    _tiny("survival_default.json", {"n_paths": 64, "k_values": [0], "t": 0.5, "dt": 0.01}),
    _tiny("qsd_default.json", {"n_particles": 16, "T": 0.5, "dt": 0.01, "burn_in": 0.0,
                               "initial": {"kind": "point", "x": 0.0}}),
    _tiny("drift_certificate.json", {"mesh": {"x_min": -8.0, "x_max": 8.0, "n_cells": 101},
                                     "use_auxiliary": False}),
    _tiny("minorization.json", {"n_members": 10,
                                "mesh": {"x_min": -8.0, "x_max": 8.0, "n_cells": 101}}),
    _tiny("asymptotic_periodicity.json", {}),
]

# values just past a stated bound, by experiment and dotted field path
JUST_PAST = {
    ("ergodic", "params.initial.kind"): "uniform",
    ("ergodic", "params.use_auxiliary"): "false",
    ("drift", "params.use_auxiliary"): "false",
    ("drift", "params.theta"): 1.0,
    ("drift", "params.s"): -5e-324,
    ("minorization", "params.a"): -5e-324,
    ("minorization", "params.b_minus"): math.nextafter(2.0, math.inf),  # b_plus = 2
    ("minorization", "params.mesh.x_min"): 8.0,  # = x_max
    ("qsd", "params.initial.kind"): "normal",
    ("qsd", "params.initial.x"): H0,
    ("qsd", "params.n_particles"): 1,
    ("qsd", "params.burn_in"): 0.5,  # = T
    ("survival", "params.x"): H0,
    ("survival", "params.s"): 0.51,  # t + dt
    ("asymptotic-periodicity", "params.s"): 1.0,  # = gamma
}


def _paths(node, prefix=()):
    """Every field path in a document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _replacements(doc: dict, path: tuple, value):
    """Strategy for the bad values that may replace ``value`` at ``path``."""
    options = [st.sampled_from(["x", "", "false", [], [value], {}, True, None,
                                math.nan, math.inf, -math.inf, 0])]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        dt = doc["params"].get("dt", 0.01)
        frac = st.floats(0.01, 0.99)
        options.append(frac.map(lambda f: -f * max(abs(value), dt)))
        if path[-1] == "dt":
            options.append(frac.map(lambda f: (1.0 + f) * value))
        else:
            options.append(frac.map(lambda f: value - f * dt if value > 0 else value + f * dt))
    past = JUST_PAST.get((doc["experiment"], ".".join(str(k) for k in path)))
    if past is not None:
        options.append(st.just(past))
    if path == ("seed",):
        options.append(st.just(-1))
    return st.one_of(options)


@st.composite
def mutations(draw):
    """(document, path, replacement) with the replacement already applied."""
    doc = copy.deepcopy(draw(st.sampled_from(TINY)))
    path = draw(st.sampled_from(sorted(_paths(doc), key=str)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    value = draw(_replacements(doc, path, node[path[-1]]))
    node[path[-1]] = value
    return doc, path, value


def check_mutation(doc: dict, path: tuple) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3), err.getvalue()
    if code == 2:
        message = err.getvalue()
        names = [k for k in path if isinstance(k, str) and k != "params"] or ["params"]
        assert any(re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])", message)
                   for name in names), (path, message)


@settings(max_examples=300, deadline=None)
@given(mutations())
def test_one_bad_field_exits_cleanly_and_names_it(mutation):
    doc, path, _ = mutation
    check_mutation(doc, path)
