import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from apmarkov.config import OBSERVABLES
from apmarkov.paths import Observable, SimulationError

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan,
            1.0, -1.0, 1.0 + 1e-12, -1.0 - 2e-12, 1e154, 1e200, -1e-200]
_VALUES = arrays(np.float64, array_shapes(max_dims=2, min_side=0, max_side=6),
                 elements=st.one_of(st.sampled_from(_SPECIAL), st.floats(width=64)))
_BOUNDS = st.one_of(st.none(), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e3))


def test_observable_bound_enforced():
    capped = Observable("capped", lambda x: x, bound=0.5)
    with pytest.raises(SimulationError):
        capped(np.array([0.2, 0.9]))


def outcome(obs, x, in_place):
    """(raised message or None, result bits or None, warning texts) of one call."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            vals = obs(x, out=x) if in_place else obs(x)
            return None, np.asarray(vals, dtype=float).view(np.uint64).tolist(), \
                [str(w.message) for w in seen]
        except SimulationError as e:
            return str(e), None, [str(w.message) for w in seen]


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(OBSERVABLES)), x=_VALUES, bound=_BOUNDS,
       declared=st.booleans())
def test_observables_give_the_same_bits_in_place(name, x, bound, declared):
    # every shipped observable, with its declared bound or another, gives the
    # same bits, the same SimulationError and the same warnings when it
    # writes into its input as when it allocates
    obs = OBSERVABLES[name]
    if not declared:
        obs = Observable(obs.name, obs.fn, bound)
    away = outcome(obs, x.copy(), in_place=False)
    assert outcome(obs, x.copy(), in_place=True) == away


@settings(max_examples=300, deadline=None)
@given(x=_VALUES, bound=st.one_of(st.sampled_from([0.0, 1.0, 1e154]), st.floats(0.0, 1e3)))
def test_bound_check_decides_as_the_absolute_values(x, bound):
    raised = outcome(Observable("id", lambda v: v, bound), x, in_place=False)[0] is not None
    assert raised == bool(np.any(np.abs(x) > bound + 1e-12))


@pytest.mark.parametrize("vals, raises", [
    (np.array([np.nan]), False),
    (np.array([np.nan, 0.5, np.nan]), False),
    (np.array([np.nan, 2.0]), True),  # a NaN does not hide a value past the bound
    (np.array([-2.0, np.nan]), True),
    (np.array([np.inf]), True),
    (np.array([-np.inf, 0.0]), True),
    (np.array([]), False),
    (np.empty((3, 0)), False),
    (1.0, False),
    (1.0 + 2e-12, True),
    (-1.0 - 2e-12, True),
    (np.float64(-0.0), False),
    (np.full((2, 3), 1.0 + 1e-13), False),
])
def test_bound_check_on_special_values(vals, raises):
    obs = Observable("id", lambda v: v, bound=1.0)
    if raises:
        with pytest.raises(SimulationError, match="exceeded declared bound 1.0"):
            obs(vals)
    else:
        assert np.array_equal(obs(vals), vals, equal_nan=True)


def test_ufunc_observables_write_into_out_and_callables_allocate():
    x = np.array([[-2.0, 0.5], [3.0, -0.0]])
    assert OBSERVABLES["x2"].fn is np.square
    for name in ("x2", "abs", "cos"):
        buf = x.copy()
        assert OBSERVABLES[name](buf, out=buf) is buf
        assert np.array_equal(buf, OBSERVABLES[name].fn(x))
    square = Observable("x2", lambda v: v * v)
    buf = x.copy()
    assert square(buf, out=buf) is not buf
    assert np.array_equal(buf, x)  # a plain callable leaves the buffer as it was
