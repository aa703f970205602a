import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apmarkov.ou import grid_transition_params
from apmarkov.timefns import (TimeFunction, TimeFunctionError, _Add, _Const,
                              _Cos, _Div, _Exp, _Mul, _Pow, _Sin, _Sub, _Var, _mul,
                              const, parse_time_function, simpson_profile)

RNG = np.random.default_rng(2024)

# corpus of (text, reference lambda) pairs used across the property checks
CORPUS = [
    ("1 + 0.5*sin(2*pi*t/1.0) + 0.3*exp(-0.7*t)",
     lambda t: 1 + 0.5 * np.sin(2 * np.pi * t) + 0.3 * np.exp(-0.7 * t)),
    ("(1 + 0.25*sin(2*pi*t)) / (1 + 0.3*exp(-0.7*t))",
     lambda t: (1 + 0.25 * np.sin(2 * np.pi * t)) / (1 + 0.3 * np.exp(-0.7 * t))),
    ("cos(t)^2 + 0.1*t", lambda t: np.cos(t) ** 2 + 0.1 * t),
    ("exp(-t^2/4)", lambda t: np.exp(-t ** 2 / 4)),
    ("2", lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float))),
    ("-t + t*t", lambda t: -t + t * t),
]


@pytest.mark.parametrize("text,ref", CORPUS)
def test_parse_matches_reference(text, ref):
    f = parse_time_function(text)
    ts = RNG.uniform(0, 5, 50)
    np.testing.assert_allclose(f(ts), ref(ts), rtol=1e-12)
    # scalar evaluation too
    assert f(1.25) == pytest.approx(float(ref(1.25)), rel=1e-12)


def test_parse_power_forms():
    assert parse_time_function("t**3")(2.0) == pytest.approx(8.0)
    assert parse_time_function("t^3")(2.0) == pytest.approx(8.0)
    assert parse_time_function("2^2")(0.0) == pytest.approx(4.0)


@pytest.mark.parametrize("bad", [
    "1 +", "sin(t", "t t", "sin", "2 ** t", "t^(1+t)", "foo(t)", "", "1..2",
    # Python reads these, but they are not in the grammar
    "#", "t # note", "\u0663", "0x10", "1_0", "1j", "True", "'a'", "t.real", "t[0]",
    "t < 1", "sin(t, t)", "sin(t,)", "sin(x=t)", "(sin)(t)", "+t", "1in t", "t\x00",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(TimeFunctionError):
        parse_time_function(bad)


def test_declared_bounds_and_period_checks():
    g = parse_time_function("1 + 0.5*sin(2*pi*t)", lower=0.5, upper=1.5, period=1.0)
    assert g.check_bounds()
    assert g.check_periodicity()
    too_tight = parse_time_function("1 + 0.5*sin(2*pi*t)", lower=0.6, upper=1.5)
    assert not too_tight.check_bounds()
    not_periodic = parse_time_function("t", period=1.0)
    assert not not_periodic.check_periodicity()
    # sin's rounding grows with t and with the amplitude; the tolerance
    # scales with max |g| on the check grid, so a large amplitude still passes
    for amp in (10, 100, 1e4):
        assert parse_time_function(f"1 + {amp}*sin(2*pi*t)", period=1.0).check_periodicity()


# (text, tree) pairs of the grammar: numbers, t and pi under left-associative
# chains of + - * / (precedence by the grammar), unary minus, sin/cos/exp and
# constant powers.  The tree is the one the grammar defines: raw binary nodes,
# unary minus as _mul(-1, x), pi and numbers as constants
_BINARY = {"+": _Add, "-": _Sub, "*": _Mul, "/": _Div}
_NUMBERS = st.one_of(st.floats(0.0, 5.0).map(repr), st.integers(0, 9).map(str),
                     st.sampled_from(["007", "1e-05", ".5", "5.", "2E+1"]))
_LEAVES = st.one_of(st.just(("t", _Var())), st.just(("pi", _Const(math.pi))),
                    _NUMBERS.map(lambda text: (text, _Const(float(text)))))
# exponent texts with their values
_EXPONENTS = st.sampled_from([("2", 2.0), ("3", 3.0), ("0.5", 0.5), ("-1", -1.0),
                              ("-1.5", -1.5), ("pi", math.pi), ("-(2)", -2.0)])


def _chain(pairs, ops):
    text, tree = pairs[0]
    for op, (t, node) in zip(ops, pairs[1:]):
        text, tree = f"{text} {op} {t}", _BINARY[op](tree, node)
    return text, tree


def _chains(atoms, ops):
    return st.lists(atoms, min_size=1, max_size=3).flatmap(
        lambda pairs: st.lists(st.sampled_from(ops), min_size=len(pairs) - 1,
                               max_size=len(pairs) - 1).map(lambda o: _chain(pairs, o)))


def _compound(inner):
    atom = inner.map(lambda p: (f"({p[0]})", p[1]))
    funcs = {"sin": _Sin, "cos": _Cos, "exp": _Exp}
    return st.one_of(
        _chains(_chains(atom, ["*", "/"]), ["+", "-"]),
        st.tuples(st.sampled_from(sorted(funcs)), inner).map(
            lambda p: (f"{p[0]}({p[1][0]})", funcs[p[0]](p[1][1]))),
        atom.map(lambda p: (f"-{p[0]}", _mul(_Const(-1.0), p[1]))),
        st.tuples(atom, st.sampled_from(["^", "**"]), _EXPONENTS).map(
            lambda p: (f"{p[0][0]}{p[1]}{p[2][0]}", _Pow(p[0][1], p[2][1]))),
        # unary minus binds looser than the power: -(x)^2 is -((x)^2)
        st.tuples(atom, _EXPONENTS).map(
            lambda p: (f"-{p[0][0]}^{p[1][0]}", _mul(_Const(-1.0), _Pow(p[0][1], p[1][1])))))


_GRAMMAR = st.recursive(_LEAVES, _compound, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(pair=_GRAMMAR, blank=st.sampled_from(["", " ", "\n", " \t\n "]))
def test_parser_builds_the_grammar_tree(pair, blank):
    text, tree = pair
    assert parse_time_function(blank + text + blank).root == tree


@pytest.mark.parametrize("text,tree", [
    ("  t", _Var()),
    ("t\n+\n1", _Add(_Var(), _Const(1.0))),
    ("007", _Const(7.0)),
    ("t^02", _Pow(_Var(), 2.0)),
    ("1e-05", _Const(1e-05)),
    (".5", _Const(0.5)),
    ("5.", _Const(5.0)),
])
def test_parse_accepts_blanks_and_python_number_forms(text, tree):
    assert parse_time_function(text).root == tree


def test_parse_records_no_warning():
    # Python warns on 1in t ("invalid decimal literal") before the walk rejects it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TimeFunctionError):
            parse_time_function("1in t")
    assert caught == []


@pytest.mark.parametrize("deep", ["1" + " + t" * 1500, "-" * 5000 + "t",
                                  "-" * 100_000 + "t", "(" * 300 + "t" + ")" * 300],
                         ids=["walk", "python-recursion", "python-memory", "parentheses"])
def test_parse_too_deep_is_a_time_function_error(deep):
    with pytest.raises(TimeFunctionError):
        parse_time_function(deep)


@settings(max_examples=300, deadline=None)
@given(pair=_GRAMMAR)
def test_format_parse_round_trip(pair):
    f = parse_time_function(pair[0])
    f_tree = TimeFunction(f.root)  # formats its node tree, not the source text
    again = parse_time_function(f_tree.fmt())
    assert again.root == f.root
    ts = np.linspace(0.0, 3.0, 31)
    with np.errstate(all="ignore"):
        assert np.array_equal(again(ts), f(ts), equal_nan=True)


# -- derivatives -------------------------------------------------------------

def test_derivative_of_constant_is_zero():
    assert const(3.7).derivative_fn(1)(1.2) == 0.0
    assert const(3.7).derivative_fn(2)(1.2) == 0.0


def test_derivative_sin_frozen_values():
    h = parse_time_function("sin(2*pi*t)")
    assert h.derivative_fn(1)(0.0) == pytest.approx(2 * math.pi, rel=1e-14)
    assert h.derivative_fn(2)(0.0) == pytest.approx(0.0, abs=1e-12)


def test_derivative_order_validation():
    f = parse_time_function("t")
    with pytest.raises(TimeFunctionError):
        f.derivative_fn(3)


@pytest.mark.parametrize("text,_", CORPUS)
def test_derivatives_match_central_differences(text, _):
    f = parse_time_function(text)
    ts = RNG.uniform(0.1, 5, 100)
    eps = 1e-5
    d1 = f.derivative_fn(1)(ts)
    fd1 = (f(ts + eps) - f(ts - eps)) / (2 * eps)
    np.testing.assert_allclose(d1, fd1, rtol=1e-6, atol=1e-8)
    d2 = f.derivative_fn(2)(ts)
    fd2 = (f(ts + eps) - 2 * f(ts) + f(ts - eps)) / eps ** 2
    np.testing.assert_allclose(d2, fd2, rtol=1e-4, atol=1e-5)


# -- cumulative integrals ----------------------------------------------------

def half_panel_samples(f, a, delta, n):
    """f at the 2n+1 points a, a + delta/2, ..., a + n delta."""
    return f(a + 0.5 * delta * np.arange(2 * n + 1))


def test_cumulative_constant_is_linear():
    times = 0.1 * np.arange(21)
    nodes, mids = simpson_profile(half_panel_samples(const(1.0), 0.0, 0.1, 20), 0.1)
    np.testing.assert_allclose(nodes, times, rtol=0, atol=1e-14)
    np.testing.assert_allclose(mids, times[:-1] + 0.05, rtol=0, atol=1e-14)


def test_simpson_profile_exact_for_cubic_nodes_and_quadratic_mids():
    a, delta, n = 0.25, 0.125, 16
    cubic = parse_time_function("1 - 2*t + 3*t^2 - 4*t^3")
    nodes, _ = simpson_profile(half_panel_samples(cubic, a, delta, n), delta)

    def cubic_anti(t):
        return t - t ** 2 + t ** 3 - t ** 4

    u = a + delta * np.arange(n + 1)
    np.testing.assert_allclose(nodes, cubic_anti(u) - cubic_anti(a), rtol=0, atol=1e-13)

    quad = parse_time_function("2 - t + 6*t^2")
    nodes, mids = simpson_profile(half_panel_samples(quad, a, delta, n), delta)

    def quad_anti(t):
        return 2 * t - t ** 2 / 2 + 2 * t ** 3

    um = u[:-1] + 0.5 * delta
    np.testing.assert_allclose(mids, quad_anti(um) - quad_anti(a), rtol=0, atol=1e-13)


def test_simpson_profile_rows_match_one_dimensional_calls():
    f = parse_time_function("1 + 0.5*sin(2*pi*t) + 0.3*exp(-0.7*t)")
    delta, n = 0.01, 40
    starts = np.array([0.0, 0.37, 2.5, 11.0])
    rows = f(starts[:, None] + 0.5 * delta * np.arange(2 * n + 1)[None, :])
    nodes, mids = simpson_profile(rows, delta)
    assert nodes.shape == (4, n + 1) and mids.shape == (4, n)
    for i, row in enumerate(rows):
        row_nodes, row_mids = simpson_profile(row, delta)
        np.testing.assert_array_equal(nodes[i], row_nodes)
        np.testing.assert_array_equal(mids[i], row_mids)


def test_cumulative_clock_constant_boundaries():
    times = 0.05 * np.arange(41)
    # the clock integrand h^-2 from the boundary's samples, as the Girsanov clock builds it
    v1 = half_panel_samples(const(1.0), 0.0, 0.05, 40)
    clock, _ = simpson_profile(1.0 / (v1 * v1), 0.05)
    np.testing.assert_allclose(clock, times, atol=1e-14)
    v2 = half_panel_samples(const(2.0), 0.0, 0.05, 40)
    clock2, _ = simpson_profile(1.0 / (v2 * v2), 0.05)
    np.testing.assert_allclose(clock2, times / 4.0, atol=1e-14)


def test_cumulative_endpoint_matches_integrate():
    f = parse_time_function("1 + 0.5*sin(2*pi*t) + 0.3*exp(-0.7*t)")
    nodes, mids = simpson_profile(half_panel_samples(f, 0.5, 0.01, 250), 0.01)

    def anti(t):  # closed-form antiderivative of f
        return t - np.cos(2 * np.pi * t) / (4 * np.pi) - (0.3 / 0.7) * np.exp(-0.7 * t)

    u = 0.5 + 0.01 * np.arange(251)
    np.testing.assert_allclose(nodes, anti(u) - anti(0.5), rtol=0, atol=1e-9 + 1e-11)
    # the half-panel midpoint rule is exact for quadratics only: one order less
    np.testing.assert_allclose(mids, anti(u[:-1] + 0.005) - anti(0.5), rtol=0, atol=5e-9)


def test_cumulative_monotone_for_nonnegative():
    f = parse_time_function("cos(t)^2")
    nodes, _ = simpson_profile(half_panel_samples(f, 0.0, 0.02, 300), 0.02)
    assert np.all(np.diff(nodes) >= -1e-15)


def test_grid_validation():
    with pytest.raises(TimeFunctionError, match="dt"):
        grid_transition_params(const(1.0), t0=0.0, dt=-0.1, n_steps=5)
    with pytest.raises(TimeFunctionError, match="n_steps"):
        grid_transition_params(const(1.0), t0=0.0, dt=0.1, n_steps=0)
