"""Time-function algebra: expression trees over t with analytic derivatives,
and the one cumulative Simpson rule every time integral goes through.

Every model ingredient that varies in time (drift rates, boundary radii,
periodic envelopes) is a :class:`TimeFunction`: a small expression tree over
``{constant, t, sin, cos, exp, +, -, *, /, ^}`` that can be evaluated on
scalars or numpy arrays and differentiated symbolically (first and second
order).  Integrals in time (the OU exponent A = int lam, its variance
weight, the boundary clock int h^-2) are running Simpson sums of samples
taken every half panel, computed by :func:`simpson_profile`.

Textual grammar (EBNF), used by :func:`parse_time_function`::

    expr    = term , { ("+" | "-") , term } ;
    term    = factor , { ("*" | "/") , factor } ;
    factor  = unary , [ ("^" | "**") , factor ] ;   (* right associative *)
    unary   = "-" , unary | primary ;
    primary = NUMBER | "t" | "pi"
            | ("sin" | "cos" | "exp") , "(" , expr , ")"
            | "(" , expr , ")" ;

Exponents must be constant expressions (``h^2``, ``t^2``; never ``2^t``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

__all__ = [
    "TimeFunction",
    "TimeGrid",
    "TimeFunctionError",
    "const",
    "var_t",
    "parse_time_function",
    "simpson_profile",
    "derivative",
]


class TimeFunctionError(ValueError):
    """Malformed expression, unsupported derivative, or bad parameters."""


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

class _Node:
    def ev(self, t):  # pragma: no cover - abstract
        raise NotImplementedError

    def diff(self) -> "_Node":  # pragma: no cover - abstract
        raise NotImplementedError

    def fmt(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class _Const(_Node):
    value: float

    def ev(self, t):
        return self.value * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else self.value

    def diff(self):
        return _Const(0.0)

    def fmt(self):
        return repr(self.value)


@dataclass(frozen=True)
class _Var(_Node):
    def ev(self, t):
        return np.asarray(t, dtype=float) if np.ndim(t) else float(t)

    def diff(self):
        return _Const(1.0)

    def fmt(self):
        return "t"


def _is_const(node: _Node, value: Optional[float] = None) -> bool:
    return isinstance(node, _Const) and (value is None or node.value == value)


def _add(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const(a.value + b.value)
    return _Add(a, b)


def _sub(a: _Node, b: _Node) -> _Node:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const(a.value - b.value)
    return _Sub(a, b)


def _mul(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const(a.value * b.value)
    return _Mul(a, b)


def _div(a: _Node, b: _Node) -> _Node:
    if _is_const(a, 0.0):
        return _Const(0.0)
    if _is_const(b, 1.0):
        return a
    return _Div(a, b)


@dataclass(frozen=True)
class _Add(_Node):
    left: _Node
    right: _Node

    def ev(self, t):
        return self.left.ev(t) + self.right.ev(t)

    def diff(self):
        return _add(self.left.diff(), self.right.diff())

    def fmt(self):
        return f"({self.left.fmt()} + {self.right.fmt()})"


@dataclass(frozen=True)
class _Sub(_Node):
    left: _Node
    right: _Node

    def ev(self, t):
        return self.left.ev(t) - self.right.ev(t)

    def diff(self):
        return _sub(self.left.diff(), self.right.diff())

    def fmt(self):
        return f"({self.left.fmt()} - {self.right.fmt()})"


@dataclass(frozen=True)
class _Mul(_Node):
    left: _Node
    right: _Node

    def ev(self, t):
        return self.left.ev(t) * self.right.ev(t)

    def diff(self):
        return _add(_mul(self.left.diff(), self.right), _mul(self.left, self.right.diff()))

    def fmt(self):
        return f"({self.left.fmt()} * {self.right.fmt()})"


@dataclass(frozen=True)
class _Div(_Node):
    left: _Node
    right: _Node

    def ev(self, t):
        # 1/t at t = 0 is inf, not a warning; declared bounds reject it at load
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(self.left.ev(t), self.right.ev(t))

    def diff(self):
        num = _sub(_mul(self.left.diff(), self.right), _mul(self.left, self.right.diff()))
        return _div(num, _Pow(self.right, 2.0))

    def fmt(self):
        return f"({self.left.fmt()} / {self.right.fmt()})"


@dataclass(frozen=True)
class _Pow(_Node):
    base: _Node
    exponent: float

    def ev(self, t):
        base = self.base.ev(t)  # on float64 0^-1 is inf (bounds reject it), not an error
        with np.errstate(divide="ignore", invalid="ignore"):
            return (base if np.ndim(base) else np.float64(base)) ** self.exponent

    def diff(self):
        if self.exponent == 0.0:
            return _Const(0.0)
        inner = _Pow(self.base, self.exponent - 1.0) if self.exponent != 1.0 else _Const(1.0)
        return _mul(_mul(_Const(self.exponent), inner), self.base.diff())

    def fmt(self):
        return f"({self.base.fmt()} ^ {self.exponent!r})"


@dataclass(frozen=True)
class _Sin(_Node):
    arg: _Node

    def ev(self, t):
        return np.sin(self.arg.ev(t))

    def diff(self):
        return _mul(_Cos(self.arg), self.arg.diff())

    def fmt(self):
        return f"sin({self.arg.fmt()})"


@dataclass(frozen=True)
class _Cos(_Node):
    arg: _Node

    def ev(self, t):
        return np.cos(self.arg.ev(t))

    def diff(self):
        return _mul(_mul(_Const(-1.0), _Sin(self.arg)), self.arg.diff())

    def fmt(self):
        return f"cos({self.arg.fmt()})"


@dataclass(frozen=True)
class _Exp(_Node):
    arg: _Node

    def ev(self, t):
        return np.exp(self.arg.ev(t))

    def diff(self):
        return _mul(_Exp(self.arg), self.arg.diff())

    def fmt(self):
        return f"exp({self.arg.fmt()})"


# ---------------------------------------------------------------------------
# public wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeFunction:
    """Scalar function of time with declared bounds and optional period.

    ``lower`` and ``upper`` are bounds the user asserts for t >= 0; they are
    spot-checked (not proved) by :meth:`check_bounds`.  ``period`` declares
    gamma-periodicity, checked by :meth:`check_periodicity`.
    """

    root: _Node
    lower: float = -math.inf
    upper: float = math.inf
    period: Optional[float] = None
    source: str = field(default="", compare=False)

    def __call__(self, t):
        return self.root.ev(t)

    def derivative_fn(self, order: int = 1) -> "TimeFunction":
        """Symbolic derivative as a new TimeFunction (bounds not propagated)."""
        if order not in (1, 2):
            raise TimeFunctionError(f"derivative order must be 1 or 2, got {order}")
        node = self.root.diff()
        if order == 2:
            node = node.diff()
        return TimeFunction(node, source=f"d{order}({self.source or self.fmt()})/dt{order}")

    def fmt(self) -> str:
        return self.source or self.root.fmt()

    # -- algebra (used to build h^-2, h*h', ... without re-parsing) --------
    def __add__(self, other: "TimeFunction") -> "TimeFunction":
        return TimeFunction(_add(self.root, _as_node(other)))

    def __sub__(self, other: "TimeFunction") -> "TimeFunction":
        return TimeFunction(_sub(self.root, _as_node(other)))

    def __mul__(self, other: "TimeFunction") -> "TimeFunction":
        return TimeFunction(_mul(self.root, _as_node(other)))

    def __truediv__(self, other: "TimeFunction") -> "TimeFunction":
        return TimeFunction(_div(self.root, _as_node(other)))

    def __pow__(self, exponent: float) -> "TimeFunction":
        return TimeFunction(_Pow(self.root, float(exponent)))

    # -- declared-invariant spot checks ------------------------------------
    def check_bounds(self, t_max: float = 50.0, n: int = 2001) -> bool:
        ts = np.linspace(0.0, t_max, n)
        vals = self(ts)
        return bool(np.all(vals >= self.lower - 1e-12) and np.all(vals <= self.upper + 1e-12))

    def check_periodicity(self, t_max: float = 50.0, n: int = 2001) -> bool:
        if self.period is None:
            return True
        ts = np.linspace(0.0, t_max, n)
        a, b = self(ts), self(ts + self.period)
        return bool(np.all(np.abs(b - a) <= 1e-12 * (1.0 + np.abs(a))))


def _as_node(x: Union[TimeFunction, float, int]) -> _Node:
    if isinstance(x, TimeFunction):
        return x.root
    return _Const(float(x))


def const(value: float, **kw) -> TimeFunction:
    kw.setdefault("lower", value)
    kw.setdefault("upper", value)
    return TimeFunction(_Const(float(value)), **kw)


def var_t() -> TimeFunction:
    return TimeFunction(_Var())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FUNCS = {"sin": _Sin, "cos": _Cos, "exp": _Exp}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> TimeFunctionError:
        return TimeFunctionError(f"{msg} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def accept(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def parse(self) -> _Node:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return node

    def expr(self) -> _Node:
        node = self.term()
        while True:
            if self.accept("+"):
                node = _Add(node, self.term())
            elif self.peek() == "-":
                self.accept("-")
                node = _Sub(node, self.term())
            else:
                return node

    def term(self) -> _Node:
        node = self.factor()
        while True:
            # '**' belongs to the power operator, not to '*'
            self.skip_ws()
            if self.text.startswith("**", self.pos):
                raise self.error("unexpected '**'")
            if self.accept("*"):
                node = _Mul(node, self.factor())
            elif self.accept("/"):
                node = _Div(node, self.factor())
            else:
                return node

    def factor(self) -> _Node:
        # unary minus binds looser than the power operator: -t^2 == -(t^2)
        if self.accept("-"):
            return _mul(_Const(-1.0), self.factor())
        node = self.primary()
        self.skip_ws()
        if self.text.startswith("**", self.pos):
            self.pos += 2
            return self.pow_node(node)
        if self.accept("^"):
            return self.pow_node(node)
        return node

    def pow_node(self, base: _Node) -> _Node:
        exponent = self.factor()
        if not isinstance(exponent, _Const):
            raise self.error("exponent must be a constant")
        return _Pow(base, exponent.value)

    def primary(self) -> _Node:
        self.skip_ws()
        for name, cls in _FUNCS.items():
            if self.text.startswith(name, self.pos) and not self._ident_continues(self.pos + len(name)):
                self.pos += len(name)
                if not self.accept("("):
                    raise self.error(f"expected '(' after {name}")
                arg = self.expr()
                if not self.accept(")"):
                    raise self.error("expected ')'")
                return cls(arg)
        if self.text.startswith("pi", self.pos) and not self._ident_continues(self.pos + 2):
            self.pos += 2
            return _Const(math.pi)
        if self.text.startswith("t", self.pos) and not self._ident_continues(self.pos + 1):
            self.pos += 1
            return _Var()
        if self.accept("("):
            node = self.expr()
            if not self.accept(")"):
                raise self.error("expected ')'")
            return node
        return self.number()

    def _ident_continues(self, i: int) -> bool:
        return i < len(self.text) and (self.text[i].isalnum() or self.text[i] == "_")

    def number(self) -> _Node:
        self.skip_ws()
        start = self.pos
        seen_e = False
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isdigit() or c == ".":
                self.pos += 1
            elif c in "eE" and not seen_e and self.pos > start:
                seen_e = True
                self.pos += 1
                if self.pos < len(self.text) and self.text[self.pos] in "+-":
                    self.pos += 1
            else:
                break
        if self.pos == start:
            raise self.error("expected a number, 't', 'pi' or function")
        try:
            return _Const(float(self.text[start:self.pos]))
        except ValueError:
            raise self.error(f"bad number {self.text[start:self.pos]!r}")


def parse_time_function(text: str, lower: float = -math.inf, upper: float = math.inf,
                        period: Optional[float] = None) -> TimeFunction:
    """Parse the textual grammar into a TimeFunction with declared bounds."""
    root = _Parser(text).parse()
    return TimeFunction(root, lower=lower, upper=upper, period=period, source=text.strip())


# ---------------------------------------------------------------------------
# grids and integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0, t0+dt, ..., t0+n_steps*dt."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise TimeFunctionError(f"dt must be > 0, got {self.dt}")
        if self.n_steps < 1:
            raise TimeFunctionError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def t_end(self) -> float:
        return self.t0 + self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


def simpson_profile(vals: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Running integral of f along the last axis, one Simpson panel at a time.

    ``vals`` holds 2n+1 samples of f spaced delta/2: panel nodes at even
    indexes, panel midpoints at odd ones.  Returns ``(at_nodes, at_mids)``,
    the integral from the first sample to each of the n+1 nodes (0 first)
    and to each of the n midpoints.  Nodes add (delta/6)(f0 + 4 f1 + f2) per
    panel; a midpoint adds the half-panel rule (delta/24)(5 f0 + 8 f1 - f2)
    to the node before it.  Nodes are exact for cubics, midpoints for
    quadratics.
    """
    vals = np.asarray(vals, dtype=float)
    f0, f1, f2 = vals[..., 0:-2:2], vals[..., 1:-1:2], vals[..., 2::2]
    inc = (delta / 6.0) * (f0 + 4.0 * f1 + f2)
    at_nodes = np.concatenate([np.zeros(vals.shape[:-1] + (1,)), np.cumsum(inc, axis=-1)],
                              axis=-1)
    at_mids = at_nodes[..., :-1] + (delta / 24.0) * (5.0 * f0 + 8.0 * f1 - f2)
    return at_nodes, at_mids


def derivative(f: TimeFunction, t: float, order: int = 1) -> float:
    """Analytic derivative of order 1 or 2 at time t."""
    return float(f.derivative_fn(order)(t))
