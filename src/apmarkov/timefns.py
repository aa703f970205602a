"""Time functions (expression trees over t with analytic derivatives), the
dt-grid rule, and the one cumulative Simpson rule for every time integral.

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
    factor  = "-" , factor
            | primary , [ ("^" | "**") , factor ] ;   (* right associative *)
    primary = NUMBER | "t" | "pi"
            | ("sin" | "cos" | "exp") , "(" , expr , ")"
            | "(" , expr , ")" ;

This is Python's expression grammar with ``^`` for ``**``, so Python's own
parser (``ast``) reads the text and a walk keeps only these node kinds.
NUMBER is an ASCII decimal literal.  Exponents must be constant expressions
(``h^2``, ``t^2``; never ``2^t``).
"""

from __future__ import annotations

import ast
import math
import re
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "TimeFunction",
    "TimeGrid",
    "TimeFunctionError",
    "const",
    "parse_time_function",
    "simpson_profile",
    "grid_steps",
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

    def fmt(self):  # a negative base needs its parentheses: (-2.0)^2 is not -(2.0^2)
        return repr(self.value) if self.value >= 0 else f"({self.value!r})"


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
    spot-checked (not proved) on 2001 points of [0, 50] by :meth:`check_bounds`.
    ``period`` declares gamma-periodicity, checked on the same points by
    :meth:`check_periodicity`.
    """

    root: _Node
    lower: float = -math.inf
    upper: float = math.inf
    period: Optional[float] = None
    source: str = field(default="", compare=False)

    def __call__(self, t):
        try:
            return self.root.ev(t)
        except RecursionError:  # raised once the stack has unwound, naming this function
            exc = TimeFunctionError("an expression is too deep to evaluate")
            exc.fn = self
            raise exc from None

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

    # -- declared-invariant spot checks ------------------------------------
    def check_bounds(self) -> bool:
        ts = np.linspace(0.0, 50.0, 2001)
        vals = self(ts)
        return bool(np.all(vals >= self.lower - 1e-12) and np.all(vals <= self.upper + 1e-12))

    def check_periodicity(self) -> bool:
        if self.period is None:
            return True
        ts = np.linspace(0.0, 50.0, 2001)
        a, b = self(ts), self(ts + self.period)
        return bool(np.all(np.abs(b - a) <= 1e-12 * (1.0 + np.abs(a))))


def const(value: float, **kw) -> TimeFunction:
    kw.setdefault("lower", value)
    kw.setdefault("upper", value)
    return TimeFunction(_Const(float(value)), **kw)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FUNCS = {"sin": _Sin, "cos": _Cos, "exp": _Exp}
_BINOPS = {ast.Add: _Add, ast.Sub: _Sub, ast.Mult: _Mul, ast.Div: _Div}
_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
# leading zeros of a number, which Python rejects in integer literals (007)
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=[0-9])")


def _read(text: str) -> _Node:
    """The grammar's tree for ``text``: Python reads the expression, with
    ``^`` for ``**``, and the walk keeps only the grammar's node kinds."""
    src = " ".join(text.split())  # Python rejects a leading blank or a newline
    # printable ASCII (col_offset counts bytes), with no comment and no comma
    if not (src.isascii() and src.isprintable()) or "#" in src or "," in src:
        raise TimeFunctionError(f"unexpected character in {text!r}")
    src = _LEADING_ZEROS.sub("", src.replace("^", "**"))

    def walk(node) -> _Node:
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Pow):
                if not isinstance(right, _Const):
                    raise TimeFunctionError(f"exponent must be a constant in {text!r}")
                return _Pow(left, right.value)
            if type(node.op) in _BINOPS:
                return _BINOPS[type(node.op)](left, right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return _mul(_Const(-1.0), walk(node.operand))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords
              # the name itself, not a parenthesized one as in (sin)(t)
              and src[node.func.end_col_offset:].lstrip().startswith("(")):
            return _FUNCS[node.func.id](walk(node.args[0]))
        elif isinstance(node, ast.Name) and node.id in ("t", "pi"):
            return _Var() if node.id == "t" else _Const(math.pi)
        elif isinstance(node, ast.Constant):
            literal = src[node.col_offset:node.end_col_offset]
            if _NUMBER.fullmatch(literal):
                return _Const(float(literal))
        raise TimeFunctionError(f"{ast.get_source_segment(src, node)!r} is not in the "
                                f"grammar, at position {node.col_offset} in {src!r}")

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 1in t warns, then fails the walk
            return walk(ast.parse(src, mode="eval").body)
    except SyntaxError as exc:
        raise TimeFunctionError(f"{exc.msg} at position {(exc.offset or 1) - 1} "
                                f"in {src!r}") from None
    except (RecursionError, MemoryError):  # too deep to walk, or for Python's parser
        raise TimeFunctionError(f"expression too deep in {text[:40]!r}...") from None


def parse_time_function(text: str, lower: float = -math.inf, upper: float = math.inf,
                        period: Optional[float] = None) -> TimeFunction:
    """Parse the textual grammar into a TimeFunction with declared bounds."""
    root = _read(text)
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


def grid_steps(span: float, dt: float, name: str) -> int:
    """Number of dt steps in a span, which must be a multiple of dt within
    1e-9 max(1, span); the one grid rule for every simulated window."""
    n_steps = int(round(span / dt)) if math.isfinite(span / dt) else None
    if n_steps is None or abs(n_steps * dt - span) > 1e-9 * max(1.0, span):
        raise TimeFunctionError(f"{name}={span!r} is not a multiple of dt={dt!r}")
    return n_steps


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

