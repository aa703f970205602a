"""Asymptotically periodic Ornstein-Uhlenbeck dynamics with exact transitions.

For dX_t = dW_t - lam(t) X_t dt the one-step law is Gaussian in closed form:

    X_t | X_s = x  ~  Normal(m x, sigma^2),
    m       = exp(-int_s^t lam(u) du),
    sigma^2 = m^2 * int_s^t exp(2 int_s^u lam(v) dv) du
            = int_s^t exp(-2 [A(t) - A(u)]) du,     A(u) = int_s^u lam,

so paths are sampled exactly in law (no Euler bias).  The same formulas with
the gamma-periodic drift g give the periodic auxiliary dynamics used as the
comparison semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .timefns import TimeFunction, TimeFunctionError, simpson_profile

__all__ = [
    "GaussianTransition",
    "OUSpec",
    "transition_params",
    "grid_transition_params",
    "drift_profile",
    "gaussian_tv",
    "asymptotic_periodicity_report",
    "default_ou_spec",
]

# sub-Simpson resolution: panels per unit time for single transitions, and
# panels per step for uniform grids (dt is small there)
_PANELS_PER_UNIT = 384
_PANELS_PER_STEP = 4


@dataclass(frozen=True)
class GaussianTransition:
    """Mean factor and standard deviation of one Gaussian kernel step."""

    m: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def compose(self, later: "GaussianTransition") -> "GaussianTransition":
        """Chapman-Kolmogorov: this step over [s,u] then ``later`` over [u,t]."""
        # hypot: a sum of squares can fall subnormal where sigma is a normal float
        return GaussianTransition(m=self.m * later.m,
                                  sigma=math.hypot(later.m * self.sigma, later.sigma))


def _row_params(drift: TimeFunction, starts: np.ndarray, length: float,
                n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact-transition parameters for windows [start, start+length].

    Each window is cut into ``n_panels`` Simpson panels (with midpoints).
    Returns (m, sigma) arrays over the windows.  The inner variance integral
    uses the shifted form int exp(-2[A(end) - A(u)]) du, whose integrand is
    <= 1, so long windows cannot overflow.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    if length == 0.0:
        ones = np.ones_like(starts)
        return ones, np.zeros_like(starts)
    delta = length / n_panels
    offs = 0.5 * delta * np.arange(2 * n_panels + 1)
    lam = np.asarray(drift(starts[:, None] + offs[None, :]), dtype=float)
    if lam.ndim == 1:  # constant drift collapses to a scalar row
        lam = np.broadcast_to(lam, (starts.size, offs.size))

    a_even, a_mid = simpson_profile(lam, delta)
    a_end = a_even[:, -1]

    # sigma^2 = sum of Simpson panels of exp(-2 (A(end) - A(u))); a plain sum,
    # not simpson_profile's running one, whose cumsum would change its bits
    e_even = np.exp(-2.0 * (a_end[:, None] - a_even))
    e_mid = np.exp(-2.0 * (a_end[:, None] - a_mid))
    var = (delta / 6.0) * np.sum(e_even[:, :-1] + 4.0 * e_mid + e_even[:, 1:], axis=1)
    return np.exp(-a_end), np.sqrt(var)


def transition_params(drift: TimeFunction, s: float, t: float) -> GaussianTransition:
    """(m, sigma) of the exact OU transition kernel over [s, t]."""
    if t < s:
        raise TimeFunctionError(f"transition_params needs s <= t, got s={s}, t={t}")
    if t == s:
        return GaussianTransition(m=1.0, sigma=0.0)
    n = max(24, int(math.ceil((t - s) * _PANELS_PER_UNIT)))
    m, sig = _row_params(drift, np.array([s]), t - s, n)
    return GaussianTransition(m=float(m[0]), sigma=float(sig[0]))


def grid_transition_params(drift: TimeFunction, t0: float, dt: float,
                           n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-step (m_k, sigma_k) over [t0 + k dt, t0 + (k+1) dt] for each of
    n_steps steps of a uniform grid, vectorized."""
    if not (dt > 0 and n_steps >= 1):
        raise TimeFunctionError(f"need dt > 0 and n_steps >= 1, got dt={dt}, n_steps={n_steps}")
    starts = t0 + dt * np.arange(n_steps)
    return _row_params(drift, starts, dt, _PANELS_PER_STEP)


def drift_profile(drift: TimeFunction, a: float, b: float,
                  n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes u_i of n Simpson panels on [a, b] with A(u_i) = int_a^{u_i}
    drift and sigma^2(a, u_i) of the transition over [a, u_i].

    sigma^2 is built over blocks of nodes in which |A(v) - A(b)| <= 100 from
    the block's first node b, so exp(2 [A(v) - A(b)]) cannot overflow; blocks
    join by Chapman-Kolmogorov: sigma^2(a, u) = exp(-2 [A(u) - A(b)])
    (sigma^2(a, b) + int_b^u exp(2 [A(v) - A(b)]) dv).
    """
    delta = (b - a) / n
    lam = np.asarray(drift(a + 0.5 * delta * np.arange(2 * n + 1)), dtype=float)
    a_nodes, a_mid = simpson_profile(lam, delta)
    a_all = np.empty(2 * n + 1)
    a_all[0::2] = a_nodes
    a_all[1::2] = a_mid
    span = np.abs(lam).max() * delta  # bound on |A| growth per panel
    per_block = max(1, int(100.0 / span)) if span > 0.0 else n
    var = np.zeros(n + 1)
    for i0 in range(0, n, per_block):
        i1 = min(i0 + per_block, n)
        rel = a_all[2 * i0:2 * i1 + 1] - a_nodes[i0]
        weight, _ = simpson_profile(np.exp(2.0 * rel), delta)
        var[i0:i1 + 1] = np.exp(-2.0 * rel[0::2]) * (var[i0] + weight)
    return a + delta * np.arange(n + 1), a_nodes, var


@dataclass(frozen=True)
class OUSpec:
    """Drift pair of an asymptotically periodic OU model.

    ``lam`` is the true drift rate (bounded, with positive mean rate over
    every period window) and ``g`` its gamma-periodic limit.
    """

    lam: TimeFunction
    g: TimeFunction
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")

    def validate(self) -> None:
        """Numerical spot checks of the standing assumptions."""
        if not (math.isfinite(self.lam.lower) and math.isfinite(self.lam.upper)):
            raise ValueError("lam must declare finite bounds")
        if not self.lam.check_bounds():
            raise ValueError("lam violates its declared bounds on the check grid")
        if self.g.period is None or abs(self.g.period - self.gamma) > 1e-12:
            raise ValueError(f"g must declare period gamma={self.gamma}")
        if not self.g.check_periodicity():
            raise ValueError("g is not periodic with the declared period")
        if not self.g.check_bounds():
            raise ValueError("g violates its declared bounds on the check grid")
        c = self.c_inf()
        if c <= 0:
            raise ValueError(f"mean drift rate over a period must stay positive, got {c:.3e}")

    def c_inf(self) -> float:
        """min over sampled s in [0, 40 gamma] of (1/gamma) int_s^{s+gamma}
        lam, on a dense grid."""
        per_window = 64
        n = 41 * per_window
        delta = self.gamma / per_window
        big_lambda, _ = simpson_profile(self.lam(0.5 * delta * np.arange(2 * n + 1)), delta)
        window = big_lambda[per_window:] - big_lambda[:-per_window]
        return float(window.min() / self.gamma)

    def drift(self, use_auxiliary: bool) -> TimeFunction:
        return self.g if use_auxiliary else self.lam


def default_ou_spec() -> OUSpec:
    """Periodic envelope g(t) = 1 + 0.5 sin(2 pi t) with a decaying
    multiplicative perturbation lam(t) = g(t) (1 + 0.3 exp(-0.7 t))."""
    from .timefns import parse_time_function

    g = parse_time_function("1 + 0.5*sin(2*pi*t)", lower=0.5, upper=1.5, period=1.0)
    lam = parse_time_function("(1 + 0.5*sin(2*pi*t)) * (1 + 0.3*exp(-0.7*t))",
                              lower=0.5, upper=1.95)
    return OUSpec(lam=lam, g=g, gamma=1.0)


# ---------------------------------------------------------------------------
# total variation between univariate Gaussians
# ---------------------------------------------------------------------------

# The standard normal CDF, Phi(a) = erfc(-a / sqrt 2) / 2, from the C
# library's erfc: within a few ulp of the exact erfc at the rounded argument
# (rounding a / sqrt 2 itself costs up to about a^2 / 2 ulp).  Arrays go
# through the same math.erfc, so both paths give the same bits.
_SQRT1_2 = 7.07106781186547524401e-1
_libm_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(a):
    """Standard normal CDF: a float for a scalar, else an array of a's shape."""
    if np.ndim(a) == 0:
        return 0.5 * math.erfc(-float(a) * _SQRT1_2)
    return 0.5 * _libm_erfc(-np.asarray(a, dtype=float) * _SQRT1_2).astype(float)


def _interval_mass(a: float, b: float, mean: float, sd: float) -> float:
    """P[a < X < b] for X ~ Normal(mean, sd^2), from the survival function
    when the interval lies above the mean (no 1 - 1 cancellation there)."""
    za, zb = (a - mean) / sd, (b - mean) / sd
    if za > 0.0:
        return _ndtr(-za) - _ndtr(-zb)
    return _ndtr(zb) - _ndtr(za)


def gaussian_tv(mean1: float, sd1: float, mean2: float, sd2: float) -> float:
    """TV distance in [0, 1] between Normal(mean1, sd1^2) and Normal(mean2,
    sd2^2), in closed form.

    With equal sds the densities cross once, midway, and the TV is
    erf(|mean1 - mean2| / (2 sqrt(2) sd)).  Otherwise they cross at the two
    roots x1 < x2 of log f1 - log f2 and the TV is the difference of the
    two laws' masses on (x1, x2).
    """
    if sd1 == 0.0 and sd2 == 0.0:
        return 0.0 if mean1 == mean2 else 1.0
    if sd1 == 0.0 or sd2 == 0.0:
        return 1.0
    if sd1 == sd2:
        return math.erf(abs(mean1 - mean2) / (2.0 * math.sqrt(2.0) * sd1))

    # log f1 - log f2 is the quadratic alpha x^2 + beta x + c0
    alpha = 0.5 / sd2 ** 2 - 0.5 / sd1 ** 2
    beta = mean1 / sd1 ** 2 - mean2 / sd2 ** 2
    c0 = mean2 ** 2 / (2.0 * sd2 ** 2) - mean1 ** 2 / (2.0 * sd1 ** 2) + math.log(sd2 / sd1)
    # unequal sds always cross twice; the clamp only absorbs rounding
    r = math.sqrt(max(beta ** 2 - 4.0 * alpha * c0, 0.0))
    q = -0.5 * (beta + math.copysign(r, beta))  # roots q/alpha and c0/q, no cancellation
    x1, x2 = sorted((q / alpha, c0 / q))
    tv = abs(_interval_mass(x1, x2, mean1, sd1) - _interval_mass(x1, x2, mean2, sd2))
    return min(tv, 1.0)


# ---------------------------------------------------------------------------
# asymptotic periodicity evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicityRow:
    k: int
    n: int
    s: float
    tv: float


def asymptotic_periodicity_report(spec: OUSpec, s: float, n: int,
                                  k_values: Sequence[int], x: float = 1.0) -> List[PeriodicityRow]:
    """TV between the true transition over [s+k gamma, s+(k+n) gamma] and the
    periodic auxiliary transition over [s, s+n gamma], started at the probe
    state x, for each k.

    The distances quantify how fast the shifted true dynamics approach the
    periodic dynamics; they should decay in k for drifts whose perturbation
    decays.
    """
    if not (0.0 <= s < spec.gamma):
        raise ValueError(f"s must lie in [0, gamma), got {s}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = transition_params(spec.g, s, s + n * spec.gamma)
    rows = []
    for k in k_values:
        p = transition_params(spec.lam, s + k * spec.gamma, s + (k + n) * spec.gamma)
        tv = gaussian_tv(p.m * x, p.sigma, q.m * x, q.sigma)
        rows.append(PeriodicityRow(k=int(k), n=n, s=s, tv=tv))
    return rows
