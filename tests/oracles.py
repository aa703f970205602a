"""Independent oracles used to freeze expected values.

Everything here is derived from closed-form analysis (spectral series,
reflection images, Gaussian CDFs) or is a direct step-by-step specification,
not from the code under test.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm


def dirichlet_survival_spectral(x: float, T: float, radius: float = 1.0,
                                n_terms: int = 400) -> float:
    """P_x[no exit from (-radius, radius) before T], eigenfunction series."""
    y, s = x / radius, T / radius ** 2
    k = np.arange(1, n_terms + 1)
    coef = (4.0 / (np.pi * k)) * np.sin(k * np.pi / 2.0)  # 0 for even k
    return float(np.sum(coef * np.cos(k * np.pi * y / 2.0)
                        * np.exp(-k ** 2 * np.pi ** 2 * s / 8.0)))


def dirichlet_survival_images(x: float, T: float, radius: float = 1.0,
                              n_images: int = 60) -> float:
    """Same probability via the reflection (image-charge) representation:
    P_x[no exit from (-a,a) by t] = sum_k (-1)^k [Phi(((2k+1)a - x)/sqrt(t))
    - Phi(((2k-1)a - x)/sqrt(t))]."""
    y, s = x / radius, T / radius ** 2
    k = np.arange(-n_images, n_images + 1)
    sq = np.sqrt(s)
    terms = (-1.0) ** np.abs(k) * (norm.cdf((2 * k + 1 - y) / sq)
                                   - norm.cdf((2 * k - 1 - y) / sq))
    return float(terms.sum())


def qsd_density(x, radius: float = 1.0):
    """Quasi-stationary density on (-radius, radius): normalized cosine."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) < radius,
                   (np.pi / (4.0 * radius)) * np.cos(np.pi * x / (2.0 * radius)), 0.0)
    return out


def qed_density(x, radius: float = 1.0):
    """Quasi-ergodic density: squared cosine (eigenfunction-tilted law)."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) < radius,
                   np.cos(np.pi * x / (2.0 * radius)) ** 2 / radius, 0.0)
    return out


def qed_cell_masses(edges: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Exact per-cell integrals of the quasi-ergodic density."""
    e = np.clip(edges, -radius, radius)
    anti = e / (2.0 * radius) + np.sin(np.pi * e / radius) / (2.0 * np.pi)
    return np.diff(anti)


def qed_second_moment(radius: float = 1.0) -> float:
    """int x^2 cos^2(pi x / 2r)/r dx over (-r, r) = r^2 (1/3 - 2/pi^2)."""
    return radius ** 2 * (1.0 / 3.0 - 2.0 / np.pi ** 2)


def gaussian_tv_exact(mean1: float, sd1: float, mean2: float, sd2: float) -> float:
    """TV between two normals via density crossings and CDF differences."""
    if sd1 == sd2:
        if mean1 == mean2:
            return 0.0
        return float(2.0 * norm.cdf(abs(mean1 - mean2) / (2.0 * sd1)) - 1.0)
    alpha = 0.5 / sd2 ** 2 - 0.5 / sd1 ** 2
    beta = mean1 / sd1 ** 2 - mean2 / sd2 ** 2
    c0 = mean2 ** 2 / (2 * sd2 ** 2) - mean1 ** 2 / (2 * sd1 ** 2) + np.log(sd2 / sd1)
    disc = beta ** 2 - 4 * alpha * c0
    pts = []
    if disc >= 0:
        r = np.sqrt(disc)
        pts = sorted([(-beta - r) / (2 * alpha), (-beta + r) / (2 * alpha)])
    cuts = [-np.inf] + pts + [np.inf]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        d1 = norm.cdf(b, mean1, sd1) - norm.cdf(a, mean1, sd1)
        d2 = norm.cdf(b, mean2, sd2) - norm.cdf(a, mean2, sd2)
        total += abs(d1 - d2)
    return 0.5 * total


def ou_constant_variance(lam0: float, dt: float) -> float:
    """Exact transition variance of the constant-rate case."""
    if lam0 == 0.0:
        return dt
    return (1.0 - np.exp(-2.0 * lam0 * dt)) / (2.0 * lam0)


def ou_grid_params_quad(lam, dt: float, n_steps: int):
    """(m_k, sigma_k) of the exact step X_{k+1} = m_k X_k + sigma_k Z_k of
    dX = dW - lam(t) X dt on t_k = k dt, by adaptive quadrature of a scalar
    lam: m_k = exp(-int_{t_k}^{t_{k+1}} lam) and sigma_k^2 =
    int_{t_k}^{t_{k+1}} exp(-2 int_u^{t_{k+1}} lam) du."""
    m, sig = np.empty(n_steps), np.empty(n_steps)
    for k in range(n_steps):
        a, b = k * dt, (k + 1) * dt
        m[k] = math.exp(-quad(lam, a, b)[0])
        sig[k] = math.sqrt(quad(lambda u: math.exp(-2.0 * quad(lam, u, b)[0]), a, b)[0])
    return m, sig


def x2_average_moments(m, sig, dt: float, n_steps: int):
    """Exact (E A_t, Var A_t) of the trapezoid average A_t of X^2 over the
    first n_steps steps (t = n_steps dt) of the AR(1) chain with X_0 = 0.

    t A_t = sum_k w_k X_k^2 with w = dt (dt/2 at both ends).  X_k ~ N(0, v_k)
    with v_{k+1} = m_k^2 v_k + sigma_k^2, and Cov(X_k^2, X_j^2) = 2 C_kj^2
    (Isserlis) with C_kj = v_k m_k ... m_{j-1} for j > k, so
    t E A_t = sum w_k v_k and t^2 Var A_t = sum 2 w_k^2 v_k^2 + 4 sum w_k v_k^2 S_k,
    where S_k = m_k^2 (w_{k+1} + S_{k+1}) and S_n = 0.
    """
    w = np.full(n_steps + 1, dt)
    w[[0, -1]] = dt / 2.0
    v = np.zeros(n_steps + 1)
    for k in range(n_steps):
        v[k + 1] = m[k] ** 2 * v[k] + sig[k] ** 2
    S = np.zeros(n_steps + 1)
    for k in range(n_steps - 1, -1, -1):
        S[k] = m[k] ** 2 * (w[k + 1] + S[k + 1])
    t = n_steps * dt
    mean = float(np.sum(w * v)) / t
    var = float(np.sum(2.0 * w ** 2 * v ** 2) + 4.0 * np.sum(w * v ** 2 * S)) / t ** 2
    return mean, var


def x_average_moments(m, sig, dt: float, n_steps: int, mean0: float, sd0: float):
    """Exact (E A_t, Var A_t) of the trapezoid average A_t of X over the first
    n_steps steps (t = n_steps dt) of the AR(1) chain with X_0 ~ N(mean0, sd0^2).

    t A_t = sum_k w_k X_k with w = dt (dt/2 at both ends).  E X_{k+1} = m_k E X_k
    and v_{k+1} = m_k^2 v_k + sigma_k^2 with v_0 = sd0^2, and Cov(X_k, X_j) =
    v_k m_k ... m_{j-1} for j > k, so t E A_t = sum w_k E X_k and
    t^2 Var A_t = sum w_k^2 v_k + 2 sum w_k v_k S_k, where
    S_k = m_k (w_{k+1} + S_{k+1}) and S_n = 0.
    """
    w = np.full(n_steps + 1, dt)
    w[[0, -1]] = dt / 2.0
    mu, v = np.empty(n_steps + 1), np.empty(n_steps + 1)
    mu[0], v[0] = mean0, sd0 ** 2
    for k in range(n_steps):
        mu[k + 1] = m[k] * mu[k]
        v[k + 1] = m[k] ** 2 * v[k] + sig[k] ** 2
    S = np.zeros(n_steps + 1)
    for k in range(n_steps - 1, -1, -1):
        S[k] = m[k] * (w[k + 1] + S[k + 1])
    t = n_steps * dt
    mean = float(np.sum(w * mu)) / t
    var = float(np.sum(w ** 2 * v) + 2.0 * np.sum(w * v * S)) / t ** 2
    return mean, var


def _dirichlet_modes(y, k):
    """Eigenfunctions sin(k pi (y+1)/2) of the unit interval (-1, 1)."""
    return np.sin(k[:, None] * np.pi * (np.asarray(y)[None, :] + 1.0) / 2.0)


def dirichlet_heat_kernel(x: float, y, t: float, n_terms: int = 200):
    """Transition density of Brownian motion killed at -1 and 1."""
    k = np.arange(1, n_terms + 1)
    decay = np.exp(-k ** 2 * np.pi ** 2 * t / 8.0)
    fx = np.sin(k * np.pi * (x + 1.0) / 2.0)
    return (decay * fx) @ _dirichlet_modes(y, k)


def dirichlet_survival_fn(y, u: float, n_terms: int = 200):
    """P_y[no exit before u] as a function of the state y."""
    k = np.arange(1, n_terms + 1)
    c = (2.0 / (k * np.pi)) * (1.0 - np.cos(k * np.pi))  # 4/(k pi) for odd k
    decay = np.exp(-k ** 2 * np.pi ** 2 * u / 8.0)
    return (c * decay) @ _dirichlet_modes(y, k)


def conditioned_cell_masses(x: float, t: float, horizon: float,
                            edges: np.ndarray, n_sub: int = 32) -> np.ndarray:
    """Exact cell masses of law(X_t | tau > horizon) from X_0 = x, unit radius.

    Density proportional to p_t(x, y) * P_y[tau > horizon - t].
    """
    w = np.diff(edges)
    offs = (np.arange(n_sub) + 0.5) / n_sub
    pts = (edges[:-1][:, None] + w[:, None] * offs[None, :]).ravel()
    dens = dirichlet_heat_kernel(x, pts, t) * dirichlet_survival_fn(pts, horizon - t)
    cell = dens.reshape(len(w), n_sub).mean(axis=1) * w
    cell = np.maximum(cell, 0.0)
    return cell / cell.sum()


def gaussian_class_member_check(a: float, b_minus: float, b_plus: float, x: np.ndarray,
                                n_members: int, seed: int, scale: float = 1.0):
    """(worst margin, violations) of the Gaussian-class minorization check,
    one sampled member at a time: each member's density on the points x minus
    the floor c * nu, with the minorizing shape multiplied by ``scale``.

    The members are the seeded Philox draws the certificate makes; the floor
    comes from scipy's normal CDF and the closed-form mass of the shape.
    """
    mass = 2.0 * np.sqrt(2.0 * np.pi) * b_minus * norm.cdf(-a / b_minus)
    c = mass / (np.sqrt(2.0 * np.pi) * b_plus)
    shape = scale * np.minimum(np.exp(-(x - a) ** 2 / (2.0 * b_minus ** 2)),
                               np.exp(-(x + a) ** 2 / (2.0 * b_minus ** 2)))
    floor = c * (shape / mass)
    gen = np.random.Generator(np.random.Philox(key=seed))
    means = gen.uniform(-a, a, size=n_members) if a > 0 else np.zeros(n_members)
    sds = gen.uniform(b_minus, b_plus, size=n_members)
    worst, violations = np.inf, 0
    for m, sd in zip(means, sds):
        dens = np.exp(-0.5 * ((x - m) / sd) ** 2) / (np.sqrt(2.0 * np.pi) * sd)
        margin = float((dens - floor).min())
        worst = min(worst, margin)
        violations += margin < -1e-12
    return worst, violations


def bridge_uniform(key: int) -> float:
    """The bridge uniform of a 64-bit key, on Python ints: the middle of the
    key's cell among 2^52 equal cells of (0, 1)."""
    return ((key >> 12) + 0.5) / 2 ** 52


def reference_engine(ts, hb, x0, ids, seed, bridge, make_generator, substream_key):
    """The absorbed engine's specification: every path stepped one step at a
    time to the end of the window against every boundary row of hb.

    Path r draws its normals from make_generator(seed, r); its uniform at
    step k is bridge_uniform(substream_key(seed, r, k)), on Python ints.  A
    step from x to xn is a hit when |xn| >= h1 (tau at the step's end) or,
    with the bridge, when u < p (tau at the step's midpoint), where p is the
    Brownian-bridge crossing probability against the boundary linearised
    from h0 to h1, evaluated at every (boundary, path, step) with no cutoff.
    Returns tau, one row per boundary, and the whole paths.
    """
    hb = np.atleast_2d(hb)
    n_steps = len(ts) - 1
    z = np.array([make_generator(seed, r).standard_normal(n_steps) for r in ids])
    u = np.array([[bridge_uniform(substream_key(seed, r, k)) for k in range(n_steps)]
                  for r in ids]) if bridge else None
    x = np.full(len(ids), float(x0))
    tau = np.full((len(hb), len(ids)), np.inf)
    paths = [x]
    for k in range(n_steps):
        dt = ts[k + 1] - ts[k]
        xn = x + math.sqrt(dt) * z[:, k]
        h0, h1 = hb[:, k, None], hb[:, k + 1, None]
        up = np.exp(-2.0 * np.maximum(h0 - x, 0.0) * np.maximum(h1 - xn, 0.0) / dt)
        dn = np.exp(-2.0 * np.maximum(h0 + x, 0.0) * np.maximum(h1 + xn, 0.0) / dt)
        direct = np.abs(xn) >= h1
        hit = direct | (u[:, k] < up + dn - up * dn) if bridge else direct
        new = hit & (tau == np.inf)
        tau[new] = np.where(direct, ts[k + 1], ts[k] + 0.5 * dt)[new]
        x = xn
        paths.append(x)
    return tau, np.stack(paths, axis=1)
