"""Independent reference solutions for the benchmark's output checks.

Nothing here imports extphase or compares against stored program output:
every reference is a closed form, or (for the two time-dependent CLI
scenarios) the same equations written out in plain floats and solved with
scipy's DOP853.  scipy is imported only inside `scipy_final_state`, which
the benchmark calls after it has read its peak memory.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# 1-D Kepler problem H = p^2/2 - K2/x
# ---------------------------------------------------------------------------


def freefall_time(K2, x0):
    """Time to fall from rest at x0 to the collision x = 0."""
    return 0.5 * math.pi * math.sqrt(x0 ** 3 / (2.0 * K2))


def radial_kepler_x(t, K2, x0):
    """x(t) of the radial (eccentricity 1) orbit released from rest at x0.

    With a = x0/2, x = a (1 + cos eta) and t = sqrt(a^3/K2) (eta + sin eta);
    Kepler's equation is solved for eta in [0, pi] by bisection, which is
    safe where its derivative 1 + cos eta vanishes at the collision.
    """
    a = 0.5 * x0
    mean = np.asarray(t, dtype=float) * math.sqrt(K2 / a ** 3)
    lo = np.zeros_like(mean)
    hi = np.full_like(mean, math.pi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = mid + np.sin(mid) < mean
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return a * (1.0 + np.cos(0.5 * (lo + hi)))


def regularized_orbit(tp, K2, x0, p0):
    """Closed form of the time-scaled orbit in fictitious time t'.

    x'' = 2 e0 x + K2 with x(0) = x0, x'(0) = x0 p0 and omega = sqrt(-2 e0)
    gives x = K2/omega^2 + C cos(omega t') + D sin(omega t'); the physical
    time t = integral of x dt'.  Returns (x, dx/dt', t).
    """
    w, A, C, D = _regularized_coefficients(K2, x0, p0)
    tp = np.asarray(tp, dtype=float)
    c, s = np.cos(w * tp), np.sin(w * tp)
    x = A + C * c + D * s
    v = w * (D * c - C * s)
    t = A * tp + (C * s - D * (c - 1.0)) / w
    return x, v, t


def regularized_minima(T, K2, x0, p0):
    """Number of minima of x in (0, T]; every one is a collision (x = 0)."""
    w, _, C, D = _regularized_coefficients(K2, x0, p0)
    phase = math.atan2(D, C)  # x = A + R cos(omega t' - phase)
    first = phase + math.pi   # in (0, 2 pi]
    if w * T < first:
        return 0
    return int(math.floor((w * T - first) / (2.0 * math.pi))) + 1


def _regularized_coefficients(K2, x0, p0):
    e0 = 0.5 * p0 ** 2 - K2 / x0
    if e0 >= 0.0:
        raise ValueError("orbit is not bound")
    w = math.sqrt(-2.0 * e0)
    A = K2 / w ** 2
    return w, A, x0 - A, x0 * p0 / w


# ---------------------------------------------------------------------------
# extended-phase-space propagation with k(s) = cos s
# ---------------------------------------------------------------------------


def reversed_time_oscillator(s):
    """H = (p^2 + q^2)/2 from (1, 0) with dt/ds = cos s: t = sin s.

    Returns (q, p, t, e) arrays; time runs backward while cos s < 0.
    """
    t = np.sin(np.asarray(s, dtype=float))
    return np.cos(t), -np.sin(t), t, np.full_like(t, 0.5)


# ---------------------------------------------------------------------------
# Lorentz boost
# ---------------------------------------------------------------------------


def boost(beta, c, q, p, t, e):
    """Image of (q, p, t, e) under the pure boost with velocity beta c.

    The textbook transformation acts alike on the four-vectors (q, c t) and
    (p, e/c).  Returns (q', p', t', e').
    """
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    gamma = 1.0 / math.sqrt(1.0 - b2)
    unit = beta / math.sqrt(b2)

    def act(x, x0):
        x = np.asarray(x, dtype=float)
        xs = x + (gamma - 1.0) * float(unit @ x) * unit - gamma * beta * x0
        return xs, gamma * (x0 - float(beta @ x))

    qs, cts = act(q, c * t)
    ps, ecs = act(p, e / c)
    return qs, ps, cts / c, ecs * c


# ---------------------------------------------------------------------------
# extended Poisson bracket, KS map and extended Legendre transform
# ---------------------------------------------------------------------------


def bracket_fg(q, p, t, e):
    """{F, G}_e of the two n = 2 fields below, from their written-out gradients.

    F = q1^2 p2 + e t + sin p1 and G = p1 q2 + p2 cos q1 + e^2 t;
    {F, G}_e = sum_i (F_qi G_pi - F_pi G_qi) - (F_t G_e - F_e G_t).
    """
    (q1, q2), (p1, p2) = q, p
    Fq, Fp = (2.0 * q1 * p2, 0.0), (math.cos(p1), q1 ** 2)
    Ft, Fe = e, t
    Gq, Gp = (-math.sin(q1) * p2, p1), (q2, math.cos(q1))
    Gt, Ge = e ** 2, 2.0 * e * t
    acc = sum(Fq[i] * Gp[i] - Fp[i] * Gq[i] for i in range(2))
    return acc - (Ft * Ge - Fe * Gt)


def ks_lift(u, p3):
    """KS momenta of physical momenta p3 at u: pu = 2 A(u)^T p, where
    A(u) is the KS matrix with q = A(u) u."""
    A = ks_matrix(u)
    return 2.0 * A[:3].T @ np.asarray(p3, dtype=float)


def ks_matrix(u):
    u1, u2, u3, u4 = u
    return np.array([[u1, -u2, -u3, u4],
                     [u2, u1, -u4, -u3],
                     [u3, u4, u1, u2],
                     [u4, -u3, u2, -u1]])


def ks_position(u):
    """Physical position (q1, q2, q3, 0) of KS coordinates u, with |q| = |u|^2."""
    return ks_matrix(u) @ np.asarray(u, dtype=float)


def oscillator_legendre(q, v, tau):
    """For L = qdot^2/2 - q^2/2 and L1 = L(q, v/tau) tau at (q, t; v, tau):
    returns (L1, p, p_t) with p = dL1/dv = v/tau and p_t = dL1/dtau = -H,
    H = p^2/2 + q^2/2.  L1 is homogeneous of degree 1 in (v, tau)."""
    p = v / tau
    return 0.5 * v * v / tau - 0.5 * q * q * tau, p, -(0.5 * p * p + 0.5 * q * q)


# ---------------------------------------------------------------------------
# time-dependent oscillator and potential, in plain floats
# ---------------------------------------------------------------------------


def oscillator_rhs(params):
    """H = e^{-F} p^2/2 + e^{F} w2 q^2/2 with F = f t, w2 = 1 + eps sin t.

    State (q.., p.., e, xi, xi', xi'', t'): e obeys de/dt = dH/dt, xi the
    third-order auxiliary equation xi''' = -xi' (4 w2 - f^2) - 2 xi eps cos t
    (f constant), and dt'/dt = 1/xi.
    """
    n, eps, f = params["n"], params["eps"], params["f"]

    def rhs(t, y):
        q, p = y[:n], y[n:2 * n]
        xi, xid, xidd = y[2 * n + 1:2 * n + 4]
        F = f * t
        w2 = 1.0 + eps * math.sin(t)
        dw2 = eps * math.cos(t)
        ef, emf = math.exp(F), math.exp(-F)
        p2, q2 = float(p @ p), float(q @ q)
        de = -0.5 * f * emf * p2 + 0.5 * ef * (f * w2 + dw2) * q2
        xiddd = -xid * (4.0 * w2 - f * f) - 2.0 * xi * dw2
        return np.concatenate([emf * p, -ef * w2 * q,
                               [de, xid, xidd, xiddd, 1.0 / xi]])

    q0, p0 = np.asarray(params["q0"], float), np.asarray(params["p0"], float)
    e0 = 0.5 * float(p0 @ p0) + 0.5 * float(q0 @ q0)
    y0 = np.concatenate([q0, p0, [e0, 1.0, 0.0, 0.0, 0.0]])
    return rhs, y0


def potential_rhs(params):
    """H = p^2/2 + (1 + eps sin t) q^2/2 (n = 1) with the transfer matrix.

    For this potential g1 = 2 eps cos t and g2 = 4 (1 + eps sin t), so
    Xi' = [[0, 1, 0], [0, 0, 1], [-g1, -g2, 0]] Xi.  State (q, p, e, Xi
    row-major).
    """
    eps = params["eps"]

    def rhs(t, y):
        q, p = y[0], y[1]
        w = 1.0 + eps * math.sin(t)
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                      [-2.0 * eps * math.cos(t), -4.0 * w, 0.0]])
        dXi = A @ y[3:].reshape(3, 3)
        return np.concatenate([[p, -w * q, 0.5 * eps * math.cos(t) * q * q],
                               dXi.ravel()])

    q0, p0 = params["q0"][0], params["p0"][0]
    y0 = np.concatenate([[q0, p0, 0.5 * p0 * p0 + 0.5 * q0 * q0],
                         np.eye(3).ravel()])
    return rhs, y0


def scipy_final_state(make_rhs, params):
    """Final state at t_end by DOP853 at rel/abs tolerance 1e-13."""
    from scipy.integrate import solve_ivp

    rhs, y0 = make_rhs(params)
    sol = solve_ivp(rhs, (0.0, params["t_end"]), y0, method="DOP853",
                    rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[:, -1]
