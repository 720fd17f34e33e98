"""Foundational numerics: forward-mode dual arithmetic and adaptive ODE integration.

Everything downstream differentiates scalar fields through :class:`Dual`
values, so all scenario Hamiltonians and generating functions must be written
with the generic helpers (`sqrt`, `exp`, ...) from this module instead of
`math.*` calls.  Duals nest: seeding a function whose inputs are already dual
yields exact second derivatives, which is how Hessians and Jacobians through
implicit solves are obtained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyError,
    DomainEvaluationError,
    ImplicitSolveError,
    IntegrationStallError,
)

# ---------------------------------------------------------------------------
# dual numbers
# ---------------------------------------------------------------------------


class Dual:
    """A scalar with a tuple of first-order partials (one slot per seed).

    Each seeding generation carries a monotonically increasing ``tag``;
    when duals of different generations meet, the older one is a constant
    with respect to the newer seeds.  This keeps nested differentiation
    (Jacobians through Newton solves, mixed Hessians) free of
    perturbation confusion.
    """

    __slots__ = ("val", "eps", "tag")

    def __init__(self, val, eps, tag=0):
        self.val = val
        self.eps = tuple(eps)
        self.tag = tag

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(self.val + other.val,
                            tuple(a + b for a, b in zip(self.eps, other.eps)),
                            self.tag)
            if other.tag > self.tag:
                return other.__add__(self)
        return Dual(self.val + other, self.eps, self.tag)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(self.val - other.val,
                            tuple(a - b for a, b in zip(self.eps, other.eps)),
                            self.tag)
            if other.tag > self.tag:
                return (-other).__add__(self)
        return Dual(self.val - other, self.eps, self.tag)

    def __rsub__(self, other):
        return Dual(other - self.val, tuple(-a for a in self.eps), self.tag)

    def __mul__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(self.val * other.val,
                            tuple(a * other.val + self.val * b
                                  for a, b in zip(self.eps, other.eps)),
                            self.tag)
            if other.tag > self.tag:
                return other.__mul__(self)
        return Dual(self.val * other, tuple(a * other for a in self.eps),
                    self.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                inv = 1.0 / other.val if not isinstance(other.val, Dual) \
                    else other.val ** -1.0
                q = self.val * inv
                return Dual(q, tuple((a - q * b) * inv
                                     for a, b in zip(self.eps, other.eps)),
                            self.tag)
            if other.tag > self.tag:
                return other.__rtruediv__(self)
            inv = other ** -1.0
            return Dual(self.val * inv, tuple(a * inv for a in self.eps),
                        self.tag)
        inv = 1.0 / other
        return Dual(self.val * inv, tuple(a * inv for a in self.eps),
                    self.tag)

    def __rtruediv__(self, other):
        q = other / self.val
        inv = q / self.val
        return Dual(q, tuple(-inv * a for a in self.eps), self.tag)

    def __pow__(self, k):
        if isinstance(k, Dual):
            return exp(k * log(self))
        if k == 0:
            return Dual(self.val * 0 + 1.0,
                        tuple(0.0 * a for a in self.eps), self.tag)
        w = self.val ** (k - 1)
        return Dual(w * self.val, tuple((k * w) * a for a in self.eps),
                    self.tag)

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.eps), self.tag)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if value_of(self) < 0.0 else self

    # comparisons act on the primal value only
    def __lt__(self, other):
        return value_of(self) < value_of(other)

    def __le__(self, other):
        return value_of(self) <= value_of(other)

    def __gt__(self, other):
        return value_of(self) > value_of(other)

    def __ge__(self, other):
        return value_of(self) >= value_of(other)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"


def value_of(x):
    """Strip all dual layers, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.val
    return float(x)


def _chain(x, f0, d0):
    return Dual(f0, tuple(d0 * a for a in x.eps), x.tag)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.val)
        return _chain(x, r, 0.5 / r)
    if x < 0.0:
        raise DomainEvaluationError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def exp(x):
    if isinstance(x, Dual):
        r = exp(x.val)
        return _chain(x, r, r)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        return _chain(x, log(x.val), 1.0 / x.val if not isinstance(x.val, Dual)
                      else x.val ** -1.0)
    if x <= 0.0:
        raise DomainEvaluationError(f"log of non-positive value {x}")
    return math.log(x)


def sin(x):
    if isinstance(x, Dual):
        return _chain(x, sin(x.val), cos(x.val))
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return _chain(x, cos(x.val), -sin(x.val))
    return math.cos(x)


_TAG_COUNTER = [0]


def _seed_tagged(x):
    m = len(x)
    _TAG_COUNTER[0] += 1
    tag = _TAG_COUNTER[0]
    return [Dual(xi, tuple(1.0 if j == i else 0.0 for j in range(m)), tag)
            for i, xi in enumerate(x)], tag


def grad_raw(f, x):
    """Generic gradient: works when entries of x are themselves Dual.

    Returns (value, list-of-partials); entries stay dual for nested seeds.
    Outputs carrying only older seed generations count as constants.
    """
    seeded, tag = _seed_tagged(list(x))
    y = f(seeded)
    if isinstance(y, Dual) and y.tag == tag:
        return y.val, list(y.eps)
    return y, [0.0] * len(x)


def jacobian_raw(fvec, x):
    """Generic Jacobian of a vector function; rows follow output order."""
    seeded, tag = _seed_tagged(list(x))
    ys = fvec(seeded)
    m = len(x)
    vals, rows = [], []
    for y in ys:
        if isinstance(y, Dual) and y.tag == tag:
            vals.append(y.val)
            rows.append(list(y.eps))
        else:
            vals.append(y)
            rows.append([0.0] * m)
    return vals, rows


def grad_eval(f, x):
    """Evaluate f and its exact gradient at a real vector x.

    Derivatives come from dual arithmetic, not divided differences.  A
    non-finite intermediate raises :class:`DomainEvaluationError` naming the
    offending coordinate slot.
    """
    x = [float(xi) for xi in x]
    for i, xi in enumerate(x):
        if not math.isfinite(xi):
            raise DomainEvaluationError(f"non-finite input at coordinate {i}: {xi}")
    try:
        val, grad = grad_raw(f, x)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainEvaluationError(f"evaluation failed: {exc}") from exc
    if not math.isfinite(value_of(val)):
        raise DomainEvaluationError(f"non-finite function value {val}")
    for i, g in enumerate(grad):
        if not math.isfinite(value_of(g)):
            raise DomainEvaluationError(f"non-finite partial at coordinate {i}")
    return float(val), np.array([float(g) for g in grad])


def solve_linear(A, b):
    """Gaussian elimination with partial pivoting, generic over dual entries."""
    n = len(b)
    M = [list(row) + [bi] for row, bi in zip(A, b)]
    scale = max((abs(value_of(M[i][j])) for i in range(n) for j in range(n)),
                default=0.0)
    if scale == 0.0:
        raise DegeneracyError("singular linear system (zero matrix)")
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value_of(M[r][col])))
        if abs(value_of(M[piv][col])) < 1e-13 * scale:
            raise DegeneracyError("singular linear system")
        M[col], M[piv] = M[piv], M[col]
        inv = 1.0 / M[col][col] if not isinstance(M[col][col], Dual) \
            else M[col][col] ** -1.0
        for r in range(col + 1, n):
            fac = M[r][col] * inv
            for c in range(col, n + 1):
                M[r][c] = M[r][c] - fac * M[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = M[r][n]
        for c in range(r + 1, n):
            acc = acc - M[r][c] * x[c]
        x[r] = acc / M[r][r]
    return x


def newton_solve(residual, x0, max_iter=50, tol=1e-12):
    """Damped Newton on a small square system, generic over dual unknowns.

    After the primal residual converges, two polishing steps are taken so
    that any dual parts riding along converge to the exact implicit-function
    derivatives as well.
    """

    def norm(r):
        return max((abs(value_of(ri)) for ri in r), default=0.0)

    x = list(x0)
    for _ in range(max_iter):
        r, J = jacobian_raw(residual, x)
        rn = norm(r)
        if rn < tol:
            for _ in range(2):
                r, J = jacobian_raw(residual, x)
                dx = solve_linear(J, [-ri for ri in r])
                x = [xi + di for xi, di in zip(x, dx)]
            return x
        dx = solve_linear(J, [-ri for ri in r])
        lam = 1.0
        for _ in range(8):
            trial = [xi + lam * di for xi, di in zip(x, dx)]
            if norm(residual(trial)) < rn:
                x = trial
                break
            lam *= 0.5
        else:
            x = [xi + di for xi, di in zip(x, dx)]
    raise ImplicitSolveError(
        f"Newton iteration did not converge within {max_iter} steps")


_GL_CACHE = {}


def quad_fixed(f, a, b, panels=None, order=10):
    """Composite Gauss-Legendre quadrature, generic over dual endpoints.

    Fixed nodes (no adaptivity) keep the result a smooth, dual-differentiable
    function of the endpoints; accuracy is machine-level for the smooth
    integrands used here.
    """
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    nodes, weights = _GL_CACHE[order]
    span = abs(value_of(b) - value_of(a))
    if panels is None:
        panels = max(4, min(64, int(2.0 * span) + 4))
    width = (b - a) / panels
    half = width * 0.5
    total = 0.0
    for k in range(panels):
        mid = a + (k + 0.5) * width
        for xj, wj in zip(nodes, weights):
            total = total + wj * f(mid + half * xj)
    return total * half


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Ordered samples (s, state) with optional derivative data for dense output."""

    s: np.ndarray
    states: np.ndarray
    labels: tuple
    derivs: np.ndarray | None = None

    def __post_init__(self):
        if self.states.shape[1] != len(self.labels):
            raise ValueError("state width does not match label count")
        ds = np.diff(self.s)
        if len(ds) and not (np.all(ds > 0) or np.all(ds < 0)):
            raise ValueError("sample parameter must be strictly monotone")

    def __len__(self):
        return len(self.s)

    @property
    def final_state(self):
        return self.states[-1]

    def column(self, label):
        return self.states[:, self.labels.index(label)]

    def _bracket(self, s):
        sig = 1.0 if self.s[-1] >= self.s[0] else -1.0
        grid = sig * self.s
        i = int(np.searchsorted(grid, sig * s))
        return min(max(i, 1), len(self.s) - 1)

    def interpolate(self, s):
        """Cubic Hermite interpolation of the state at parameter value s."""
        if self.derivs is None:
            raise ValueError("trajectory was recorded without dense output")
        i = self._bracket(s)
        s0, s1 = self.s[i - 1], self.s[i]
        h = s1 - s0
        u = (s - s0) / h
        y0, y1 = self.states[i - 1], self.states[i]
        f0, f1 = self.derivs[i - 1], self.derivs[i]
        h00 = (1 + 2 * u) * (1 - u) ** 2
        h10 = u * (1 - u) ** 2
        h01 = u * u * (3 - 2 * u)
        h11 = u * u * (u - 1)
        return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1

    def derivative(self, s):
        """Exact derivative of the cubic Hermite interpolant at s."""
        if self.derivs is None:
            raise ValueError("trajectory was recorded without dense output")
        i = self._bracket(s)
        s0, s1 = self.s[i - 1], self.s[i]
        h = s1 - s0
        u = (s - s0) / h
        y0, y1 = self.states[i - 1], self.states[i]
        f0, f1 = self.derivs[i - 1], self.derivs[i]
        dh00 = 6 * u * (u - 1) / h
        dh10 = (1 - u) * (1 - 3 * u)
        dh01 = -6 * u * (u - 1) / h
        dh11 = u * (3 * u - 2)
        return dh00 * y0 + dh10 * f0 + dh01 * y1 + dh11 * f1

    def to_csv(self, stream):
        """Write header (s first) then one sample per line, 17 significant digits."""
        stream.write(",".join(("s",) + tuple(self.labels)) + "\n")
        for si, row in zip(self.s, self.states):
            vals = [si] + list(row)
            stream.write(",".join(f"{v:.17g}" for v in vals) + "\n")


# ---------------------------------------------------------------------------
# adaptive embedded Runge-Kutta 5(4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_step: float = 0.1
    min_step: float = 1e-12
    dense_output: bool = True

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        # a zero min_step lets a stalling step shrink to 0 and loop forever
        if not 0 < self.min_step < self.max_step:
            raise ValueError("min_step must be positive and smaller than "
                             "max_step")


# Dormand-Prince 5(4) tableau (FSAL)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])


def integrate(rhs, y0, s0, s1, opts=None, labels=None):
    """Adaptive Dormand-Prince 5(4) integration of y' = rhs(s, y) from s0 to s1.

    Backward spans (s1 < s0) are allowed.  The final sample lands exactly on
    s1.  Step underflow below ``opts.min_step`` raises
    :class:`IntegrationStallError` carrying the last good sample.
    """
    if opts is None:
        opts = IntegratorOptions()
    if s1 == s0:
        raise ValueError("empty integration span")
    y = np.array(y0, dtype=float)
    m = len(y)
    if labels is None:
        labels = tuple(f"y{i}" for i in range(m))
    direction = 1.0 if s1 > s0 else -1.0
    s = float(s0)

    def f(si, yi):
        out = np.asarray(rhs(si, yi), dtype=float)
        return out

    k1 = f(s, y)
    if not np.all(np.isfinite(k1)):
        raise DomainEvaluationError("right-hand side not finite at initial state")

    ss = [s]
    ys = [y.copy()]
    fs = [k1.copy()]

    h = direction * min(opts.max_step, abs(s1 - s0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _step_loop(f, y, s, s1, h, k1, opts, labels, direction, ss, ys, fs)


def _step_loop(f, y, s, s1, h, k1, opts, labels, direction, ss, ys, fs):
    while (s1 - s) * direction > 0:
        if abs(h) > abs(s1 - s):
            h = s1 - s
        k = [k1]
        failed = False
        for i in range(1, 7):
            yi = y + h * sum(a * ki for a, ki in zip(_A[i], k))
            ki = f(s + _C[i] * h, yi)
            if not np.all(np.isfinite(ki)):
                failed = True
                break
            k.append(ki)
        if not failed:
            y5 = y + h * sum(b * ki for b, ki in zip(_B5, k))
            y4 = y + h * sum(b * ki for b, ki in zip(_B4, k))
            diff = y5 - y4
            scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y), np.abs(y5))
            err = math.sqrt(float(np.mean((diff / scale) ** 2)))
        if failed or not math.isfinite(err) or err > 1.0:
            factor = 0.2 if (failed or not math.isfinite(err)) \
                else max(0.2, 0.9 * err ** -0.2)
            h *= factor
            if abs(h) < opts.min_step:
                raise IntegrationStallError(
                    f"step size underflow at s={s} (stiffness or singularity)",
                    s, y.copy())
            continue
        s = s1 if abs(s1 - (s + h)) < 1e-14 * max(1.0, abs(s1)) else s + h
        y = y5
        k1 = k[6]  # FSAL
        ss.append(s)
        ys.append(y.copy())
        fs.append(k1.copy())
        if err > 0:
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            h *= 5.0
        if abs(h) > opts.max_step:
            h = direction * opts.max_step

    ss[-1] = float(s1)
    return Trajectory(
        s=np.array(ss),
        states=np.array(ys),
        labels=tuple(labels),
        derivs=np.array(fs) if opts.dense_output else None,
    )
