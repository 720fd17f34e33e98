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
from functools import lru_cache
from itertools import repeat
from operator import add, neg, sub

import numpy as np

from .errors import (
    DegeneracyError,
    DomainEvaluationError,
    ImplicitSolveError,
    IntegrationStallError,
    StepBudgetError,
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

    Every slot is computed by the same float (or nested dual) operations,
    in the same order, as the plain per-slot formula, so results are
    bit-identical to it.  ``eps`` is any iterable; a tuple is kept as is.
    """

    __slots__ = ("val", "eps", "tag")

    def __init__(self, val, eps, tag=0):
        self.val = val
        self.eps = eps if type(eps) is tuple else tuple(eps)
        self.tag = tag

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(self.val + other.val,
                            tuple(map(add, self.eps, other.eps)), self.tag)
            if other.tag > self.tag:
                return other.__add__(self)
        return Dual(self.val + other, self.eps, self.tag)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(self.val - other.val,
                            tuple(map(sub, self.eps, other.eps)), self.tag)
            if other.tag > self.tag:
                return (-other).__add__(self)
        return Dual(self.val - other, self.eps, self.tag)

    def __rsub__(self, other):
        return Dual(other - self.val, tuple(map(neg, self.eps)), self.tag)

    def __mul__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                u, v = self.val, other.val
                return Dual(u * v,
                            tuple([a * v + u * b
                                   for a, b in zip(self.eps, other.eps)]),
                            self.tag)
            if other.tag > self.tag:
                return other.__mul__(self)
        return Dual(self.val * other, tuple([a * other for a in self.eps]),
                    self.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                inv = 1.0 / other.val if not isinstance(other.val, Dual) \
                    else other.val ** -1.0
                q = self.val * inv
                return Dual(q, tuple([(a - q * b) * inv
                                      for a, b in zip(self.eps, other.eps)]),
                            self.tag)
            if other.tag > self.tag:
                return other.__rtruediv__(self)
            inv = other ** -1.0
        else:
            inv = 1.0 / other
        return Dual(self.val * inv, tuple([a * inv for a in self.eps]),
                    self.tag)

    def __rtruediv__(self, other):
        q = other / self.val
        ninv = -(q / self.val)
        return Dual(q, tuple([ninv * a for a in self.eps]), self.tag)

    def __pow__(self, k):
        """Real powers only: a non-integer power of a negative value raises
        :class:`DomainEvaluationError`."""
        if isinstance(k, Dual):
            return exp(k * log(self))
        if k == 0:
            return Dual(self.val * 0 + 1.0,
                        tuple([0.0 * a for a in self.eps]), self.tag)
        w = self.val ** (k - 1)
        if type(w) is complex:
            raise DomainEvaluationError(
                f"non-integer power {k} of negative value {self.val}")
        kw = k * w
        return Dual(w * self.val, tuple([kw * a for a in self.eps]),
                    self.tag)

    def __neg__(self):
        return Dual(-self.val, tuple(map(neg, self.eps)), self.tag)

    def __pos__(self):
        return self

    def __abs__(self):
        """|x|, with slope +1 at 0: the value 0 counts as positive."""
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
    """Strip all dual layers, returning the underlying float.

    A complex value (such as ``(-2.0) ** 0.5`` of plain floats) raises
    :class:`DomainEvaluationError`.
    """
    while isinstance(x, Dual):
        x = x.val
    try:
        return float(x)
    except TypeError:
        if isinstance(x, complex):
            raise DomainEvaluationError(f"complex value {x}") from None
        raise


def _chain(x, f0, d0):
    return Dual(f0, tuple([d0 * a for a in x.eps]), x.tag)


def sqrt(x):
    """Square root; the derivative at 0 is infinite, so a dual argument at 0
    raises :class:`DomainEvaluationError`."""
    if isinstance(x, Dual):
        r = sqrt(x.val)
        try:
            d = 0.5 / r
        except ZeroDivisionError:
            raise DomainEvaluationError("derivative of sqrt at 0") from None
        return _chain(x, r, d)
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


@lru_cache(maxsize=64)
def _one_hot(m):
    """The m unit vectors of length m: the eps of m seeds."""
    return tuple(tuple(1.0 if j == i else 0.0 for j in range(m))
                 for i in range(m))


def _seed_tagged(x):
    _TAG_COUNTER[0] += 1
    tag = _TAG_COUNTER[0]
    return list(map(Dual, x, _one_hot(len(x)), repeat(tag))), tag


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

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        # a zero min_step lets a stalling step shrink to 0 and loop forever
        if not 0 < self.min_step < self.max_step:
            raise ValueError("min_step must be positive and smaller than "
                             "max_step")


# Dormand-Prince 5(4) tableau (FSAL): stage i reads row i of _A, and the last
# row is the 5th-order solution, so stage 7 is evaluated at y5
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
# local error estimate y5 - y4 = h * (_E @ K), free of the cancellation
_E = _A[6] - _B4

# attempted steps (accepted or rejected) after which integrate gives up
MAX_STEPS = 10 ** 6


def integrate(rhs, y0, s0, s1, opts=None, labels=None):
    """Adaptive Dormand-Prince 5(4) integration of y' = rhs(s, y) from s0 to s1.

    Backward spans (s1 < s0) are allowed.  The final sample lands exactly on
    s1.  A step with a non-finite stage is rejected and shrunk at once.
    ``opts.min_step`` is a floor on every step, accepted or rejected: once
    the next step is shorter than it, or too short to move s at all, the
    integration raises :class:`IntegrationStallError` carrying the
    :class:`Trajectory` of the samples taken so far.  More than
    ``MAX_STEPS`` attempted steps raise :class:`StepBudgetError`, and a
    complex value in y0 or from rhs raises :class:`DomainEvaluationError`.
    """
    if opts is None:
        opts = IntegratorOptions()
    if s1 == s0:
        raise ValueError("empty integration span")
    try:
        y = np.array(y0, dtype=float)
        if labels is None:
            labels = tuple(f"y{i}" for i in range(len(y)))
        direction = 1.0 if s1 > s0 else -1.0
        s = float(s0)
        K = np.empty((7, len(y)))
        K[0] = rhs(s, y)
        if not np.all(np.isfinite(K[0])):
            raise DomainEvaluationError("right-hand side not finite at initial state")
        ss, ys, fs = [s], [y], [K[0].copy()]
        h = direction * min(opts.max_step, abs(s1 - s0))
        attempts = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while (s1 - s) * direction > 0:
                if attempts == MAX_STEPS:
                    raise StepBudgetError(
                        f"step budget of {MAX_STEPS} attempted steps "
                        f"exhausted at s={s} short of {s1}")
                attempts += 1
                h = direction * min(abs(h), abs(s1 - s))
                err = math.inf
                for i in range(1, 7):
                    yi = y + h * (_A[i, :i] @ K[:i])
                    K[i] = rhs(s + _C[i] * h, yi)
                    # no later stage may be evaluated at a non-finite state
                    if not np.all(np.isfinite(K[i])):
                        break
                else:
                    scale = opts.abs_tol \
                        + opts.rel_tol * np.maximum(np.abs(y), np.abs(yi))
                    err = math.sqrt(float(np.mean((h * (_E @ K) / scale) ** 2)))
                if err <= 1.0:
                    s = float(s1) if abs(s1 - (s + h)) < 1e-14 * max(1.0, abs(s1)) \
                        else s + h
                    y = yi  # the input of the last stage is y5
                    K[0] = K[6]  # FSAL
                    ss.append(s)
                    ys.append(y)
                    fs.append(K[0].copy())
                # a failed stage or a non-finite error (NaN or inf) shrinks by 0.2
                factor = 0.9 * err ** -0.2 if 0 < err < math.inf \
                    else 5.0 if err == 0 else 0.2
                h = direction * min(abs(h) * min(5.0, max(0.2, factor)),
                                    opts.max_step)
                if abs(h) < opts.min_step or s + h == s:
                    break
    except TypeError as exc:
        # numpy refuses the complex value of a plain-float field off its real
        # domain, such as (-1.0) ** 1.5; caught once here, not per step
        if "complex" not in str(exc):
            raise
        raise DomainEvaluationError(f"complex state or RHS value: {exc}") from None

    traj = Trajectory(s=np.array(ss), states=np.array(ys), labels=tuple(labels),
                      derivs=np.array(fs))
    if (s1 - s) * direction > 0:
        raise IntegrationStallError(
            f"step size underflow at s={s} (stiffness or singularity)", traj)
    return traj
