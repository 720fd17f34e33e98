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
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, eq, ge, gt, le, lt, mul, ne, neg, sub, truediv

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
            # a trace compiles only powers with a constant integral
            # exponent (`_Leaf.__pow__`), so a traced exponent ends it
            if isinstance(value_of(k), _Leaf):
                raise _TraceAbort
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
    :class:`DomainEvaluationError`.  Inside `trace` the underlying value is
    a leaf, whose conversion is recorded as a kernel line: a comparison on
    the leaf it gives records a guard.
    """
    while isinstance(x, Dual):
        x = x.val
    try:
        return float(x)
    except TypeError:
        if isinstance(x, complex):
            raise DomainEvaluationError(f"complex value {x}") from None
        raise
    except _TraceAbort:
        return x._record("float({})", float, x)  # float() of a `_Leaf`


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
    if isinstance(x, _Leaf):
        return x._record("sqrt({})", math.sqrt, x)
    return math.sqrt(x)


def exp(x):
    if isinstance(x, Dual):
        r = exp(x.val)
        return _chain(x, r, r)
    if isinstance(x, _Leaf):
        return x._record("exp({})", math.exp, x)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        return _chain(x, log(x.val), 1.0 / x.val if not isinstance(x.val, Dual)
                      else x.val ** -1.0)
    if x <= 0.0:
        raise DomainEvaluationError(f"log of non-positive value {x}")
    if isinstance(x, _Leaf):
        return x._record("log({})", math.log, x)
    return math.log(x)


def sin(x):
    if isinstance(x, Dual):
        return _chain(x, sin(x.val), cos(x.val))
    if isinstance(x, _Leaf):
        return x._record("sin({})", math.sin, x)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return _chain(x, cos(x.val), -sin(x.val))
    if isinstance(x, _Leaf):
        return x._record("cos({})", math.cos, x)
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


def time_derivatives(fn, t, order):
    """[fn(t), fn'(t), ..., fn^(order)(t)] from one evaluation of fn.

    t is seeded `order` times, one dual generation per seed, so fn sees
    t + d1 + ... + d_order with every d_i^2 = 0; the j-th derivative is the
    coefficient of d1 ... dj.  t may itself be dual.
    """
    x, tags = t, []
    for _ in range(order):
        (x,), tag = _seed_tagged([x])
        tags.append(tag)
    y = fn(x)
    out = []
    for j in range(order + 1):
        c = y
        for tag in reversed(tags[j:]):
            if isinstance(c, Dual) and c.tag == tag:
                c = c.val
        for tag in reversed(tags[:j]):
            c = c.eps[0] if isinstance(c, Dual) and c.tag == tag else 0.0
        out.append(c)
    return out


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


# ---------------------------------------------------------------------------
# straight-line kernels: Dual code recorded once over leaves that carry the
# values of one call, with a guard on every step that reads them
# ---------------------------------------------------------------------------

# a trace that records more operations and guards gives up, so a large field
# keeps the Dual path rather than compiling a huge kernel
TRACE_MAX_OPS = 10000

_SCALARS = (int, float)  # float takes in np.float64


def _floats(values):
    """Whether every entry is a plain scalar: the arguments a kernel takes."""
    return all(isinstance(v, _SCALARS) for v in values)


# the compiler's transient memory grows by a few kB per line it compiles, so
# a kernel of more lines is compiled in chunks of this many
_TRACE_CHUNK = 256


class _TraceAbort(BaseException):
    """A step inside `trace` that a kernel cannot replay; not an Exception,
    so a field's own ``except Exception`` cannot swallow it."""


class _GuardMiss(Exception):
    """A guard of a traced kernel that fails: the call runs fn itself."""


def _abort(*args):
    raise _TraceAbort


def _item(x):
    """x as numpy hands it to a Dual's reflected operator: a numpy scalar
    becomes the Python scalar of the same value."""
    return x.item() if isinstance(x, np.generic) else x


def _val(x):
    """x's value in the traced call."""
    return x.val if isinstance(x, _Leaf) else x


def _binary(template, name, op):
    """A leaf's operator `name` and its reflected form."""
    def fwd(self, other):
        if isinstance(other, (_Leaf, *_SCALARS)):
            return self._record(template, op, self, other)
        if isinstance(other, Dual):
            # a numpy scalar on the left of a Dual reaches the Dual's
            # reflected method as a Python scalar: record that hand-over
            return getattr(other, f"__r{name}__")(
                self._record("_item({})", _item, self))
        return NotImplemented

    def rev(self, other):
        if isinstance(other, (_Leaf, *_SCALARS)):
            return self._record(template, op, other, self)
        return NotImplemented
    return fwd, rev


def _compare(template, op):
    """A leaf's comparison: the outcome at the carried values, with a guard
    that the kernel leaves for fn wherever the outcome differs."""
    def cmp(self, other):
        if not isinstance(other, (_Leaf, *_SCALARS)):
            return NotImplemented
        outcome = op(self.val, _val(other))
        self._guard(f"not ({template})" if outcome else template, self, other)
        return outcome
    return cmp


class _Leaf:
    """A float inside `trace` that carries its value in the traced call:
    every operation on it appends one line to the shared tape, and every
    step that reads its value (a comparison, ``int()``) a guard."""

    __slots__ = ("tape", "name", "val")
    __array_ufunc__ = None  # numpy scalars defer to the reflected methods

    def __init__(self, tape, name, val):
        self.tape = tape
        self.name = name
        self.val = val

    def _record(self, template, op, *args):
        """The leaf of op on args, whose line is template over them."""
        tape = self.tape
        if len(tape) == TRACE_MAX_OPS:
            raise _TraceAbort
        out = _Leaf(tape, f"v{len(tape)}", op(*map(_val, args)))
        tape.append((out.name, template, args))
        return out

    def _guard(self, miss, *args):
        """A guard line: the kernel runs fn itself wherever the test miss,
        over args, holds."""
        if len(self.tape) == TRACE_MAX_OPS:
            raise _TraceAbort
        self.tape.append((None, miss, args))

    __add__, __radd__ = _binary("{} + {}", "add", add)
    __sub__, __rsub__ = _binary("{} - {}", "sub", sub)
    __mul__, __rmul__ = _binary("{} * {}", "mul", mul)
    __truediv__, __rtruediv__ = _binary("{} / {}", "truediv", truediv)

    __lt__ = _compare("{} < {}", lt)
    __le__ = _compare("{} <= {}", le)
    __gt__ = _compare("{} > {}", gt)
    __ge__ = _compare("{} >= {}", ge)
    __eq__ = _compare("{} == {}", eq)
    __ne__ = _compare("{} != {}", ne)

    def __pow__(self, k):
        # an integral exponent keeps a real base real; any other may not
        if not (isinstance(k, _SCALARS) and float(k).is_integer()):
            raise _TraceAbort
        return self._record("{} ** {}", pow, self, k)

    def __neg__(self):
        return self._record("-{}", neg, self)

    def __abs__(self):
        return self._record("abs({})", abs, self)

    def __int__(self):
        k = int(self.val)
        self._guard("int({}) != {}", self, k)
        return k

    # float() and bool() have no kernel line: they end the trace
    __bool__ = __float__ = __index__ = _abort


def trace(fn, x):
    """fn recorded once, at the values x of one call, and compiled into one
    function of a sequence of len(x) floats; fn itself if the trace aborts.

    fn is Dual code, such as `grad_raw` of a field or nested
    `time_derivatives`, returning scalars in nested tuples and lists; it
    must be a pure function of its inputs, since whatever else it reads is
    recorded as a constant.

    fn runs once on leaves that carry the values x.  A step that reads a
    value records a guard: a comparison gives its outcome at x, ``int()``
    its result, and the domain checks of `sqrt` and `log` and the
    finiteness test of `quad_fixed` are comparisons; `value_of` of a leaf
    is a leaf whose line converts it as `value_of` does.  The kernel runs
    fn's float operations in fn's order on the very argument objects it is
    given, so its results are bit-identical to fn's.  A kernel with guards
    runs its lines inside one ``try``: a guard that fails, or any
    exception, makes that call return fn's own result or raise fn's own
    error.  A kernel without guards is the straight-line code alone, and a
    float operation that raises in fn (ZeroDivisionError, OverflowError)
    raises in it.  Each ``_TRACE_CHUNK`` lines of the tape after the first
    are a function compiled on its own, which bounds the compiler's
    transient memory.

    If fn raises at x, trace raises that error.  The trace aborts, and
    gives fn back, on ``float()`` or ``bool()`` of a leaf, on a
    non-integer or a traced power, on more than ``TRACE_MAX_OPS`` lines
    (guards count), and on a result that is not scalars in tuples and lists.
    Constants keep their type and value: a finite float or an int is written
    out, any other one (inf, nan, np.float64) is bound by name.
    """
    tape = []
    names = {"exp": math.exp, "sin": math.sin, "cos": math.cos,
             "sqrt": math.sqrt, "log": math.log, "float": float,
             "_item": _item, "_max_abs": _max_abs, "_GuardMiss": _GuardMiss}

    def ref(c):
        if isinstance(c, _Leaf):
            return c.name
        if type(c) is int or type(c) is float and math.isfinite(c):
            return f"({c!r})"
        name = f"c{len(names)}"
        names[name] = c
        return name

    def emit(out):
        if type(out) is tuple:
            return "(" + "".join(emit(o) + ", " for o in out) + ")"
        if type(out) is list:
            return "[" + ", ".join(map(emit, out)) + "]"
        if isinstance(out, _Leaf):
            returned.add(out.name)
        elif not isinstance(out, _SCALARS):
            raise _TraceAbort  # a Dual, or any other object
        return ref(out)

    def line(out, template, args):
        code = template.format(*map(ref, args))
        return f"{out} = {code}" if out else f"if {code}: raise _GuardMiss"

    # the leaves hold the tape and the tape holds them: each return empties
    # it, so that reference counting frees them, not the cyclic collector
    leaves = [_Leaf(tape, f"x{i}", v) for i, v in enumerate(x)]
    returned = set()  # the names of the leaves fn returns
    try:
        ret = emit(fn(leaves))
    except _TraceAbort:
        tape.clear()
        return fn
    except Exception:
        tape.clear()
        # fn's own error at x, which fn raises again; if it does not, the
        # error came from a leaf (such as a numpy ufunc of one)
        fn(x)
        return fn
    # the first chunk runs inline; each later chunk k becomes the function
    # _ck, compiled on its own: it takes the names it reads from earlier
    # lines and returns those read later
    body, later = [], returned
    for k in reversed(range(_TRACE_CHUNK, len(tape), _TRACE_CHUNK)):
        chunk = tape[k:k + _TRACE_CHUNK]
        made = {out for out, _, _ in chunk if out}
        reads = {a.name for _, _, args in chunk for a in args
                 if isinstance(a, _Leaf)} - made
        ins = ", ".join(sorted(reads))
        outs = "(" + "".join(f"{v}, " for v in sorted(made & later)) + ")"
        src = [f"def _c{k}({ins}):", *("    " + line(*e) for e in chunk),
               f"    return {outs}"]
        exec(compile("\n".join(src), "<trace>", "exec"), names)
        body.insert(0, f"{outs} = _c{k}({ins})")
        later = (later - made) | reads
    body[:0] = [line(*entry) for entry in tape[:_TRACE_CHUNK]]
    body.append(f"return {ret}")
    lines = ["def kernel(x):",
             "    (" + "".join(f"{v.name}, " for v in leaves) + ") = x"]
    if any(out is None for out, _, _ in tape):
        # only a guarded kernel holds fn, for its fallback
        names["_fn"] = fn
        lines += ["    try:", *("        " + b for b in body),
                  "    except Exception:",
                  "        pass",
                  "    return _fn(x)"]
    else:
        lines += ["    " + b for b in body]
    exec(compile("\n".join(lines), "<trace>", "exec"), names)
    tape.clear()
    return names["kernel"]


def _trace_on_first_call(fn, warm=False):
    """x -> fn(x), on a kernel that `trace` makes of fn: the package's one
    maker and keeper of kernels, and the one statement of their lifecycle.

    Cold (the default), the first call traces at its x.  Warm, the calls
    run fn itself until one returns, and the next call traces.  A trace at
    an x where fn raises keeps nothing, and the calls go on as before it.

    Warm spares an owner called once, or only where fn raises, a trace,
    which suits a costly fn such as a Newton solve.  Cold gives an owner
    built once and called once per repetition the same work in each
    repetition after the first: under warm, the L1 kernel of each
    `LagrangianSystem` of the benchmark's `canonical-maps` operations
    traces in the second pass, not the first, and the traced passes'
    counts differ (``numkit.grad_raw.calls`` 27, then 19).

    The kernel lives as long as the returned function, which its owner
    keeps.  Once traced, fn is held only by the kernel: by a guarded kernel
    for its fallback, or as the kernel itself if the trace aborted; a
    kernel without guards holds no reference to fn.  An owner that keeps a
    guarded kernel, and that fn refers to, is thus freed by the cyclic
    collector only."""
    held = [fn, False, not warm]  # fn, then the kernel; traced; trace next

    def call(x):
        if held[1]:
            return held[0](x)
        if held[2]:
            held[2] = not warm
            held[:2] = trace(held[0], x), True
            return held[0](x)
        out = held[0](x)
        held[2] = True
        return out

    return call


def residual_binder(res, k):
    """bind(params) -> jacobian for `newton_solve`: u -> (res(params, u),
    its Jacobian in u), by `jacobian_raw`, for a residual res of unknowns u
    with k parameters.

    At all-float params it runs on the binder's kernel of the flat
    (params.., u..) (`_trace_on_first_call`); the unknowns must then be
    floats too.  Dual params keep the Dual code.  res must be a pure
    function of its arguments.
    """
    def jacobian(x):
        return jacobian_raw(lambda u: res(x[:k], u), x[k:])

    kernel = _trace_on_first_call(jacobian)

    def bind(params):
        J = kernel if _floats(params) else jacobian
        return lambda u: J([*params, *u])

    return bind


def _max_abs(*values):
    """The largest |v| of the floats values, 0.0 if there are none, and NaN
    if any |v| is NaN (builtin `max` keeps a NaN only in first place).

    Inside `trace` it is one kernel line that calls it again on the values
    of the call, not one guard per comparison, so a kernel holds whichever
    entry is the largest.
    """
    for v in values:
        if isinstance(v, _Leaf):
            return v._record("_max_abs(" + "{}, " * len(values) + ")",
                             _max_abs, *values)
    top = 0.0
    for v in values:
        a = abs(v)
        if a > top:
            top = a
        elif a != a:
            return a
    return top


def solve_linear(A, b, equilibrated=False):
    """Gaussian elimination with partial pivoting, generic over dual entries.

    A pivot is singular at or below 1e-13 times the largest entry of A.
    With ``equilibrated``, the reference is the largest entry of the
    pivot's own row or of its own column of A, whichever is smaller, so
    that equations and unknowns of unlike scale do not make a regular
    system look singular; the pivots and the result are the same.  The
    pivot is the first entry of largest magnitude in its column.  The
    scales are `_max_abs` of the primal values, so a NaN entry makes them
    NaN, and then only a zero pivot tests singular.  Inside `trace` the
    scales are kernel lines, and each pivot choice and singular test is a
    guard.
    """
    n = len(b)
    M = [list(row) + [bi] for row, bi in zip(A, b)]
    top = _max_abs(*[value_of(v) for row in A for v in row])
    if top == 0.0:
        raise DegeneracyError("singular linear system (zero matrix)")

    order = list(range(n))  # the row of A that each row of M came from
    for col in range(n):
        piv, pivot = col, abs(value_of(M[col][col]))
        for r in range(col + 1, n):
            mag = abs(value_of(M[r][col]))
            if mag > pivot:
                piv, pivot = r, mag
        # the row and column scales are at most top, so they are read only
        # for a pivot that the test against top already finds singular; a
        # NaN top passes that test, and then only a zero pivot is singular
        small = 1e-13 * top
        if not pivot > small and (pivot == 0.0 or pivot <= small and (
                not equilibrated or pivot <= 1e-13 * min(
                    _max_abs(*map(value_of, A[order[piv]])),
                    _max_abs(*[value_of(row[col]) for row in A])))):
            raise DegeneracyError("singular linear system")
        M[col], M[piv] = M[piv], M[col]
        order[col], order[piv] = order[piv], order[col]
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


# damped Newton stops once the max-norm of the residual is below _NEWTON_TOL,
# and gives up after _NEWTON_MAX_ITER iterations; a second polishing step
# longer than _NEWTON_SETTLE * (1 + max |x|) marks a singular root
_NEWTON_MAX_ITER = 50
_NEWTON_TOL = 1e-12
_NEWTON_SETTLE = 1e-9


def newton_solve(residual, x0, jacobian=None):
    """Damped Newton on a small square system, generic over dual unknowns.

    After the primal residual converges, two polishing steps are taken so
    that any dual parts riding along converge to the exact implicit-function
    derivatives as well: from an x0 at a float root, the call is just the
    convergence check and those two steps, each of which doubles the number
    of exact Taylor orders, so orders 1-3 are exact after both.  A root is
    degenerate, and raises :class:`DegeneracyError`, if its Jacobian is
    singular relative to its largest entry, or if the second polishing step
    is not at rounding level: at a double root Newton converges only
    linearly, and the residual falls below its tolerance while x is still
    about its square root away.  On
    the way to the root, the Jacobian is singular only relative to its own
    rows and columns (`solve_linear`'s ``equilibrated``): an iterate that
    runs off to a root at infinity, where one unknown dwarfs the others, is
    a failed solve, not a degenerate one.

    The norms are `_max_abs` of the primal values, so a NaN entry makes them
    NaN: an iterate whose residual is NaN, or a NaN polishing step, raises
    :class:`ImplicitSolveError` and never gives a root.

    Each (r, J) comes from jacobian(x), by default
    ``jacobian_raw(residual, x)``; a `residual_binder` passes its own, and
    residual is then not read.  The line search evaluates (r, J) at each
    trial point and hands the accepted one to the next iteration, so no
    point is evaluated twice.

    A float solve compiles whole when its caller traces it (`trace`): the
    residual and Jacobian reads, the iterations, the line search, the
    eliminations and both polishing steps become kernel lines, the norms
    one line each, and every test of convergence, acceptance, pivot row and
    singularity a guard.
    """
    if jacobian is None:
        def jacobian(x):
            return jacobian_raw(residual, x)

    def norm(r):
        return _max_abs(*map(value_of, r))

    x = list(x0)
    r, J = jacobian(x)
    for _ in range(_NEWTON_MAX_ITER):
        rn = norm(r)
        if rn < _NEWTON_TOL:
            # the first polishing step reuses the converged iterate's (r, J)
            for polish in range(2):
                if polish:
                    r, J = jacobian(x)
                dx = solve_linear(J, [-ri for ri in r])
                x = [xi + di for xi, di in zip(x, dx)]
            step = norm(dx)
            if step != step:
                raise ImplicitSolveError("Newton polishing step is NaN")
            if step > _NEWTON_SETTLE * (1.0 + norm(x)):
                raise DegeneracyError(
                    f"Newton polishing step {step:.3e} at a singular root")
            return x
        if rn != rn:
            raise ImplicitSolveError("Newton residual is NaN")
        dx = solve_linear(J, [-ri for ri in r], equilibrated=True)
        lam, full = 1.0, None
        for _ in range(8):
            trial = [xi + lam * di for xi, di in zip(x, dx)]
            rJ = jacobian(trial)
            full = full or (trial, rJ)
            if norm(rJ[0]) < rn:
                break
            lam *= 0.5
        else:
            # no trial decreased the residual: take the full step
            trial, rJ = full
        x, (r, J) = trial, rJ
    raise ImplicitSolveError(
        f"Newton iteration did not converge within {_NEWTON_MAX_ITER} steps")


@lru_cache(maxsize=1)
def _gauss_legendre_10():
    """Nodes and weights of the 10-point rule, loaded on first use: importing
    numpy.polynomial costs every run start-up time and memory."""
    return np.polynomial.legendre.leggauss(10)


def quad_fixed(f, a, b):
    """Composite 10-point Gauss-Legendre quadrature, generic over dual
    endpoints, on max(4, min(64, int(2 |b - a|) + 4)) equal panels.

    Fixed nodes (no adaptivity) keep the result a smooth, dual-differentiable
    function of the endpoints; accuracy is machine-level for the smooth
    integrands used here.  An interval whose doubled length is not finite
    (an endpoint at inf or nan, or a length over about 9e307) raises
    :class:`DomainEvaluationError`.  Inside `trace` the finiteness test and
    the panel count are guards, so a kernel holds for every interval of the
    traced one's panel count.
    """
    span2 = 2.0 * abs(value_of(b) - value_of(a))
    # a comparison, which a trace records as a guard; NaN fails it too
    if not span2 < math.inf:
        raise DomainEvaluationError(
            f"quadrature interval [{value_of(a)}, {value_of(b)}] is not "
            "finite or too long")
    nodes, weights = _gauss_legendre_10()
    panels = max(4, min(64, int(span2) + 4))
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

    def _segment(self, s):
        """The Hermite interpolant at s through the y and f of the samples
        around the segment that holds s: two on each side, fewer at the
        ends, so of degree 7 inside and of degree 3 or 5 at the ends.

        Returns ((a, b), (da, db), y0, dys, fs): the value weights and
        their derivatives in s, the state y0 at the segment's start, and
        the window's y - y0 and f.  The value is y0 + a @ dys + b @ fs and
        the derivative da @ dys + db @ fs: the weights a sum to 1 and da to
        0, so y0 itself takes no part in their rounding, which a central
        difference of the derivative would otherwise amplify."""
        if self.derivs is None:
            raise ValueError("trajectory was recorded without dense output")
        sig = 1.0 if self.s[-1] >= self.s[0] else -1.0
        i = int(np.searchsorted(sig * self.s, sig * s))
        i = min(max(i, 1), len(self.s) - 1)
        lo, hi = max(i - 2, 0), min(i + 2, len(self.s))
        # with l_j the Lagrange basis of the nodes t: value weights
        # (1 - 2 l_j'(t_j) (s - t_j)) l_j(s)^2 and (s - t_j) l_j(s)^2
        # (HNW, Solving ODEs I, II.6), and their derivatives in s, all on
        # Python floats, the cheaper scalars
        s = float(s)
        t = self.s[lo:hi].tolist()
        a, b, da, db = [], [], [], []
        for j, tj in enumerate(t):
            lj, dlj, w = 1.0, 0.0, 0.0  # l_j(s), l_j'(s), l_j'(t_j)
            for ti in t[:j] + t[j + 1:]:
                r = 1.0 / (tj - ti)
                dlj = (dlj * (s - ti) + lj) * r
                lj = lj * (s - ti) * r
                w += r
            d = s - tj
            g = 1.0 - 2.0 * w * d
            a.append(g * lj * lj)
            b.append(d * lj * lj)
            da.append(2.0 * lj * (g * dlj - w * lj))
            db.append(lj * (lj + 2.0 * d * dlj))
        ys = self.states[lo:hi]
        y0 = ys[i - 1 - lo]
        return ((a, b), (da, db), y0, ys - y0, self.derivs[lo:hi])

    def interpolate(self, s):
        """The state at parameter value s, from the degree-7 Hermite
        interpolant through the 4 samples nearest s (see `_segment`)."""
        (a, b), _, y0, dys, fs = self._segment(s)
        return y0 + (np.dot(a, dys) + np.dot(b, fs))

    def derivative(self, s):
        """Exact derivative at s of the interpolant of `interpolate`."""
        _, (a, b), _, dys, fs = self._segment(s)
        return np.dot(a, dys) + np.dot(b, fs)


# ---------------------------------------------------------------------------
# adaptive embedded Runge-Kutta 8(5,3)
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


# Dormand-Prince 8(5,3) tableau, DOP853 (Prince & Dormand 1981, J. Comput.
# Appl. Math. 7, 67-75), with the digits of Hairer's dop853.f (Hairer,
# Norsett & Wanner, *Solving ODEs I*, II.10).  Stage i + 1 runs at
# s + _C[i] h and _ROWS[i] holds its i coefficients on the stages before
# it; the last row holds the 8th-order weights, so stage 13 is evaluated at
# y8 (FSAL).  _C holds Python floats, so the RHS gets a float stage time,
# not a numpy scalar of the same value.
_C = (0.0, 5.26001519587677318785587544488e-2,
      7.89002279381515978178381316732e-2, 1.18350341907227396726757197510e-1,
      2.81649658092772603273242802490e-1, 1 / 3, 1 / 4, 4 / 13, 127 / 195,
      3 / 5, 6 / 7, 1.0, 1.0)
_ROWS = tuple(np.array(row, dtype=float) for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
))
# the 5th-order error estimate y8 - y5 = h * (_E5 @ K[:12]), and the
# 3rd-order one h * (_E3 @ K[:12]): the 8th-order weights less those of
# the 3rd-order solution, which sit on stages 1, 9 and 12
_E5 = np.array([
    1.312004499419488073250102996e-2, 0.0, 0.0, 0.0, 0.0,
    -1.225156446376204440720569753, -4.957589496572501915214079952e-1,
    1.664377182454986536961530415, -3.503288487499736816886487290e-1,
    3.341791187130174790297318841e-1, 8.192320648511571246570742613e-2,
    -2.235530786388629525884427845e-2])
_E3 = _ROWS[12] - np.array([
    2.44094488188976377952755905512e-1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    7.33846688281611857341361741547e-1, 0.0, 0.0,
    2.20588235294117647058823529412e-2])

# np.exceptions is numpy >= 1.25; pyproject allows 1.23
_ComplexWarning = getattr(np, "exceptions", np).ComplexWarning

# attempted steps (accepted or rejected) after which integrate gives up
MAX_STEPS = 10 ** 6


def integrate(rhs, y0, s0, s1, opts=None, labels=None):
    """Adaptive Dormand-Prince 8(5,3) integration of y' = rhs(s, y), s0 to s1.

    rhs is called with s a float and y a float64 array, every call (the
    first included) with numpy's overflow, invalid and divide warnings
    off: a non-finite stage is a rejected step, not a warning.  Backward spans
    (s1 < s0) are allowed.  The final sample lands exactly on s1: an
    accepted step that ends within 1e-14 |s1 - s0| of s1 is stamped s1.  A
    step with a non-finite stage is rejected and shrunk at once, before any
    later stage runs.  ``opts.min_step`` is a floor on every step, accepted
    or rejected: once the next step is shorter than it, or too short to
    move s at all, the integration raises :class:`IntegrationStallError`
    carrying the :class:`Trajectory` of the samples taken so far.  More
    than ``MAX_STEPS`` attempted steps raise :class:`StepBudgetError`, and a
    complex value in y0 or from rhs, or an ``OverflowError`` or
    ``ZeroDivisionError`` from rhs, raises :class:`DomainEvaluationError`.
    An empty y0, a non-finite s0 or s1, or s1 == s0 raises ValueError
    before rhs is called.

    The method is DOP853, the 12-stage Dormand-Prince pair of order 8 with
    embedded 5th- and 3rd-order estimates (Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.10), in one loop; its 13th evaluation, at y8, runs
    only once a step is accepted, and is the next step's first stage (a
    non-finite one rejects the step as a failed stage does).  Each stage
    sum, y8's included, is one product of its tableau row with the stages
    before it: ``ndarray.dot`` for rows of length 2 and more and for the
    error rows, ``@`` for the length-1 row of stage 2 (where ``dot`` would
    give -0.0 for a sum that ``@`` gives as 0.0).  With e5 = (_E5 @ K) /
    scale and e3 = (_E3 @ K) / scale, where
    scale = abs_tol + rel_tol * max(|y|, |y8|), the error is HNW's combined
    estimate err = |h| sum(e5^2) / sqrt((sum(e5^2) + 0.01 sum(e3^2)) m),
    formed in place with |y| from the step before, and the next step is h
    times 0.9 err^(-1/8), clamped to [0.2, 5].  The bits are those of
    ``y + h * (row @ K)`` and of that formula.
    """
    if opts is None:
        opts = IntegratorOptions()
    s0, s1 = float(s0), float(s1)
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError(f"integration span [{s0}, {s1}] is not finite")
    if s1 == s0:
        raise ValueError("empty integration span")
    try:
        with warnings.catch_warnings():
            # numpy casts a complex array into the float state or stage
            # array with only a ComplexWarning: an error for the whole call
            warnings.simplefilter("error", _ComplexWarning)
            y = np.array(y0, dtype=float)
            m = len(y)
            if m == 0:
                raise ValueError("empty initial state")
            if labels is None:
                labels = tuple(f"y{i}" for i in range(m))
            direction = 1.0 if s1 > s0 else -1.0
            s = s0
            K = np.empty((13, m))
            # stages 1..12, which y8 and the error estimates read, and the
            # 13th evaluation, at y8
            K12, K13 = K[:12], K[12]
            # stage i + 1 of 2..12: its time fraction, its tableau row's
            # product with the stages it reads (views of K), the row of K it
            # fills, and that row's dot for the finiteness check; dot is the
            # cheaper call with the bits of @ for rows of length >= 2, not
            # for length 1
            stages = [(_C[i], (_ROWS[i].dot if i >= 2 else
                               _ROWS[i].__matmul__), K[:i], K[i], K[i].dot)
                      for i in range(1, 12)]
            # K[i].dot(zeros) is NaN exactly when K[i] holds an inf or a
            # NaN, since 0 * inf and 0 * nan are NaN
            zeros = np.zeros(m)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                K[0] = rhs(s, y)
                if not math.isfinite(K[0].dot(zeros)):
                    raise DomainEvaluationError(
                        "right-hand side not finite at initial state")
                ss, ys, fs = [s], [y], [K[0].copy()]
                h = direction * min(opts.max_step, abs(s1 - s0))
                # |y|, for the error scale; an accepted step hands on |y8|
                ay = np.abs(y)
                attempts = 0
                while (s1 - s) * direction > 0:
                    if attempts == MAX_STEPS:
                        raise StepBudgetError(
                            f"step budget of {MAX_STEPS} attempted steps "
                            f"exhausted at s={s} short of {s1}")
                    attempts += 1
                    h = direction * min(abs(h), abs(s1 - s))
                    # h as a numpy scalar for the in-place array scalings;
                    # the stage time stays a float
                    hn = np.float64(h)
                    err = math.inf
                    for c, product, Kprev, Ki, Ki_dot in stages:
                        # y + h * (row @ Kprev), formed in place in the new
                        # array that the product returns
                        yi = product(Kprev)
                        yi *= hn
                        yi += y
                        Ki[...] = rhs(s + c * h, yi)
                        # no later stage may be evaluated at a non-finite state
                        if not math.isfinite(Ki_dot(zeros)):
                            break
                    else:
                        # y8, from the last row, in place as the stages are
                        yi = _ROWS[12].dot(K12)
                        yi *= hn
                        yi += y
                        # scale = abs_tol + rel_tol * max(|y|, |y8|), and
                        # the sums of squares of e5 and e3, in place
                        ayi = np.abs(yi)
                        scale = np.maximum(ay, ayi)
                        scale *= opts.rel_tol
                        scale += opts.abs_tol
                        e5 = _E5.dot(K12)
                        e5 /= scale
                        e5 *= e5
                        e3 = _E3.dot(K12)
                        e3 /= scale
                        e3 *= e3
                        n5 = float(np.add.reduce(e5))
                        den = (n5 + 0.01 * float(np.add.reduce(e3))) * m
                        # both estimates 0 is a zero error; a NaN or an
                        # overflow anywhere is an infinite one
                        err = abs(h) * n5 / math.sqrt(den) \
                            if 0 < den < math.inf \
                            else 0.0 if den == 0 else math.inf
                    if err <= 1.0:
                        # the 13th evaluation, at y8 and only once the step
                        # is accepted, is the next step's first stage (FSAL);
                        # a non-finite one rejects the step after all
                        K13[...] = rhs(s + h, yi)
                        if math.isfinite(K13.dot(zeros)):
                            s = s1 if abs(s1 - (s + h)) \
                                < 1e-14 * abs(s1 - s0) else s + h
                            y = yi
                            ay = ayi
                            K[0] = K13
                            ss.append(s)
                            ys.append(y)
                            fs.append(K[0].copy())
                        else:
                            err = math.inf
                    # a failed stage or a non-finite error (NaN or inf) shrinks by 0.2
                    factor = 0.9 * err ** -0.125 if 0 < err < math.inf \
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
    except _ComplexWarning as exc:
        raise DomainEvaluationError(f"complex state or RHS value: {exc}") from None
    except (OverflowError, ZeroDivisionError) as exc:
        # a plain-float operation that Python refuses rather than giving an
        # inf or NaN, such as math.exp(1e3) or 1.0 / 0.0 inside rhs
        raise DomainEvaluationError(
            f"state or RHS value not evaluable: {type(exc).__name__}: {exc}"
        ) from None

    traj = Trajectory(s=np.array(ss), states=np.array(ys), labels=tuple(labels),
                      derivs=np.array(fs))
    if (s1 - s) * direction > 0:
        raise IntegrationStallError(
            f"step size underflow at s={s} (stiffness or singularity)", traj)
    return traj
