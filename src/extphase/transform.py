"""Extended canonical transformations via generating functions F1..F4.

A generating function's value callable takes (x, y, a, b, s): two argument
blocks (x, a) and (y, b), each an n-vector plus a scalar, and the evolution
parameter s.  Which conjugate pair of the source point and of the image each
block holds is fixed by the kind, and `_LAYOUT` is the single statement of
it:

    F1: (q, q', t, t', s)        F2: (q, p', t, e', s)
    F3: (q', p, t', e, s)        F4: (p, p', e, e', s)

One rule set serves all four kinds: dF/d(q, t) = (p, -e) and
dF/d(p, e) = (-q, t) for the unprimed pair, and the same with a minus sign
for the primed pair.

All value callables must use the generic arithmetic of
:mod:`extphase.numkit` so the implicit transformation rules can be solved
and differentiated by dual seeding, and must be pure functions of their
arguments: a float solve runs on kernels traced once per F.  A
`legendre_convert`-ed F at float arguments seeds nothing either: its
gradient and mixed Hessian are read off its joint root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import numkit
from .errors import DegeneracyError, DegenerateTimeError
from .numkit import Dual, value_of
from .phase import ExtendedPoint, map_jacobian

# kind -> (unprimed pair, primed pair, whether the unprimed pair fills the
# first argument block (x, a)); "qt" is the (q.., t) pair, "pe" the (p.., e)
_LAYOUT = {
    "F1": ("qt", "qt", True),
    "F2": ("qt", "pe", True),
    "F3": ("pe", "qt", False),
    "F4": ("pe", "pe", True),
}
_PARTNER = {"qt": "pe", "pe": "qt"}
KINDS = tuple(_LAYOUT)


@dataclass(frozen=True)
class GeneratingFunction:
    kind: str
    value: object  # callable (x, y, a, b, s) -> scalar
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generating-function kind {self.kind!r}")

    def __call__(self, x, y, a, b, s=0.0):
        return self.value(x, y, a, b, s)

    @cached_property
    def _bind_rule(self):
        """The `numkit.residual_binder` of F's rule residual: its traced
        kernels live as long as F."""
        m = self.n + 1
        return numkit.residual_binder(partial(_rule_residual, self),
                                      2 * m + 1, m)


def _floats(values):
    return all(isinstance(v, (int, float)) for v in values)


@dataclass(frozen=True)
class _Converted(GeneratingFunction):
    """A `legendre_convert`-ed F.  At float params (its unprimed pair, its
    primed pair and s, flat), `_derivatives(params)` is (dV/d(unprimed),
    dV/d(primed), d^2 V / d(unprimed) d(primed)) of its value V, read off
    the joint root; its pair gradients and its rule at float arguments run
    on them and seed no value."""

    _derivatives: object = field(repr=False, compare=False)

    @cached_property
    def _bind_rule(self):
        dual = GeneratingFunction._bind_rule.func(self)
        m = self.n + 1

        def bind(params):
            if not _floats(params):
                return dual(params)
            known, momenta, s = params[:m], params[m:2 * m], params[2 * m]

            def jacobian(u):
                grad, _, hessian = self._derivatives([*known, *u, s])
                return [g - w for g, w in zip(grad, momenta)], hessian

            return (lambda u: jacobian(u)[0]), jacobian

        return bind


@dataclass(frozen=True)
class TransformReport:
    """Probe-based certification of a generated map at one point.

    The flags certify the stated partial-derivative conditions at the probe
    point only (tolerance 1e-10), not globally.  liouville_det is the
    absolute determinant of the full extended Jacobian, which is 1 for any
    canonical map.
    """

    hessian_det: float
    preserves_H1: bool
    time_global: bool
    spacetime_split: bool
    subspace_liouville: bool
    liouville_det: float = 1.0


def _pair(pt, name):
    """The (q.., t) or (p.., e) block of pt as one list."""
    if name == "qt":
        return list(pt.q) + [pt.t]
    return list(pt.p) + [pt.e]


def _point(name, vals, partner, s):
    """The point whose `name` pair is vals and whose other pair is partner."""
    n = len(vals) - 1
    if name == "pe":
        vals, partner = partner, vals
    return ExtendedPoint(q=tuple(vals[:n]), p=tuple(partner[:n]), t=vals[n],
                         e=partner[n], s=s)


def _flip(name, partner):
    """The momenta conjugate to pair `name`, from the values of its partner:
    (p, e) -> (p, -e) for "qt", (q, t) -> (-q, t) for "pe".  An involution."""
    n = len(partner) - 1
    if name == "qt":
        return partner[:n] + [-partner[n]]
    return [-v for v in partner[:n]] + [partner[n]]


def _blocks(first, unprimed, primed):
    """Argument blocks (x, y, a, b) of a value call from the two pairs."""
    xa, yb = (unprimed, primed) if first else (primed, unprimed)
    return xa[:-1], yb[:-1], xa[-1], yb[-1]


def _pair_gradient(F, first, unprimed, primed, s, wrt_primed):
    """dF/d(primed pair) or dF/d(unprimed pair), seeding only that pair; a
    converted F at float arguments seeds nothing."""
    if isinstance(F, _Converted) and _floats([*unprimed, *primed, s]):
        return F._derivatives([*unprimed, *primed, s])[1 if wrt_primed else 0]

    def f(v):
        if wrt_primed:
            return F.value(*_blocks(first, unprimed, v), s)
        return F.value(*_blocks(first, v, primed), s)

    return numkit.grad_raw(f, primed if wrt_primed else unprimed)[1]


def _rule_residual(F, x, u):
    """dF/d(unprimed pair) minus the momenta conjugate to the point's
    unprimed pair, at the image's primed pair u; x is the point's unprimed
    pair, those momenta and s, flat."""
    m = F.n + 1
    dU = _pair_gradient(F, _LAYOUT[F.kind][2], x[:m], u, x[2 * m],
                        wrt_primed=False)
    return [g - w for g, w in zip(dU, x[m:2 * m])]


def _rule_params(F, pt):
    """`_rule_residual`'s x at pt: the unprimed pair of F's kind, the
    momenta conjugate to it and s."""
    unprimed = _LAYOUT[F.kind][0]
    return _pair(pt, unprimed) \
        + _flip(unprimed, _pair(pt, _PARTNER[unprimed])) + [pt.s]


def _rule(F, pt):
    """The rule set of F's kind at pt, as (residual, jacobian, start).

    residual(u) is `_rule_residual` at the image's primed pair u and
    jacobian(u) is its (value, Jacobian); at a float point both run on the
    kernels F's binder keeps.  Damped Newton starts from the point's own
    primed pair.
    """
    if pt.n != F.n:
        raise ValueError(f"dimension mismatch: point has n={pt.n}, F has n={F.n}")
    residual, jacobian = F._bind_rule(_rule_params(F, pt))
    return residual, jacobian, _pair(pt, _LAYOUT[F.kind][1])


def _det(jacobian, u):
    """Determinant of the mixed Hessian d^2 F / d(x,a) d(y,b) at u: the
    Jacobian of the rule residual (its transpose for F3, whose unprimed pair
    fills (y, b))."""
    _, rows = jacobian(u)
    return float(np.linalg.det(np.array([[value_of(r) for r in row]
                                         for row in rows])))


def _solved_det(jacobian, u):
    """`_det` at the root u of the residual, which must not vanish there."""
    det = _det(jacobian, u)
    if abs(det) < 1e-12:
        raise DegeneracyError(
            f"generating function degenerate at solution (|hessian| = {abs(det):.3e})")
    return det


def _image(F, known, u, s):
    """The image whose primed pair (of F's kind) is u, of a point whose
    unprimed pair is known: its other pair is -dF/d(primed), flipped."""
    _, primed, first = _LAYOUT[F.kind]
    dP = _pair_gradient(F, first, known, u, s, wrt_primed=True)
    return _point(primed, u, _flip(primed, [-g for g in dP]), s)


def _apply(F, pt):
    """Solve the rule set of F's kind at pt.

    The unknowns are the image's primed pair, the root of the rule
    residual; the momenta conjugate to it are then -dF/d(primed).
    Returns (image point, resolved argument blocks (x, y, a, b), the
    residual's jacobian, root).
    """
    unprimed, _, first = _LAYOUT[F.kind]
    residual, jacobian, start = _rule(F, pt)
    u = numkit.newton_solve(residual, start, jacobian)
    known = _pair(pt, unprimed)
    return _image(F, known, u, pt.s), _blocks(first, known, u), jacobian, u


def apply_generating(F, pt):
    """Apply the canonical map induced by F to pt (s passes through unchanged).

    Implicit rules are solved by damped Newton from the point's own (p, e)
    or (q, t) block; the branch continuous from it is returned when multiple
    solutions exist.
    """
    image, _, jacobian, u = _apply(F, pt)
    _solved_det(jacobian, u)
    return image


def hessian_det(F, pt):
    """Mixed second-derivative determinant of F in its kind's extended variables.

    The unresolved argument block is probed at the point's own (p, e) or
    (q, t) values; nonzero certifies local invertibility of the induced map.
    """
    _, jacobian, u = _rule(F, pt)
    return _det(jacobian, u)


# algebraic offset of each kind's value relative to the F1 form: a primed
# (p, e) pair adds q'.p' - t'e', an unprimed one subtracts q.p - t e
def _extra(kind, src, img):
    def qp_minus_te(pt):
        return sum(a * b for a, b in zip(pt.q, pt.p)) - pt.t * pt.e

    unprimed, primed, _ = _LAYOUT[kind]
    extra = 0.0
    if primed == "pe":
        extra = qp_minus_te(img)
    if unprimed == "pe":
        extra = extra - qp_minus_te(src)
    return extra


def legendre_convert(F, target_kind):
    """Build an equivalent generating function of another kind.

    The converted value resolves the full transformation configuration from
    its own arguments with one damped Newton solve over 2(n+1) unknowns:
    the source point's missing pair and F's primed pair.  The joint
    residual stacks F's rule at the source point on the mismatch between
    the image's target-primed pair and the value's own; Newton starts from
    that pair, and from the primed pair (of F's kind) of the source point it
    implies.  The solve runs at the primal (`value_of`) arguments, on the
    kernels of one `numkit.residual_binder` that the converted function
    keeps.  Only when an argument carries a `Dual` does one more
    `newton_solve`, on the dual residual, start from that root: it is the
    convergence check and two polishing steps, which make Taylor orders 1-3
    of the solution exact, enough for three nested seedings.  Errors come
    from the float solve, so float and dual arguments raise the same types.
    The source value is then shifted by the appropriate exchange terms.

    At float arguments the converted function's derivatives come from the
    joint root w without seeding its value.  By the envelope theorem its
    gradient in its unprimed and primed pairs is the momenta conjugate to
    them in the configuration at w.  Its mixed Hessian follows by the
    implicit-function theorem: the joint residual is linear in the wanted
    pair, so dw/d(wanted) = J_w^-1 [0; I], one LU solve of the joint
    Jacobian at w.  The rule residual, its Jacobian and the image's
    gradient take them, so a float `apply_generating`, `hessian_det` and
    `restriction_report`'s float solve seed no converted value; dual
    arguments and dual points keep the solve plus dual polish above.
    Unsolvable exchanges (e.g. the identity map as F1, whose joint Jacobian
    is singular) surface as :class:`DegeneracyError` when the converted
    function is evaluated or applied.
    """
    if target_kind not in KINDS:
        raise ValueError(f"unknown target kind {target_kind!r}")
    if target_kind == F.kind:
        return F
    n, m = F.n, F.n + 1
    unprimed, primed, first = _LAYOUT[target_kind]
    f_unprimed, f_primed, f_first = _LAYOUT[F.kind]

    def source(known, u, s):
        return _point(unprimed, known, u, s)

    def joint(params, w):
        # params: the known pair, the wanted pair and s, flat; w: the source
        # point's missing pair and F's primed pair
        known, want, s = params[:m], params[m:2 * m], params[2 * m]
        src, v = source(known, w[:m], s), w[m:]
        got = v if primed == f_primed else \
            _pair(_image(F, _pair(src, f_unprimed), v, s), primed)
        return _rule_residual(F, _rule_params(F, src), v) \
            + [g - c for g, c in zip(got, want)]

    bind = numkit.residual_binder(joint, 2 * m + 1, 2 * m)

    def solve(params):
        # the joint root: a float solve on the binder's kernels at the
        # primal params, then one dual polish if any of them is dual
        floats = [value_of(v) for v in params]
        f_want = floats[m:2 * m]
        start = f_want + _pair(source(floats[:m], f_want, floats[-1]),
                               f_primed)
        residual, jacobian = bind(floats)
        w = numkit.newton_solve(residual, start, jacobian)
        if any(isinstance(v, Dual) for v in params):
            w = numkit.newton_solve(partial(joint, params), w)
        return w

    def configuration(params, w):
        # the source point and its image at the joint unknowns w
        s = params[2 * m]
        src = source(params[:m], w[:m], s)
        return src, _image(F, _pair(src, f_unprimed), w[m:], s)

    def converted(x, y, a, b, s):
        # the target's unprimed pair is known; its partner is the unknown
        xa, yb = list(x) + [a], list(y) + [b]
        known, want = (xa, yb) if first else (yb, xa)
        params = known + want + [s]
        w = solve(params)
        src, img = configuration(params, w)
        return F.value(*_blocks(f_first, _pair(src, f_unprimed), w[m:]), s) \
            - _extra(F.kind, src, img) + _extra(target_kind, src, img)

    sign = np.array(_flip(unprimed, [1.0] * m))[:, None]

    def derivatives(params):
        # V's first derivatives are the momenta conjugate to its pairs at the
        # root (envelope theorem), the known pair's being w[:m] flipped.
        # joint is linear in the wanted pair (d joint / d want = [0; -I]), so
        # by the implicit-function theorem dw / d want = J_w^-1 [0; I]
        w = solve(params)
        _, img = configuration(params, w)
        _, jacobian = bind(params)
        dw = np.linalg.solve(np.array(jacobian(w)[1]), np.eye(2 * m)[:, m:])
        return (_flip(unprimed, w[:m]),
                [-g for g in _flip(primed, _pair(img, _PARTNER[primed]))],
                (sign * dw[:m]).tolist())

    return _Converted(kind=target_kind, value=converted, n=n,
                      _derivatives=derivatives)


def embed_conventional(f2, n):
    """Extend a conventional generating function f2(q, p', t) to the full space.

    The returned F2 induces t' = t and preserves H1; on-shell the
    conventional rule H' = H + df2/dt holds.
    """

    def value(q, pp, t, ep, s):
        return f2(q, pp, t) - t * ep

    return GeneratingFunction(kind="F2", value=value, n=n)


def transform_hamiltonian(H, F, pt):
    """Value of the transformed conventional Hamiltonian H' at the image of pt.

    Uses H' = (H - e) / (dt'/dt) + e', valid for s-independent generating
    functions; e' and dt'/dt come from one solve with t seeded.
    """
    def image_te(v):
        img = apply_generating(F, ExtendedPoint(q=pt.q, p=pt.p, t=v[0],
                                                e=pt.e, s=pt.s))
        return [img.t, img.e]

    (_, ep), ((dtp,), _) = numkit.jacobian_raw(image_te, [pt.t])
    dtp = value_of(dtp)
    if abs(dtp) < 1e-12:
        raise DegenerateTimeError("dt'/dt vanishes at probe point")
    h = H.H(pt.q, pt.p, pt.t)
    return value_of((h - pt.e) / dtp + ep)


def restriction_report(F, pt, tol=1e-10):
    """Probe the restriction conditions of the induced map at pt.

    One float solve gives the argument blocks, the mixed Hessian and dF/ds;
    the map's Jacobian comes from the solve with pt seeded.
    """
    n = pt.n
    _, args, jacobian, u = _apply(F, pt)
    hdet = _solved_det(jacobian, u)
    _, (dFds,) = numkit.grad_raw(lambda v: F.value(*args, v[0]), [pt.s])
    preserves = abs(value_of(dFds)) <= tol
    M = map_jacobian(lambda z: _apply(F, z)[0], pt)
    # ordering (q.., t, p.., -e): q rows/cols 0..n-1, t at n, p at n+1..2n, -e at 2n+1
    it, ie = n, 2 * n + 1
    time_global = all(abs(M[it, j]) <= tol for j in range(n)) and \
        all(abs(M[it, n + 1 + j]) <= tol for j in range(n))
    dep = [abs(M[it, ie])] + [abs(M[j, ie]) for j in range(n)] + \
        [abs(M[n + 1 + j, ie]) for j in range(n)]
    spacetime_split = all(d <= tol for d in dep)
    subspace_liouville = abs(M[it, it] * M[ie, ie] - 1.0) <= tol
    return TransformReport(
        hessian_det=hdet,
        preserves_H1=preserves,
        time_global=bool(time_global),
        spacetime_split=bool(spacetime_split),
        subspace_liouville=bool(subspace_liouville),
        liouville_det=float(abs(np.linalg.det(M))),
    )


def extended_identity(n):
    """The extended identity generating function F2 = q.p' - t e'."""

    def value(q, pp, t, ep, s):
        return sum(a * b for a, b in zip(q, pp)) - t * ep

    return GeneratingFunction(kind="F2", value=value, n=n)
