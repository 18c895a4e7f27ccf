"""Normal-ordered algebra of differential--difference operators.

An ``OpExpr`` is a finite sum of terms

    c(r, phi; a, b, w2) * dr^p * dphi^q * R^i * I^e

stored as a mapping (p, q, i, e) -> Coefficient with p, q >= 0, 0 <= i < 2k
and e in {0, 1}.  R is the rotation phi -> phi + pi/k, I the reflection
phi -> -phi; both commute with dr, while I dphi = -dphi I.  Products are
normal-ordered on the fly with the Leibniz rule, so equality of expressions
is literal equality of the term maps.

Adjoints are taken for the inner product with weight r dr dphi on the
punctured plane:

    dr+ = -dr - 1/r,  dphi+ = -dphi,  R+ = R^{2k-1},  I+ = I,

and multiplication operators go to their complex conjugates (z -> 1/z on the
unit circle).  ``project_identity`` replaces every group element by 1, which
is how an operator acts on functions invariant under the whole dihedral
group.

>>> ctx = ctx_new(2)
>>> (op_I(ctx) * op_R(ctx)) == op_R(ctx, 3) * op_I(ctx)   # I R = R^{-1} I
True
>>> from .coeffring import trig
>>> t = op_coeff(ctx, trig(ctx, "tan_shift", 0))
>>> commutator(op_dphi(ctx), t) == op_coeff(ctx, trig(ctx, "sec2_shift", 0))
True
"""

from __future__ import annotations

from math import comb

from ._rat import RAT
from .coeffring import Coefficient, ZRat, _sum_coefficients
from .cyclofield import CycloScalar, FieldCtx, binary_power, ctx_new
from .errors import AlgebraError, FieldError

__all__ = [
    "OpExpr", "op_zero", "op_one", "op_scalar", "op_coeff", "op_param",
    "op_r", "op_dr", "op_dphi", "op_R", "op_I",
    "commutator", "anticommutator", "op_sum", "op_product",
]


class OpExpr:
    """A normal-ordered differential--difference operator."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: FieldCtx, terms: dict):
        self.ctx = ctx
        self.terms = terms
        self._hash = None

    @staticmethod
    def make(ctx: FieldCtx, terms: dict) -> "OpExpr":
        return OpExpr(ctx, {key: c for key, c in terms.items()
                            if not c.is_zero()})

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def items(self):
        """Terms in the canonical (p, q, i, e) order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def max_orders(self) -> tuple[int, int]:
        """Highest (dr, dphi) orders present."""
        p = max((key[0] for key in self.terms), default=0)
        q = max((key[1] for key in self.terms), default=0)
        return p, q

    # -- coercion ----------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, OpExpr):
            if other.ctx is not self.ctx:
                raise FieldError("mixed field contexts in operator arithmetic")
            return other
        if isinstance(other, (Coefficient, ZRat, CycloScalar, int)) \
                or type(other) is RAT:
            return op_coeff(self.ctx, other)
        return None

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in o.terms.items():
            cur = out.get(key)
            tot = c if cur is None else cur + c
            if tot.is_zero():
                out.pop(key, None)
            else:
                out[key] = tot
        return OpExpr(self.ctx, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return OpExpr(self.ctx, {key: -c for key, c in self.terms.items()})

    # -- multiplication ------------------------------------------------------------

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        two_k = 2 * ctx.k
        acc: dict = {}
        for (p1, q1, i1, e1), c1 in self.terms.items():
            for (p2, q2, i2, e2), c2 in o.terms.items():
                # commute the group part of term 1 past c2 ...
                c2p = c2.reflect() if e1 else c2
                if i1:
                    c2p = c2p.rotate_n(i1)
                # ... and past dphi^{q2} (I dphi = -dphi I)
                sign_flip = bool(e1 and q2 % 2)
                i_out = (i1 - i2 if e1 else i1 + i2) % two_k
                e_out = e1 ^ e2
                # Leibniz: dr^{p1} dphi^{q1} acting on c2p times the rest
                grid = [[None] * (q1 + 1) for _ in range(p1 + 1)]
                grid[0][0] = c2p
                for t in range(1, q1 + 1):
                    grid[0][t] = grid[0][t - 1].d_phi()
                for s in range(1, p1 + 1):
                    for t in range(q1 + 1):
                        grid[s][t] = grid[s - 1][t].d_r()
                for s in range(p1 + 1):
                    cps = comb(p1, s)
                    for t in range(q1 + 1):
                        g = grid[s][t]
                        if g.is_zero():
                            continue
                        factor = cps * comb(q1, t)
                        if sign_flip:
                            factor = -factor
                        part = c1 * g
                        if factor != 1:
                            part = part * factor
                        key = (p1 - s + p2, q1 - t + q2, i_out, e_out)
                        acc.setdefault(key, []).append(part)
        out = {}
        for key, parts in acc.items():
            total = _sum_coefficients(ctx, parts)
            if not total.is_zero():
                out[key] = total
        return OpExpr(ctx, out)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return binary_power(self, n, op_one(self.ctx))

    # -- involutions -----------------------------------------------------------------

    def adjoint(self) -> "OpExpr":
        """Formal adjoint for the inner product with weight r dr dphi."""
        ctx = self.ctx
        two_k = 2 * ctx.k
        neg_dphi = -op_dphi(ctx)
        adj_dr = -(op_dr(ctx) + op_r(ctx, -1))
        total = op_zero(ctx)
        for (p, q, i, e), c in self.terms.items():
            factors = []
            if e:
                factors.append(op_I(ctx))
            if i:
                factors.append(op_R(ctx, (-i) % two_k))
            if q:
                factors.append(neg_dphi ** q)
            if p:
                factors.append(adj_dr ** p)
            factors.append(op_coeff(ctx, c.conj()))
            total = total + op_product(ctx, factors)
        return total

    def project_identity(self) -> "OpExpr":
        """Replace every R^i I^e by 1 (action on fully invariant functions)."""
        acc: dict = {}
        for (p, q, _i, _e), c in self.terms.items():
            acc.setdefault((p, q, 0, 0), []).append(c)
        out = {}
        for key, parts in acc.items():
            total = _sum_coefficients(self.ctx, parts)
            if not total.is_zero():
                out[key] = total
        return OpExpr(self.ctx, out)

    # -- comparison --------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, OpExpr):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.ctx.N,
                 tuple(sorted((key, hash(c)) for key, c in self.terms.items())))
            )
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "OpExpr(0)"
        bits = []
        for (p, q, i, e), c in self.items():
            tags = []
            if p:
                tags.append(f"dr^{p}")
            if q:
                tags.append(f"dphi^{q}")
            if i:
                tags.append(f"R^{i}")
            if e:
                tags.append("I")
            head = "*".join(tags) if tags else "1"
            bits.append(f"({c!r})*{head}")
        return "OpExpr(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def op_zero(ctx: FieldCtx) -> OpExpr:
    return OpExpr(ctx, {})


def op_one(ctx: FieldCtx) -> OpExpr:
    return OpExpr(ctx, {(0, 0, 0, 0): Coefficient.one(ctx)})


def op_scalar(ctx: FieldCtx, value) -> OpExpr:
    return op_coeff(ctx, value)


def op_coeff(ctx: FieldCtx, c) -> OpExpr:
    """Multiplication operator by a coefficient (or anything coercible)."""
    if not isinstance(c, Coefficient):
        c = Coefficient.monomial(ctx, c if isinstance(c, ZRat)
                                 else ZRat.const(ctx, c))
    if c.is_zero():
        return OpExpr(ctx, {})
    return OpExpr(ctx, {(0, 0, 0, 0): c})


_PARAM_SLOT = {"a": 1, "b": 2, "w2": 3}


def op_param(ctx: FieldCtx, name: str, power: int = 1) -> OpExpr:
    """Multiplication by a^power, b^power or w2^power."""
    slot = _PARAM_SLOT.get(name)
    if slot is None:
        raise AlgebraError(f"unknown parameter {name!r}")
    if power < 0:
        raise AlgebraError("parameters only occur with nonnegative powers")
    key = [0, 0, 0, 0]
    key[slot] = power
    return op_coeff(ctx, Coefficient(ctx, {tuple(key): ZRat.const(ctx, 1)}))


def op_r(ctx: FieldCtx, m: int = 1) -> OpExpr:
    """Multiplication by r^m (any integer m)."""
    return op_coeff(ctx, Coefficient.monomial(ctx, m=m))


def op_dr(ctx: FieldCtx) -> OpExpr:
    return OpExpr(ctx, {(1, 0, 0, 0): Coefficient.one(ctx)})


def op_dphi(ctx: FieldCtx) -> OpExpr:
    return OpExpr(ctx, {(0, 1, 0, 0): Coefficient.one(ctx)})


def op_R(ctx: FieldCtx, n: int = 1) -> OpExpr:
    return OpExpr(ctx, {(0, 0, n % (2 * ctx.k), 0): Coefficient.one(ctx)})


def op_I(ctx: FieldCtx) -> OpExpr:
    return OpExpr(ctx, {(0, 0, 0, 1): Coefficient.one(ctx)})


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def commutator(x: OpExpr, y: OpExpr) -> OpExpr:
    return x * y - y * x


def anticommutator(x: OpExpr, y: OpExpr) -> OpExpr:
    return x * y + y * x


def op_sum(ctx: FieldCtx, parts) -> OpExpr:
    total = op_zero(ctx)
    for part in parts:
        total = total + part
    return total


def op_product(ctx: FieldCtx, factors) -> OpExpr:
    total = op_one(ctx)
    for factor in factors:
        total = total * factor
    return total
