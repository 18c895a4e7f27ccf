"""Normal-ordered algebra of differential--difference operators.

An ``OpExpr`` is a finite sum of terms

    c(r, phi; a, b, w2) * dr^p * dphi^q * R^i * I^e

stored as a mapping (p, q, i, e) -> Coefficient with p, q >= 0, 0 <= i < 2k
and e in {0, 1}.  R is the rotation phi -> phi + pi/k, I the reflection
phi -> -phi; both commute with dr, while I dphi = -dphi I.  Products are
normal-ordered on the fly with the Leibniz rule, so equality of expressions
is literal equality of the term maps.

Every sum and product is a multiply-accumulate: ``deposit`` and
``accumulate`` file the parts of x + y and x * y under their operator keys in
a ``coeffring`` accumulator, and ``settle`` reduces each same-denominator
group once, then adds the distinct denominators.  ``+``, ``op_sum`` and the
sums of products (``commutator``, and ``deposit_product`` for the suite's
chains and the grammar's sums) put every part into one accumulator, so
parts that cancel do so before any cross-denominator sum.  This module
keeps the operator keys, the group moves and the Leibniz grid.  ``OpExpr``
is the top ``TermMap`` of the tower: ``op_coeff`` lifts anything that lifts
to a ``Coefficient``, and the operators come from the base, which keeps a
reflected product in order (``c * x`` is ``op_coeff(c) * x``).

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

from functools import reduce
from math import comb
from operator import mul

from .coeffring import (Coefficient, ZRat, _deposit_coefficient,
                        _deposit_products, _settle_monos)
from .cyclofield import FieldCtx, TermMap, binary_power, ctx_new
from .errors import AlgebraError, FieldError

__all__ = [
    "OpExpr", "op_zero", "op_one", "op_coeff", "op_param",
    "op_r", "op_dr", "op_dphi", "op_R", "op_I",
    "commutator", "op_sum", "op_product",
    "accumulate", "deposit", "deposit_product", "settle",
]


class OpExpr(TermMap):
    """A normal-ordered differential--difference operator."""

    __slots__ = ()

    @staticmethod
    def _embed(ctx: FieldCtx, c) -> "OpExpr":
        return op_coeff(ctx, c)

    # -- structure -------------------------------------------------------------

    def term_count(self) -> int:
        return len(self.terms)

    def max_orders(self) -> tuple[int, int]:
        """Highest (dr, dphi) orders present."""
        p = max((key[0] for key in self.terms), default=0)
        q = max((key[1] for key in self.terms), default=0)
        return p, q

    # -- ring operations -------------------------------------------------------

    def _add(self, o):
        return settle(self.ctx, deposit(deposit({}, self), o))

    def _mul(self, o):
        return settle(self.ctx, accumulate({}, self, o))

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
        return settle(self.ctx, deposit({}, self, project=True))

    def __repr__(self) -> str:
        from .exprparse import pretty
        return f"OpExpr({pretty(self)})"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def op_zero(ctx: FieldCtx) -> OpExpr:
    return OpExpr(ctx, {})


def op_one(ctx: FieldCtx) -> OpExpr:
    return OpExpr(ctx, {(0, 0, 0, 0): Coefficient.one(ctx)})


def op_coeff(ctx: FieldCtx, c) -> OpExpr:
    """Multiplication operator by anything that lifts to a Coefficient."""
    c = Coefficient._lift(ctx, c)
    return OpExpr(ctx, {(0, 0, 0, 0): c} if c.terms else {})


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
# sums of products: one multiply-accumulate
# ---------------------------------------------------------------------------
# An operator accumulator is a dict (p, q, i, e) -> coefficient accumulator;
# the slot arithmetic and its settling live in ``coeffring``.


def deposit(acc: dict, x: OpExpr, weight: int = 1,
            project: bool = False) -> dict:
    """acc += weight * x; with ``project`` every R^i I^e is replaced by 1."""
    if weight:
        for (p, q, i, e), c in x.terms.items():
            _deposit_coefficient(
                acc.setdefault((p, q, 0, 0) if project else (p, q, i, e), {}),
                c, weight)
    return acc


def accumulate(acc: dict, x: OpExpr, y: OpExpr, weight: int = 1,
               project: bool = False) -> dict:
    """acc += weight * x * y, normal-ordered with the Leibniz rule; with
    ``project`` every R^i I^e of the product is replaced by 1."""
    if y.ctx is not x.ctx:
        raise FieldError("mixed field contexts in OpExpr arithmetic")
    if not weight:
        return acc
    ctx = x.ctx
    two_k = 2 * ctx.k
    # (key of y, i, e) -> that coefficient of y moved past R^i I^e, so each
    # is reflected once and rotated once per i, not once per term of x.  The
    # table belongs to this call and is dropped with it.
    moved = {}
    for (p1, q1, i1, e1), c1 in x.terms.items():
        for key2, c2 in y.terms.items():
            p2, q2, i2, e2 = key2
            # commute the group part of term 1 past c2 ...
            c2p = moved.get((key2, i1, e1))
            if c2p is None:
                c2p = c2
                if e1:
                    c2p = moved.get((key2, 0, 1))
                    if c2p is None:
                        c2p = moved[key2, 0, 1] = c2.reflect()
                if i1:
                    c2p = c2p.rotate_n(i1)
                moved[key2, i1, e1] = c2p
            # ... and past dphi^{q2} (I dphi = -dphi I)
            sign = -weight if e1 and q2 % 2 else weight
            if project:
                i_out = e_out = 0
            else:
                i_out = (i1 - i2 if e1 else i1 + i2) % two_k
                e_out = e1 ^ e2
            # Leibniz: dr^{p1} dphi^{q1} acting on c2p times the rest.  Every
            # derivative of zero is zero, so the dphi-derivatives stop at
            # the first zero, and so does each column of dr-derivatives:
            # cols[t][s] = dr^s dphi^t c2p.
            cols = [[c2p]]
            for _ in range(q1):
                d = cols[-1][0].d_phi()
                if not d.terms:
                    break
                cols.append([d])
            for col in cols:
                for _ in range(p1):
                    d = col[-1].d_r()
                    if not d.terms:
                        break
                    col.append(d)
            for s in range(max(map(len, cols))):
                cps = sign * comb(p1, s)
                for t, col in enumerate(cols):
                    if s >= len(col):
                        continue
                    g = col[s].terms
                    if not g:
                        continue
                    _deposit_products(ctx, acc.setdefault(
                        (p1 - s + p2, q1 - t + q2, i_out, e_out), {}),
                        c1.terms, g, cps * comb(q1, t))
    return acc


def deposit_product(acc: dict, factors, weight: int = 1,
                    project: bool = False) -> dict:
    """acc += weight * the product of ``factors``, left to right: the factors
    but the last are multiplied, and the last product is accumulated."""
    *head, last = factors
    if not head:
        return deposit(acc, last, weight, project)
    return accumulate(acc, reduce(mul, head), last, weight, project)


def settle(ctx: FieldCtx, acc: dict) -> OpExpr:
    """The operator an accumulator holds, in canonical form."""
    out = {}
    for key, monos in acc.items():
        c = _settle_monos(ctx, monos)
        if c.terms:
            out[key] = c
    return OpExpr(ctx, out)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def commutator(x: OpExpr, y: OpExpr) -> OpExpr:
    """x y - y x, both orders summed in one accumulator."""
    acc = accumulate({}, x, y)
    return settle(x.ctx, accumulate(acc, y, x, -1))


def op_sum(ctx: FieldCtx, parts) -> OpExpr:
    """The sum of ``parts``, each lifted to an operator, put into one
    accumulator and settled once."""
    acc = {}
    for part in parts:
        deposit(acc, OpExpr._lift(ctx, part))
    return settle(ctx, acc)


def op_product(ctx: FieldCtx, factors) -> OpExpr:
    """The product of ``factors``, left to right; ``op_one`` for none."""
    return settle(ctx, deposit_product({}, list(factors) or [op_one(ctx)]))
