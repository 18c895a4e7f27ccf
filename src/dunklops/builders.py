"""Constructors for the dihedral Dunkl operators and the Hamiltonians.

Every operator the verification suite talks about is built here, for any
1 <= k <= DUNKLOPS_MAX_K, with the odd/even branching in the angular operator:

    build_Dr      radial operator  dr - (1/r)(a R + b)(sum_i R^{2i}) I
    build_Dphi    angular operator; odd k uses shifted tan/cot multipliers,
                  even k uses tan/sec of k*phi spread over S = sum_i R^{4i}
    build_Hk      the scalar Hamiltonian with sec^2/csc^2 potential
    build_Xk      its angular part (the separation constant operator)
    build_extended_Hk   the group-invariant extension, in either of its two
                  equivalent forms ("via_Dphi" / "via_Dr")
    OperatorSet   all of these for one (k, mutation), built lazily and cached;
                  its ``hk_ext`` states both forms of the extension once, as
                  weighted chains (an ``Assembly``) that the exact side sums
                  and the oracle applies

``explicit_k3_*`` and ``explicit_k2_*`` are the same operators written out
summand by summand for those two k values, used to cross-check the general
constructors term-for-term.

Builders accept either a FieldCtx or a bare integer k.  ``MUTATIONS`` names
two single-coefficient defects for fail-path testing of the verification
suite; they must never be used for anything else:

    "b-shift"  the i = 0 cotangent multiplier -b becomes -(b+1) in build_Dphi
    "dr-drop"  build_Dr loses its i = k-1 rotation summand

The checks each defect must fail are stated by the tests that assert them.
"""

from __future__ import annotations

from functools import cached_property

from .coeffring import Coefficient, ZRat, trig
from .cyclofield import FieldCtx, ctx_new
from .errors import AlgebraError
from .opalgebra import (OpExpr, deposit, deposit_product, op_I, op_R,
                        op_coeff, op_dphi, op_dr, op_one, op_product, op_sum,
                        settle)

__all__ = [
    "build_S", "build_Dr", "build_Dphi",
    "build_Hk", "build_Xk", "build_extended_Hk", "build_counterterm",
    "build_reflection_tail", "build_Dphi_squared_expanded",
    "explicit_k3_Dr", "explicit_k3_Dphi", "explicit_k3_Dphi_squared",
    "explicit_k3_counterterm", "explicit_k2_Dr", "explicit_k2_Dphi",
    "explicit_k2_Dphi_squared", "explicit_k2_counterterm",
    "OPERATORS", "MUTATIONS", "OperatorSet", "Assembly",
]


def _as_ctx(k) -> FieldCtx:
    if isinstance(k, FieldCtx):
        return k
    return ctx_new(k)


def _check_mutation(mutation) -> None:
    if mutation is not None and mutation not in MUTATIONS:
        raise AlgebraError(f"unknown mutation {mutation!r}")


# -- group elements -----------------------------------------------------------


def build_S(k) -> OpExpr:
    """S = sum_{i=0}^{(k-2)/2} R^{4i}; defined for even k only."""
    ctx = _as_ctx(k)
    if ctx.k % 2:
        raise AlgebraError(f"S requires even k, got k={ctx.k}")
    return op_sum(ctx, (op_R(ctx, 4 * i) for i in range((ctx.k - 2) // 2 + 1)))


# -- Dunkl operators ------------------------------------------------------------


def build_reflection_tail(k) -> OpExpr:
    """(a R + b)(sum_{i<k} R^{2i}) I — the group-algebra tail of the radial
    operator, also appearing in its adjoint and in the mixed commutator."""
    ctx = _as_ctx(k)
    terms: dict = {}
    a_c = Coefficient.monomial(ctx, a=1)
    b_c = Coefficient.monomial(ctx, b=1)
    for i in range(ctx.k):
        terms[(0, 0, (2 * i + 1) % (2 * ctx.k), 1)] = a_c
        terms[(0, 0, 2 * i, 1)] = b_c
    return OpExpr(ctx, terms)


def build_Dr(k, mutation: str | None = None) -> OpExpr:
    ctx = _as_ctx(k)
    _check_mutation(mutation)
    upper = ctx.k - 1 if mutation == "dr-drop" else ctx.k
    terms: dict = {(1, 0, 0, 0): Coefficient.one(ctx)}
    a_c = Coefficient.monomial(ctx, m=-1, a=1)
    b_c = Coefficient.monomial(ctx, m=-1, b=1)
    for i in range(upper):
        terms[(0, 0, (2 * i + 1) % (2 * ctx.k), 1)] = -a_c
        terms[(0, 0, 2 * i, 1)] = -b_c
    return OpExpr(ctx, terms)


def build_Dphi(k, mutation: str | None = None) -> OpExpr:
    ctx = _as_ctx(k)
    _check_mutation(mutation)
    kk, two_k = ctx.k, 2 * ctx.k
    a_c = Coefficient.monomial(ctx, a=1)
    terms: dict = {(0, 1, 0, 0): Coefficient.one(ctx)}
    # the a-terms sit at odd powers of R, the b-terms at even ones
    if kk % 2:
        for i in range(kk):
            terms[0, 0, (kk + 2 * i) % two_k, 1] = \
                a_c * trig(ctx, "tan_shift", i)
    else:
        plus = a_c * (trig(ctx, "tan_k") + trig(ctx, "sec_k"))
        minus = a_c * (trig(ctx, "tan_k") - trig(ctx, "sec_k"))
        for i in range((kk - 2) // 2 + 1):
            terms[0, 0, (two_k - 1 + 4 * i) % two_k, 1] = plus
            terms[0, 0, (1 + 4 * i) % two_k, 1] = minus
    for i in range(kk):
        b_c = Coefficient.monomial(ctx, b=1)
        if i == 0 and mutation == "b-shift":
            b_c = b_c + Coefficient.one(ctx)
        terms[0, 0, 2 * i, 1] = -(b_c * trig(ctx, "cot_shift", i))
    return OpExpr(ctx, terms)


# -- Hamiltonians ------------------------------------------------------------------


def _potential(ctx: FieldCtx) -> Coefficient:
    """k^2 [a(a-1) sec^2(k phi) + b(b-1) csc^2(k phi)] as a Coefficient."""
    k2 = ctx.scalar(ctx.k * ctx.k)
    sec2 = k2 * trig(ctx, "sec2_k")
    csc2 = k2 * trig(ctx, "csc2_k")
    return Coefficient(ctx, {
        (0, 2, 0, 0): sec2, (0, 1, 0, 0): -sec2,
        (0, 0, 2, 0): csc2, (0, 0, 1, 0): -csc2,
    })


def build_Hk(k) -> OpExpr:
    ctx = _as_ctx(k)
    pot = Coefficient.monomial(ctx, m=-2) * _potential(ctx)
    osc = Coefficient.monomial(ctx, m=2, w2=1)
    return OpExpr(ctx, {
        (2, 0, 0, 0): -Coefficient.one(ctx),
        (1, 0, 0, 0): -Coefficient.monomial(ctx, m=-1),
        (0, 2, 0, 0): -Coefficient.monomial(ctx, m=-2),
        (0, 0, 0, 0): pot + osc,
    })


def build_Xk(k) -> OpExpr:
    ctx = _as_ctx(k)
    return OpExpr(ctx, {
        (0, 2, 0, 0): -Coefficient.one(ctx),
        (0, 0, 0, 0): _potential(ctx),
    })


def build_counterterm(k) -> OpExpr:
    """k (a^2 + b^2 + 2ab R) sum_{i<k} R^{2i}, the group-algebra constant
    relating the angular square to the invariant Hamiltonian."""
    ctx = _as_ctx(k)
    kk = ctx.k
    sq = Coefficient(ctx, {
        (0, 2, 0, 0): ZRat.const(ctx, kk),
        (0, 0, 2, 0): ZRat.const(ctx, kk),
    })
    cross = Coefficient.monomial(ctx, ZRat.const(ctx, 2 * kk), a=1, b=1)
    terms: dict = {}
    for i in range(kk):
        terms[(0, 0, 2 * i, 0)] = sq
        terms[(0, 0, (2 * i + 1) % (2 * kk), 0)] = cross
    return OpExpr(ctx, terms)


def build_Dphi_squared_expanded(k) -> OpExpr:
    """The angular square written with shifted multipliers and group terms
    (no operator products; this is the hand-expanded closed form)."""
    ctx = _as_ctx(k)
    kk, two_k = ctx.k, 2 * ctx.k
    acc = deposit({}, OpExpr(ctx, {(0, 2, 0, 0): Coefficient.one(ctx)}))
    a2 = Coefficient.monomial(ctx, a=2)
    ab1 = Coefficient.monomial(ctx, a=1)
    b2 = Coefficient.monomial(ctx, b=2)
    bb1 = Coefficient.monomial(ctx, b=1)
    if kk % 2:
        for i in range(kk):
            s2 = trig(ctx, "sec2_shift", i)
            deposit(acc, OpExpr(ctx, {
                (0, 0, 0, 0): a2 * s2,
                (0, 0, (kk + 2 * i) % two_k, 1): -(ab1 * s2),
            }), -1)
    else:
        hd = trig(ctx, "half_diff_inv2")
        hs = trig(ctx, "half_sum_inv2")
        kc = ctx.scalar(kk)
        for i in range((kk - 2) // 2 + 1):
            deposit(acc, OpExpr(ctx, {
                (0, 0, 4 * i, 0): a2 * (kc * (hd + hs)),
                (0, 0, (two_k - 1 + 4 * i) % two_k, 1): -(ab1 * (kc * hd)),
                (0, 0, (1 + 4 * i) % two_k, 1): -(ab1 * (kc * hs)),
            }), -1)
    for i in range(kk):
        c2 = trig(ctx, "csc2_shift", i)
        deposit(acc, OpExpr(ctx, {
            (0, 0, 0, 0): b2 * c2,
            (0, 0, 2 * i, 1): -(bb1 * c2),
        }), -1)
    return settle(ctx, deposit(acc, build_counterterm(ctx)))


def build_extended_Hk(k, form: str = "via_Dphi",
                      mutation: str | None = None) -> OpExpr:
    """The invariant extension, assembled from either defining expression
    as ``OperatorSet.hk_ext`` states it."""
    ops = OperatorSet(_as_ctx(k), mutation)
    return ops.assemble(ops.hk_ext(form))


# -- the shared operator set -----------------------------------------------------


class Assembly:
    """An operator stated as a sum of weighted chains: ``stages`` of
    [(weight, [factor, ...]), ...], each settled before the next is added.
    As a chain factor it stands for that sum; the exact side reads it from
    the OperatorSet member ``name``, which caches it, and the oracle applies
    its chains factor by factor."""

    __slots__ = ("name", "stages")

    def __init__(self, name: str, stages: list):
        self.name, self.stages = name, stages

    @property
    def chains(self) -> list:
        return [chain for stage in self.stages for chain in stage]


class OperatorSet:
    """All operators a suite run needs for one (k, mutation), built lazily
    and shared across checks (the angular square is the expensive one) and,
    unmutated, with the CLI's named operators."""

    def __init__(self, ctx: FieldCtx, mutation: str | None = None):
        _check_mutation(mutation)
        self.ctx = ctx
        self.mutation = mutation

    @cached_property
    def R(self) -> OpExpr:
        return op_R(self.ctx)

    @cached_property
    def I(self) -> OpExpr:
        return op_I(self.ctx)

    @cached_property
    def one(self) -> OpExpr:
        return op_one(self.ctx)

    @cached_property
    def inv_r(self) -> OpExpr:
        return op_coeff(self.ctx, Coefficient.monomial(self.ctx, m=-1))

    @cached_property
    def inv_r2(self) -> OpExpr:
        return op_coeff(self.ctx, Coefficient.monomial(self.ctx, m=-2))

    @cached_property
    def osc(self) -> OpExpr:
        return op_coeff(self.ctx, Coefficient.monomial(self.ctx, m=2, w2=1))

    @cached_property
    def Dr(self) -> OpExpr:
        return build_Dr(self.ctx, self.mutation)

    @cached_property
    def Dphi(self) -> OpExpr:
        return build_Dphi(self.ctx, self.mutation)

    @cached_property
    def Dphi2(self) -> OpExpr:
        return self.Dphi * self.Dphi

    def deposit_chain(self, acc: dict, chain, weight: int = 1,
                      project: bool = False) -> dict:
        """acc += weight * the product of ``chain``, by ``deposit_product``.
        An Assembly factor is the sum its member caches, (Dphi, Dphi) the
        cached Dphi2, another tuple a sub-product; an empty chain is one."""
        factors = []
        for f in chain:
            if isinstance(f, Assembly):
                f = getattr(self, f.name)
            elif isinstance(f, tuple):
                f = (self.Dphi2 if f == (self.Dphi, self.Dphi)
                     else op_product(self.ctx, f))
            factors.append(f)
        return deposit_product(acc, factors or [self.one], weight, project)

    def assemble(self, assembly: Assembly) -> OpExpr:
        """The sum an Assembly states, each stage settled before the next."""
        acc: dict = {}
        for stage in assembly.stages:
            acc = deposit({}, settle(self.ctx, acc))
            for weight, chain in stage:
                self.deposit_chain(acc, chain, weight)
        return settle(self.ctx, acc)

    def hk_ext(self, form: str) -> Assembly:
        """The invariant extension in either defining expression:

            via_Dphi  -dr^2 - r^-1 dr - r^-2 Dphi^2 + r^-2 counterterm + osc
            via_Dr    -Dr^2 - r^-1 (bracket Dr) - r^-2 Dphi^2 + osc

        The first two summands via Dr cancel terms that the third brings
        back; settling them first keeps the term order of the chained sum,
        which the oracle sums in."""
        dphi2 = (self.Dphi, self.Dphi)
        if form == "via_Dphi":
            dr = op_dr(self.ctx)
            return Assembly("HkExtPhi", [[
                (-1, [dr, dr]), (-1, [self.inv_r, dr]),
                (-1, [self.inv_r2, dphi2]),
                (1, [self.inv_r2, self.counterterm]), (1, [self.osc])]])
        if form == "via_Dr":
            return Assembly("HkExtDr", [
                [(-1, [self.Dr, self.Dr]),
                 (-1, [self.inv_r, (self.bracket, self.Dr)])],
                [(-1, [self.inv_r2, dphi2]), (1, [self.osc])]])
        raise AlgebraError(f"unknown form {form!r}")

    @cached_property
    def Dphi2_expanded(self) -> OpExpr:
        return build_Dphi_squared_expanded(self.ctx)

    @cached_property
    def tail(self) -> OpExpr:
        return build_reflection_tail(self.ctx)

    @cached_property
    def bracket(self) -> OpExpr:
        return self.one + 2 * self.tail

    @cached_property
    def counterterm(self) -> OpExpr:
        return build_counterterm(self.ctx)

    @cached_property
    def Hk(self) -> OpExpr:
        return build_Hk(self.ctx)

    @cached_property
    def Xk(self) -> OpExpr:
        return build_Xk(self.ctx)

    @cached_property
    def HkExtPhi(self) -> OpExpr:
        return self.assemble(self.hk_ext("via_Dphi"))

    @cached_property
    def HkExtDr(self) -> OpExpr:
        return self.assemble(self.hk_ext("via_Dr"))

    @cached_property
    def S(self) -> OpExpr:
        return build_S(self.ctx)

    @cached_property
    def proj_shift(self) -> OpExpr:
        """k^2 (a + b)^2 as a multiplication operator."""
        k2 = self.ctx.scalar(self.ctx.k ** 2)
        return op_coeff(self.ctx, Coefficient(self.ctx, {
            (0, 2, 0, 0): ZRat.const(self.ctx, 1) * k2,
            (0, 1, 1, 0): ZRat.const(self.ctx, 2) * k2,
            (0, 0, 2, 0): ZRat.const(self.ctx, 1) * k2,
        }))


# -- explicit low-k transcriptions ------------------------------------------------
# The k=3 and k=2 operators written out summand by summand, used to check the
# general constructors against the concrete low-order forms.


def explicit_k3_Dr() -> OpExpr:
    ctx = ctx_new(3)
    dr = op_dr(ctx)
    inv_r = op_coeff(ctx, Coefficient.monomial(ctx, m=-1))
    a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
    b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
    group = (a * op_R(ctx) + b) * (op_one(ctx) + op_R(ctx, 2) + op_R(ctx, 4))
    return dr - inv_r * group * op_I(ctx)


def explicit_k3_Dphi() -> OpExpr:
    ctx = ctx_new(3)
    a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
    b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
    t = [op_coeff(ctx, trig(ctx, "tan_shift", j)) for j in range(3)]
    c = [op_coeff(ctx, trig(ctx, "cot_shift", j)) for j in range(3)]
    tan_part = t[0] * op_R(ctx, 3) + t[1] * op_R(ctx, 5) + t[2] * op_R(ctx, 1)
    cot_part = c[0] + c[1] * op_R(ctx, 2) + c[2] * op_R(ctx, 4)
    return (op_dphi(ctx) + a * tan_part * op_I(ctx)
            - b * cot_part * op_I(ctx))


def explicit_k3_counterterm() -> OpExpr:
    ctx = ctx_new(3)
    a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
    b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
    quad = a * a + b * b + 2 * a * b * op_R(ctx)
    return 3 * quad * (op_one(ctx) + op_R(ctx, 2) + op_R(ctx, 4))


def explicit_k3_Dphi_squared() -> OpExpr:
    ctx = ctx_new(3)
    a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
    b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
    total = op_dphi(ctx) * op_dphi(ctx)
    tan_groups = [op_R(ctx, 3), op_R(ctx, 5), op_R(ctx, 1)]
    for j in range(3):
        s2 = op_coeff(ctx, trig(ctx, "sec2_shift", j))
        total = total - s2 * a * (a - tan_groups[j] * op_I(ctx))
    cot_groups = [op_one(ctx), op_R(ctx, 2), op_R(ctx, 4)]
    for j in range(3):
        c2 = op_coeff(ctx, trig(ctx, "csc2_shift", j))
        total = total - c2 * b * (b - cot_groups[j] * op_I(ctx))
    return total + explicit_k3_counterterm()


def explicit_k2_Dr() -> OpExpr:
    ctx = ctx_new(2)
    inv_r = op_coeff(ctx, Coefficient.monomial(ctx, m=-1))
    a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
    b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
    group = (a * op_R(ctx) + b) * (op_one(ctx) + op_R(ctx, 2))
    return op_dr(ctx) - inv_r * group * op_I(ctx)


def explicit_k2_Dphi() -> OpExpr:
    ctx = ctx_new(2)
    a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
    b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
    tank = op_coeff(ctx, trig(ctx, "tan_k"))
    seck = op_coeff(ctx, trig(ctx, "sec_k"))
    tan0 = op_coeff(ctx, trig(ctx, "tan_shift", 0))
    cot0 = op_coeff(ctx, trig(ctx, "cot_shift", 0))
    a_part = ((tank + seck) * op_R(ctx, 2) + tank - seck) * op_R(ctx, 1)
    b_part = tan0 * op_R(ctx, 2) - cot0
    return (op_dphi(ctx) + a * a_part * op_I(ctx) + b * b_part * op_I(ctx))


def explicit_k2_counterterm() -> OpExpr:
    ctx = ctx_new(2)
    a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
    b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
    quad = a * a + b * b + 2 * a * b * op_R(ctx)
    return 2 * quad * (op_one(ctx) + op_R(ctx, 2))


def explicit_k2_Dphi_squared() -> OpExpr:
    ctx = ctx_new(2)
    a = op_coeff(ctx, Coefficient.monomial(ctx, a=1))
    b = op_coeff(ctx, Coefficient.monomial(ctx, b=1))
    hd = op_coeff(ctx, trig(ctx, "half_diff_inv2"))
    hs = op_coeff(ctx, trig(ctx, "half_sum_inv2"))
    sec2_phi = op_coeff(ctx, trig(ctx, "csc2_shift", 1))  # 1/cos^2(phi)
    csc2_phi = op_coeff(ctx, trig(ctx, "csc2_shift", 0))
    total = op_dphi(ctx) * op_dphi(ctx)
    total = total - 2 * (hd * a * (a - op_R(ctx, 3) * op_I(ctx))
                         + hs * a * (a - op_R(ctx, 1) * op_I(ctx)))
    total = total - (sec2_phi * b * (b - op_R(ctx, 2) * op_I(ctx))
                     + csc2_phi * b * (b - op_I(ctx)))
    return total + explicit_k2_counterterm()


# -- registries ---------------------------------------------------------------------


OPERATORS = {
    "R": op_R,
    "I": op_I,
    "S": build_S,
    "Dr": build_Dr,
    "Dphi": build_Dphi,
    "Hk": build_Hk,
    "Xk": build_Xk,
    "HkExt": lambda ctx: build_extended_Hk(ctx, "via_Dphi"),
    "HkExtViaDr": lambda ctx: build_extended_Hk(ctx, "via_Dr"),
}

MUTATIONS = ("b-shift", "dr-drop")
