"""Normal-ordered operator algebra: ordering rules, ring laws, adjoints."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklops import identities
from dunklops.builders import Assembly, build_Dphi, build_Dr
from dunklops.coeffring import Coefficient, ZRat, _den_tuple, trig
from dunklops.cyclofield import ctx_new
from dunklops.errors import AlgebraError, FieldError
from dunklops.exprparse import parse_op
from dunklops.opalgebra import (OpExpr, accumulate, commutator,
                                deposit_product, op_I, op_R, op_coeff,
                                op_dphi, op_dr, op_one, op_param, op_product,
                                op_r, op_sum, op_zero, settle)
from ring_helpers import zrat_from_poly


def anticommutator(x, y):
    """x y + y x, both orders summed in one accumulator."""
    return settle(x.ctx, accumulate(accumulate({}, x, y), y, x))


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------


def test_derivatives_past_multiplication_ops():
    ctx = ctx_new(3)
    r = op_r(ctx)
    t = op_coeff(ctx, trig(ctx, "tan_shift", 0))
    sec2 = op_coeff(ctx, trig(ctx, "sec2_shift", 0))
    assert op_dr(ctx) * r == r * op_dr(ctx) + op_one(ctx)
    assert op_dphi(ctx) * t == t * op_dphi(ctx) + sec2
    # second order Leibniz: dphi^2 c = c dphi^2 + 2 c' dphi + c''
    dphi = op_dphi(ctx)
    c1 = trig(ctx, "sec2_shift", 0)
    c2 = c1.d_phi()
    expect = (t * dphi * dphi + 2 * op_coeff(ctx, c1) * dphi
              + op_coeff(ctx, c2))
    assert dphi * dphi * t == expect
    # dr and dphi hit independent variables
    assert op_dphi(ctx) * r == r * op_dphi(ctx)
    assert op_dr(ctx) * t == t * op_dr(ctx)


def test_group_elements_past_multiplication_ops():
    ctx = ctx_new(4)
    c = trig(ctx, "cot_shift", 1)
    assert op_R(ctx) * op_coeff(ctx, c) == op_coeff(ctx, c.rotate_n(1)) * op_R(ctx)
    assert op_I(ctx) * op_coeff(ctx, c) == op_coeff(ctx, c.reflect()) * op_I(ctx)
    assert op_R(ctx) * op_dr(ctx) == op_dr(ctx) * op_R(ctx)
    assert op_R(ctx) * op_dphi(ctx) == op_dphi(ctx) * op_R(ctx)
    assert op_I(ctx) * op_dr(ctx) == op_dr(ctx) * op_I(ctx)
    assert op_I(ctx) * op_dphi(ctx) == -op_dphi(ctx) * op_I(ctx)


def test_group_multiplication_table():
    for k in (1, 2, 3):
        ctx = ctx_new(k)
        two_k = 2 * k
        R, I = op_R(ctx), op_I(ctx)
        assert R ** two_k == op_one(ctx)
        assert I * I == op_one(ctx)
        for i in range(two_k):
            for j in range(two_k):
                assert op_R(ctx, i) * op_R(ctx, j) == op_R(ctx, i + j)
            assert I * op_R(ctx, i) == op_R(ctx, -i) * I


def test_mixed_term_product_is_fully_ordered():
    ctx = ctx_new(2)
    x = op_coeff(ctx, trig(ctx, "tan_k")) * op_dphi(ctx) * op_I(ctx)
    y = op_r(ctx, -1) * op_dr(ctx) * op_R(ctx)
    prod = x * y
    for (p, q, i, e) in prod.terms:
        assert p >= 0 and q >= 0 and 0 <= i < 4 and e in (0, 1)
    assert prod.max_orders() == (1, 1)


# ---------------------------------------------------------------------------
# linear structure, coercion, misc structure
# ---------------------------------------------------------------------------


def test_zero_one_and_coercion():
    ctx = ctx_new(2)
    x = op_dphi(ctx) + op_coeff(ctx, trig(ctx, "sec_k"))
    assert x + op_zero(ctx) == x
    assert x * op_one(ctx) == x == op_one(ctx) * x
    assert x - x == op_zero(ctx)
    assert not op_zero(ctx)
    assert bool(x)
    assert 3 * x == x + x + x
    assert Fraction(1, 2) * (x + x) == x
    assert x + 1 == x + op_one(ctx)
    assert 1 - x == op_one(ctx) - x
    assert op_coeff(ctx, 5) == 5 * op_one(ctx)
    assert (op_sum(ctx, [x, 1, -x, Fraction(1, 2)])
            == Fraction(3, 2) * op_one(ctx))
    with pytest.raises(TypeError):
        op_sum(ctx, [x, "dr"])
    assert trig(ctx, "tan_k") * x == op_coeff(ctx, trig(ctx, "tan_k")) * x


def test_items_and_counts():
    ctx = ctx_new(2)
    x = op_dr(ctx) + op_dphi(ctx) + op_I(ctx)
    assert x.term_count() == 3
    assert [key for key, _ in x.items()] == [(0, 0, 0, 1), (0, 1, 0, 0),
                                             (1, 0, 0, 0)]
    assert x.max_orders() == (1, 1)


def test_param_ops():
    ctx = ctx_new(2)
    ab = op_param(ctx, "a") * op_param(ctx, "b")
    ((key, c),) = ab.items()
    assert key == (0, 0, 0, 0)
    assert list(c.terms) == [(0, 1, 1, 0)]
    assert op_param(ctx, "w2", 2) * op_r(ctx, 4) == op_r(ctx, 2) \
        * op_coeff(ctx, Coefficient.monomial(ctx, m=2, w2=2))
    with pytest.raises(AlgebraError):
        op_param(ctx, "c")
    with pytest.raises(AlgebraError):
        op_param(ctx, "a", -1)


def test_mixed_contexts_rejected():
    with pytest.raises(FieldError):
        _ = op_dr(ctx_new(2)) * op_dr(ctx_new(3))
    with pytest.raises(FieldError):
        _ = op_dr(ctx_new(2)) + op_dr(ctx_new(3))
    with pytest.raises(FieldError):
        op_sum(ctx_new(2), [op_dr(ctx_new(3))])
    for combine in (commutator, anticommutator):
        with pytest.raises(FieldError):
            combine(op_dr(ctx_new(2)), op_dphi(ctx_new(3)))
        with pytest.raises(FieldError):
            combine(op_R(ctx_new(3)), op_I(ctx_new(2)))


def test_pow_rejects_negative():
    with pytest.raises(TypeError):
        _ = op_R(ctx_new(2)) ** (-1)


def test_commutator_combinators():
    ctx = ctx_new(2)
    x, y = op_dphi(ctx), op_coeff(ctx, trig(ctx, "tan_k"))
    assert commutator(x, y) == x * y - y * x
    assert anticommutator(x, y) == x * y + y * x
    assert commutator(x, x) == op_zero(ctx)


def test_fully_cancelling_results_have_no_terms():
    for k in (1, 2, 3, 4):
        ctx = ctx_new(k)
        x = op_dphi(ctx) * op_coeff(ctx, trig(ctx, "tan_k")) + op_I(ctx)
        assert commutator(x, x).terms == {}
        assert commutator(op_R(ctx), build_Dr(ctx)).terms == {}
        assert anticommutator(op_I(ctx), build_Dphi(ctx)).terms == {}
        assert (x * op_R(ctx) - x).project_identity().terms == {}


def test_equal_ops_hash_equal():
    ctx = ctx_new(3)
    x = op_dphi(ctx) * op_coeff(ctx, trig(ctx, "tan_shift", 1))
    y = (op_coeff(ctx, trig(ctx, "tan_shift", 1)) * op_dphi(ctx)
         + op_coeff(ctx, trig(ctx, "sec2_shift", 1)))
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


# ---------------------------------------------------------------------------
# adjoints
# ---------------------------------------------------------------------------


def test_adjoint_generator_table():
    for k in (1, 2, 3):
        ctx = ctx_new(k)
        assert op_dphi(ctx).adjoint() == -op_dphi(ctx)
        assert op_dr(ctx).adjoint() == -(op_dr(ctx) + op_r(ctx, -1))
        assert op_I(ctx).adjoint() == op_I(ctx)
        for i in range(2 * k):
            assert op_R(ctx, i).adjoint() == op_R(ctx, -i)
        # real multiplication operators are self-adjoint
        for c in (op_r(ctx, 3), op_param(ctx, "a"),
                  op_coeff(ctx, trig(ctx, "tan_k"))):
            assert c.adjoint() == c
        # scalars conjugate
        ii = op_coeff(ctx, ctx.imag_unit())
        assert ii.adjoint() == -ii


def test_adjoint_is_antimultiplicative_on_examples():
    ctx = ctx_new(3)
    x = op_dr(ctx) * op_coeff(ctx, trig(ctx, "csc2_k")) + op_I(ctx)
    y = op_dphi(ctx) * op_R(ctx, 2)
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()
    assert (x + y).adjoint() == x.adjoint() + y.adjoint()
    assert x.adjoint().adjoint() == x


# ---------------------------------------------------------------------------
# projection onto dihedral invariants
# ---------------------------------------------------------------------------


def test_project_identity_drops_group_part():
    ctx = ctx_new(2)
    t = trig(ctx, "tan_k")
    c = trig(ctx, "csc2_shift", 0)
    x = (op_coeff(ctx, t) * op_R(ctx, 3) + op_coeff(ctx, c) * op_I(ctx)
         + op_dphi(ctx) * op_R(ctx) * op_I(ctx))
    proj = x.project_identity()
    assert proj == op_coeff(ctx, t + c) + op_dphi(ctx)
    assert proj.project_identity() == proj
    # cancellation across group sectors
    y = op_coeff(ctx, t) * (op_one(ctx) - op_R(ctx, 2))
    assert y.project_identity() == op_zero(ctx)


# ---------------------------------------------------------------------------
# randomized ring/adjoint laws (the 200-case battery)
# ---------------------------------------------------------------------------


def _atom_pool(ctx):
    return [
        op_dr(ctx),
        op_dphi(ctx),
        op_R(ctx),
        op_I(ctx),
        op_r(ctx, -1),
        op_param(ctx, "a"),
        op_coeff(ctx, trig(ctx, "tan_shift", 0)),
        op_coeff(ctx, trig(ctx, "csc2_shift", 0)),
        op_coeff(ctx, ctx.imag_unit()),
        op_r(ctx, 2) * op_param(ctx, "w2"),
    ]


def _random_op(rng, ctx, pool):
    parts = []
    for _ in range(rng.randint(1, 2)):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        term = factors[0]
        for f in factors[1:]:
            term = term * f
        if rng.random() < 0.3:
            term = rng.randint(-3, 3) * term
        parts.append(term)
    total = op_zero(ctx)
    for part in parts:
        total = total + part
    return total


def test_randomized_algebra_laws_200_cases():
    rng = random.Random(20260815)
    cases = 0
    for k in (1, 2, 3):
        ctx = ctx_new(k)
        pool = _atom_pool(ctx)
        for _ in range(67):
            x = _random_op(rng, ctx, pool)
            y = _random_op(rng, ctx, pool)
            z = _random_op(rng, ctx, pool)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (y + z) * x == y * x + z * x
            assert (x * y).adjoint() == y.adjoint() * x.adjoint()
            assert x.adjoint().adjoint() == x
            cases += 1
    assert cases >= 200


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.sampled_from([1, 2]))
def test_linear_laws_hypothesis(data, k):
    ctx = ctx_new(k)
    pool = _atom_pool(ctx)
    pick = st.integers(0, len(pool) - 1)
    x = pool[data.draw(pick)] * pool[data.draw(pick)]
    y = pool[data.draw(pick)]
    n = data.draw(st.integers(-4, 4))
    assert x + y == y + x
    assert n * (x + y) == n * x + n * y
    assert -(-x) == x
    assert (x - y) + y == x


# ---------------------------------------------------------------------------
# products mean composition: cross-check against the numeric action
# ---------------------------------------------------------------------------


def test_product_matches_composition_numerically():
    import numpy as np

    from dunklops.oracle import _Batch, _chain_value, _jet_order
    ctx = ctx_new(2)
    x = op_dphi(ctx) + op_coeff(ctx, trig(ctx, "tan_shift", 1)) * op_R(ctx)
    y = (op_dr(ctx) * op_I(ctx)
         + op_param(ctx, "a") * op_coeff(ctx, trig(ctx, "csc2_shift", 0)))
    prod = x * y
    # five columns of the numeric checks' own draw, each a test function at
    # a sample point
    b = _Batch.draw(np.random.default_rng(7), 5, ctx, _jet_order([x, y]),
                    invariant=False)
    lhs = _chain_value(1, [prod], b)
    rhs = _chain_value(1, [x, y], b)
    assert np.all(np.abs(lhs - rhs)
                  <= 1e-9 * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs))))


# ---------------------------------------------------------------------------
# the multiply-accumulate against a one-part-at-a-time reference
# ---------------------------------------------------------------------------
# The reference sums and multiplies term by term on ZRat.__add__ and
# ZRat.__mul__ alone: Coefficient and OpExpr arithmetic runs through the
# accumulator under test, so the reference uses neither.


def _ref_add_into(out, key, terms, w=1):
    """out[key] += w * terms, one monomial at a time by ZRat.__add__."""
    acc = out.setdefault(key, {})
    for mono, zr in terms.items():
        zr = zr * w
        tot = acc[mono] + zr if mono in acc else zr
        if tot.is_zero():
            del acc[mono]
        else:
            acc[mono] = tot


def _ref_op(ctx, out):
    return OpExpr(ctx, {key: Coefficient(ctx, terms)
                        for key, terms in out.items() if terms})


def _ref_sum(ctx, parts, project=False):
    """sum of w * x over the (w, x) in ``parts``; with ``project`` every
    R^i I^e is replaced by 1."""
    out = {}
    for w, x in parts:
        for (p, q, i, e), c in x.terms.items():
            _ref_add_into(out, (p, q, 0, 0) if project else (p, q, i, e),
                          c.terms, w)
    return _ref_op(ctx, out)


def _reference_product(x, y):
    """x * y by the Leibniz loop, with each part added on its own (no
    grouping by denominator)."""
    ctx = x.ctx
    two_k = 2 * ctx.k
    out = {}
    for (p1, q1, i1, e1), c1 in x.terms.items():
        for (p2, q2, i2, e2), c2 in y.terms.items():
            c2p = c2.reflect() if e1 else c2
            if i1:
                c2p = c2p.rotate_n(i1)
            sign = -1 if e1 and q2 % 2 else 1
            i_out = (i1 - i2 if e1 else i1 + i2) % two_k
            for s in range(p1 + 1):
                for t in range(q1 + 1):
                    g = c2p
                    for _ in range(t):
                        g = g.d_phi()
                    for _ in range(s):
                        g = g.d_r()
                    factor = sign * comb(p1, s) * comb(q1, t)
                    key = (p1 - s + p2, q1 - t + q2, i_out, e1 ^ e2)
                    for (m1, a1, b1, g1), z1 in c1.terms.items():
                        for (m2, a2, b2, g2), z2 in g.terms.items():
                            mono = (m1 + m2, a1 + a2, b1 + b2, g1 + g2)
                            _ref_add_into(out, key, {mono: z1 * z2}, factor)
    return _ref_op(ctx, out)


def _reference_project(x):
    return _ref_sum(x.ctx, [(1, x)], project=True)


def _reference_chain(ops, chain):
    total = ops.one
    for f in chain:
        if isinstance(f, Assembly):
            f = _ref_sum(ops.ctx, [(w, _reference_chain(ops, c))
                                   for w, c in f.chains])
        elif isinstance(f, tuple):
            f = _reference_chain(ops, f)
        total = _reference_product(total, f)
    return total


def _assert_canonical_op(op):
    """No zero Coefficient or ZRat is stored, and every ZRat is reduced."""
    for c in op.terms.values():
        assert isinstance(c, Coefficient) and c.terms
        for zr in c.terms.values():
            assert zr.num and any(zr.num[-1])
            assert zr.den == _den_tuple(dict(zr.den))
            assert zr == ZRat._make(zr.ctx, list(zr.num), dict(zr.den))


def _pool_with_k_kinds(ctx):
    pool = _atom_pool(ctx) + [op_coeff(ctx, trig(ctx, "sec_k")),
                              op_coeff(ctx, trig(ctx, "cot_shift", 1))]
    if ctx.k % 2 == 0:
        pool.append(op_coeff(ctx, trig(ctx, "half_sum_inv2")))
    return pool


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_accumulator_matches_the_reference(k):
    rng = random.Random(1300 + k)
    ctx = ctx_new(k)
    pool = _pool_with_k_kinds(ctx)
    for _ in range(10):
        x = _random_op(rng, ctx, pool) * rng.choice(pool)
        y = _random_op(rng, ctx, pool)
        xy, yx = _reference_product(x, y), _reference_product(y, x)
        for got, want in ((x * y, xy),
                          (commutator(x, y),
                           _ref_sum(ctx, [(1, xy), (-1, yx)])),
                          (anticommutator(x, y),
                           _ref_sum(ctx, [(1, xy), (1, yx)])),
                          (x.project_identity(), _reference_project(x)),
                          ((x * y).project_identity(),
                           _reference_project(xy)),
                          (settle(ctx, accumulate({}, x, y, -2, project=True)),
                           _ref_sum(ctx, [(-2, xy)], project=True))):
            assert got == want
            _assert_canonical_op(got)


@pytest.mark.parametrize("k", [2, 3])
def test_deposit_product_files_the_weighted_product(k):
    rng = random.Random(2500 + k)
    ctx = ctx_new(k)
    pool = _pool_with_k_kinds(ctx)
    for n in (1, 1, 2, 2, 3, 3, 4, 4):
        factors = [_random_op(rng, ctx, pool) for _ in range(n)]
        product = factors[0]
        for f in factors[1:]:
            product = _reference_product(product, f)
        assert op_product(ctx, factors) == product
        for weight, project in ((1, False), (-3, False), (2, True)):
            got = settle(ctx, deposit_product({}, factors, weight, project))
            assert got == _ref_sum(ctx, [(weight, product)], project), n
            _assert_canonical_op(got)
        # a second deposit into the same accumulator cancels the first
        acc = deposit_product({}, factors, 2)
        assert settle(ctx, deposit_product(acc, factors, -2)) == op_zero(ctx)
    x = factors[0]
    assert op_product(ctx, []) == op_one(ctx)
    assert op_product(ctx, [x]) == x
    assert op_product(ctx, (f for f in [x, x])) == x * x


def _spec_rows(k, mutation):
    ops = identities.operator_set(k, mutation)
    for cid in identities.DEFAULT_CHECK_IDS:
        if identities.applicable(cid, k):
            for rid, spec_fn in identities._REGISTRY[cid][1](ops):
                spec = spec_fn()
                if spec[0] != "trig":
                    yield ops, cid + rid, spec


@pytest.mark.parametrize("k, mutation", [(1, None), (2, None), (3, None),
                                         (4, None), (5, None),
                                         (3, "b-shift"), (4, "dr-drop")])
def test_residuals_match_the_reference_chains(k, mutation):
    rows = 0
    for ops, row_id, (kind, lhs, rhs) in _spec_rows(k, mutation):
        total = _ref_sum(ops.ctx, [(w, _reference_chain(ops, chain))
                                   for w, chain in lhs],
                         project=kind == "ops-invariant")
        total = _ref_sum(ops.ctx, [(1, total)]
                         + [(-w, _reference_chain(ops, chain))
                            for w, chain in rhs])
        residual = identities._exact_residual(ops, (kind, lhs, rhs))
        assert residual == total, row_id
        _assert_canonical_op(residual)
        rows += 1
    assert rows >= 15


def test_the_seed_1744_commutator_matches_the_reference():
    """At k = 4 the repl workload's oracle check of this commutator reads a
    relative deviation of 2.46e-9 at seed 1744 over 8 trials, above its
    1e-9 tolerance.  The exact side equals the term-by-term reference, both
    operands included, so that deviation is the float witness's."""
    ctx = ctx_new(4)

    def ref_chain(*factors):
        total = op_one(ctx)
        for f in factors:
            total = _reference_product(total, f)
        return total
    a_b = _ref_sum(ctx, [(1, op_param(ctx, "a")), (-1, op_param(ctx, "b"))])
    x = ref_chain(a_b, op_dphi(ctx), op_dphi(ctx),
                  op_coeff(ctx, trig(ctx, "cot_shift", 0)), op_I(ctx))
    y = ref_chain(op_coeff(ctx, ZRat.z_power(ctx, -1)), a_b, op_R(ctx, 3))
    assert parse_op("(a - b)*dphi^2*cot(phi)*I", ctx) == x
    assert parse_op("z^-1*(a - b)*R^3", ctx) == y
    got = commutator(x, y)
    assert got == _ref_sum(ctx, [(1, _reference_product(x, y)),
                                 (-1, _reference_product(y, x))])
    assert got.terms
    _assert_canonical_op(got)


def test_product_reflects_each_right_coefficient_once(monkeypatch):
    """accumulate moves each coefficient of the right factor past I once per
    product, however many terms of the left factor carry I."""
    ops = identities.operator_set(3)
    x, y = ops.HkExtPhi, ops.Dphi
    assert sum(e for (_, _, _, e) in x.terms) == 2 * ops.ctx.k
    want = x * y
    reflected = []
    reflect = Coefficient.reflect
    monkeypatch.setattr(Coefficient, "reflect",
                        lambda c: reflected.append(c) or reflect(c))
    assert x * y == want
    assert len(reflected) == len(y.terms)
    assert {id(c) for c in reflected} == {id(c) for c in y.terms.values()}


# ---------------------------------------------------------------------------
# the accumulator's in-place paths
# ---------------------------------------------------------------------------


def _poly(ctx, *coeffs):
    return zrat_from_poly(ctx, coeffs)


def test_a_single_general_part_cancels_its_cross_atom():
    """(z - 1) * 1/(z - 1): neither factor is constant, so the part is filed
    unreduced under the atom z - 1, and settle must still cancel it."""
    ctx = ctx_new(2)
    lin = _poly(ctx, -1, 1)
    x, y = op_coeff(ctx, lin), op_coeff(ctx, lin.inv())
    assert not lin.is_const() and not lin.inv().is_const()
    assert x * y == op_one(ctx)
    assert y * x == op_one(ctx)
    assert type((x * y).terms[0, 0, 0, 0].terms[0, 0, 0, 0].num[0][0]) is int


def test_an_atom_cancels_only_once_two_general_parts_are_summed():
    """z^2/(z - 1) + (1 - 2z)/(z - 1) = z - 1, though neither part reduces."""
    ctx = ctx_new(2)
    g = op_coeff(ctx, _poly(ctx, -1, 1).inv())
    first = op_coeff(ctx, _poly(ctx, 0, 0, 1))
    second = op_coeff(ctx, _poly(ctx, 1, -2))
    for part in (g * first, g * second):
        (zr,) = part.terms[0, 0, 0, 0].terms.values()
        assert zr.den
    acc = accumulate(accumulate({}, g, first), g, second)
    total = settle(ctx, acc)
    assert total == op_coeff(ctx, _poly(ctx, -1, 1))
    _assert_canonical_op(total)


def test_a_folded_rational_unit_settles_to_int_coordinates():
    """Half of 3z/(z - 1) has coordinates 3/2; two halves, or one half with
    the integer factor 2 folded in, settle to the int 3, not a Fraction."""
    ctx = ctx_new(2)
    half = op_coeff(ctx, Fraction(1, 2))
    f = op_coeff(ctx, _poly(ctx, 0, 3) * _poly(ctx, -1, 1).inv())
    assert {type(v) for zr in (half * f).terms[0, 0, 0, 0].terms.values()
            for row in zr.num for v in row} == {int, Fraction}
    for acc in (accumulate(accumulate({}, half, f), f, half),
                accumulate({}, half, f, 2)):
        total = settle(ctx, acc)
        assert total == f
        (zr,) = total.terms[0, 0, 0, 0].terms.values()
        assert all(type(v) is int for row in zr.num for v in row)
        _assert_canonical_op(total)


def test_a_product_builds_no_zrat_product(monkeypatch):
    """HkExtPhi * Dphi2 at k = 3 adds every part into its slot's rows: its
    144 parts with a constant factor fold the unit into the add, and the
    others multiply numerators and leave the cancellation to settle."""
    ops = identities.operator_set(3)
    x, y = ops.HkExtPhi, ops.Dphi2
    want = x * y
    calls = []
    mul = ZRat.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)
    monkeypatch.setattr(ZRat, "__mul__", counting)
    monkeypatch.setattr(ZRat, "__rmul__", counting)
    assert x * y == want
    assert calls == []
