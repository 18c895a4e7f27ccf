"""Expression language: grammar, elaboration, pretty-printer round-trips."""

import pathlib
import random
import sys
from fractions import Fraction

import pytest

from dunklops.builders import (build_Dphi, build_Dr, build_Hk, build_S,
                               build_Xk, build_counterterm, operator_set)
from dunklops.coeffring import Coefficient, ZRat, trig
from dunklops.cyclofield import ctx_new
from dunklops.errors import ParseError
from dunklops.exprparse import (elaborate, parse, parse_op, pretty,
                                pretty_coefficient, pretty_zrat)
from dunklops.opalgebra import (OpExpr, commutator, op_I, op_R, op_coeff,
                                op_dphi, op_dr, op_one, op_param, op_r)

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# parsing and elaboration
# ---------------------------------------------------------------------------


def test_generators_and_literals():
    ctx = ctx_new(3)
    assert parse_op("dr", ctx) == op_dr(ctx)
    assert parse_op("dphi", ctx) == op_dphi(ctx)
    assert parse_op("R", ctx) == op_R(ctx)
    assert parse_op("R^5", ctx) == op_R(ctx, 5)
    assert parse_op("I", ctx) == op_I(ctx)
    assert parse_op("a*b^2", ctx) == op_param(ctx, "a") * op_param(ctx, "b", 2)
    assert parse_op("w2", ctx) == op_param(ctx, "w2")
    assert parse_op("r^-2", ctx) == op_r(ctx, -2)
    assert parse_op("3/4", ctx) == op_coeff(ctx, Fraction(3, 4))
    assert parse_op("i", ctx) == op_coeff(ctx, ctx.imag_unit())
    assert parse_op("zeta^7", ctx) == op_coeff(ctx, ctx.root_power(7))
    assert parse_op("z^-1", ctx) == op_coeff(ctx, ZRat.z_power(ctx, -1))


def test_precedence_and_unary_minus():
    ctx = ctx_new(2)
    assert parse_op("-dr + 2*dphi", ctx) == -op_dr(ctx) + 2 * op_dphi(ctx)
    assert parse_op("1 - 2*R^2", ctx) == op_one(ctx) - 2 * op_R(ctx, 2)
    assert parse_op("(1 - R)^2", ctx) == (op_one(ctx) - op_R(ctx)) ** 2
    assert parse_op("2^3", ctx) == op_coeff(ctx, 8)
    # ^ binds tighter than *
    assert parse_op("2*R^2", ctx) == 2 * op_R(ctx, 2)


def test_radial_dunkl_from_text():
    ctx = ctx_new(3)
    text = "dr - r^-1*(a*R + b)*(1 + R^2 + R^4)*I"
    assert parse_op(text, ctx) == build_Dr(3)


def test_trig_sugar():
    ctx = ctx_new(3)
    assert parse_op("tan(phi)", ctx) == op_coeff(ctx, trig(ctx, "tan_shift", 0))
    assert parse_op("cot(phi + 2*pi/k)", ctx) \
        == op_coeff(ctx, trig(ctx, "cot_shift", 2))
    assert parse_op("sec2(phi - 1*pi/k)", ctx) \
        == op_coeff(ctx, trig(ctx, "sec2_shift", 2))
    assert parse_op("csc2(phi + 7*pi/k)", ctx) \
        == op_coeff(ctx, trig(ctx, "csc2_shift", 1))
    assert parse_op("tank(phi)", ctx) == op_coeff(ctx, trig(ctx, "tan_k"))
    assert parse_op("seck(phi)", ctx) == op_coeff(ctx, trig(ctx, "sec_k"))
    assert parse_op("tan(phi)^-1", ctx) \
        == op_coeff(ctx, trig(ctx, "cot_shift", 0))


def test_angular_reference_operator_in_text():
    assert parse_op("S", ctx_new(4)) == build_S(4)
    with pytest.raises(ParseError):
        parse_op("S", ctx_new(3))


def test_negative_powers_require_invertible_base():
    ctx = ctx_new(2)
    assert parse_op("(2*r^3)^-2", ctx) == op_coeff(
        ctx, Coefficient.monomial(ctx, ZRat.const(ctx, Fraction(1, 4)), m=-6))
    assert parse_op("(z^2)^-1", ctx) == op_coeff(ctx, ZRat.z_power(ctx, -2))
    # 1 + tan inverts: its numerator splits over the cyclotomic atoms
    t = trig(ctx, "tan_shift", 0)
    assert parse_op("(tan(phi) + 1)^-1", ctx) \
        == op_coeff(ctx, (t + ZRat.const(ctx, 1)).inv())
    for text in ("(a)^-1", "(1 + R)^-1", "dr^-1", "(1 + z + z^2)^-1"):
        with pytest.raises(ParseError):
            parse_op(text, ctx)
    for text in ("(0)^-1", "(r - r)^-1"):
        with pytest.raises(ParseError, match="negative power of zero"):
            parse_op(text, ctx)


def test_ast_shape_is_plain_tuples():
    ast = parse("dr + 2")
    assert ast[0] == "sum"
    signs = [sign for sign, _node in ast[1]]
    assert signs == [1, 1]


def test_error_positions():
    cases = [
        ("dr + ", 5),             # missing operand
        ("(dr", 3),               # unbalanced group
        ("dr dphi", 3),           # trailing input
        ("frob", 0),              # unknown name
        ("tan(phi + pi/k)", 10),  # shift needs an integer multiplier
        ("seck(phi + 1*pi/k)", 0),  # no shift on whole-angle sugar
        ("r^x", 2),
    ]
    for text, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_op(text, ctx_new(2))
        assert err.value.pos == pos, text
        assert err.value.text == text


def test_an_over_long_integer_literal_is_a_parse_error():
    # int() refuses text past the interpreter's digit limit with a bare
    # ValueError; the tokenizer turns that into a positioned ParseError
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer text of any length")
    digits = "9" * (limit + 1)
    for text, pos in ((digits + "*dr", 0), ("dr + 2/" + digits, 7)):
        with pytest.raises(ParseError, match=f"{limit + 1} digits is too long"
                           ) as err:
            parse(text)
        assert err.value.pos == pos
        assert err.value.text == text


def test_elaborate_separately():
    ctx = ctx_new(2)
    ast = parse("dphi^2 - tank(phi)*dphi")
    op = elaborate(ast, ctx)
    t = op_coeff(ctx, trig(ctx, "tan_k"))
    assert op == op_dphi(ctx) ** 2 - t * op_dphi(ctx)


def test_a_sum_accumulates_the_last_product_of_each_term(monkeypatch):
    """Each term's factors but the last are multiplied, and its last
    product goes into the sum's one accumulator; a power never multiplies
    by the identity."""
    ctx = ctx_new(3)
    a, b = op_param(ctx, "a"), op_param(ctx, "b")
    want = (a * op_dphi(ctx) * op_R(ctx) - b * op_dr(ctx) * op_I(ctx)
            + op_r(ctx))
    products = []
    mul = OpExpr.__mul__
    monkeypatch.setattr(OpExpr, "__mul__",
                        lambda x, y: products.append(1) or mul(x, y))
    for text, count in (("a*dphi*R - b*dr*I + r", 2), ("dr^8", 3),
                        ("dr^8*R", 3), ("R*dr^8 + 1", 3)):
        products.clear()
        got = parse_op(text, ctx)
        assert len(products) == count, text
    assert parse_op("a*dphi*R - b*dr*I + r", ctx) == want
    assert got == op_R(ctx) * op_dr(ctx) ** 8 + 1


# ---------------------------------------------------------------------------
# pretty-printing
# ---------------------------------------------------------------------------


def test_pretty_simple_forms():
    ctx = ctx_new(4)
    assert pretty(build_S(4)) == "1 + R^4"
    assert pretty(op_zero_like(ctx)) == "0"
    assert pretty(-op_dr(ctx)) == "-dr"
    assert pretty(op_r(ctx, -1) * op_param(ctx, "a") * op_R(ctx)) == "r^-1*a*R"
    assert pretty(2 * op_dphi(ctx) * op_I(ctx) - op_one(ctx)) \
        == "-1 + 2*dphi*I"


def op_zero_like(ctx):
    from dunklops.opalgebra import op_zero
    return op_zero(ctx)


def test_pretty_zrat_and_coefficient():
    ctx = ctx_new(2)
    assert pretty_zrat(ZRat.const(ctx, Fraction(-3, 2))) == "-3/2"
    assert pretty_zrat(ZRat.z_power(ctx, 2)) == "z^2"
    # at k=2 the base root is zeta = i, so tan(phi) has numerator i(1 - z^2)
    assert pretty_zrat(trig(ctx, "tan_shift", 0)) \
        == "(zeta - zeta*z^2)*(z - zeta)^-1*(z - zeta^3)^-1"
    assert pretty_coefficient(Coefficient(ctx, {})) == "0"
    assert pretty_coefficient(Coefficient.monomial(ctx, m=-2, a=1, w2=1)) \
        == "r^-2*a*w2"
    # the reprs wrap the printed text
    assert repr(ZRat.z_power(ctx, 2)) == "ZRat(z^2)"
    assert repr(Coefficient(ctx, {})) == "Coefficient(0)"
    assert repr(build_S(4)) == "OpExpr(1 + R^4)"


def test_roundtrip_all_builders():
    for k in range(1, 7):
        ctx = ctx_new(k)
        ops = [build_Dr(k), build_Dphi(k), build_Hk(k), build_Xk(k),
               build_counterterm(k), operator_set(k).HkExtPhi]
        if k % 2 == 0:
            ops.append(build_S(k))
        for op in ops:
            assert parse_op(pretty(op), ctx) == op


def test_golden_commutator_k3():
    from dunklops.builders import build_Dphi, build_Dr
    ctx = ctx_new(3)
    com = commutator(build_Dr(3), build_Dphi(3))
    golden = (GOLDEN / "commutator_k3.txt").read_text().rstrip("\n")
    assert pretty(com) == golden
    assert parse_op(golden, ctx) == com


def _random_op(rng, ctx):
    pool = [
        op_dr(ctx), op_dphi(ctx), op_R(ctx), op_I(ctx),
        op_r(ctx, rng.choice([-2, -1, 1, 2])),
        op_param(ctx, rng.choice(["a", "b", "w2"])),
        op_coeff(ctx, trig(ctx, "tan_shift", rng.randrange(ctx.k))),
        op_coeff(ctx, trig(ctx, "csc2_shift", rng.randrange(ctx.k))),
        op_coeff(ctx, trig(ctx, "tan_k")),
        op_coeff(ctx, ctx.imag_unit()),
        op_coeff(ctx, Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
        op_coeff(ctx, ZRat.z_power(ctx, rng.choice([-2, -1, 1, 3]))),
    ]
    total = None
    for _ in range(rng.randint(1, 3)):
        term = rng.choice(pool)
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(pool)
        total = term if total is None else total + term
    return total


def test_roundtrip_100_random_operators():
    rng = random.Random(20260815)
    done = 0
    while done < 100:
        ctx = ctx_new(rng.choice([1, 2, 3]))
        op = _random_op(rng, ctx)
        if op.is_zero():
            continue
        text = pretty(op)
        assert parse_op(text, ctx) == op, text
        done += 1
    assert done == 100
