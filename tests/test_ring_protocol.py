"""The ring protocol that CycloScalar, ZRat, Coefficient and OpExpr share
through ``RingElement``: one lifting chain, one set of derived operators."""

from fractions import Fraction

import pytest

from dunklops.coeffring import Coefficient, ZRat, trig
from dunklops.cyclofield import CycloScalar, FieldCtx, RingElement, ctx_new
from dunklops.errors import FieldError
from dunklops.opalgebra import OpExpr, op_coeff, op_dphi, op_dr, op_R

# two values of each type over one context
_PAIRS = {
    CycloScalar: lambda ctx: (ctx.root_power(1) + 2,
                              Fraction(3, 2) * ctx.imag_unit()),
    ZRat: lambda ctx: (trig(ctx, "tan_shift", 1),
                       ZRat.z_power(ctx, 2) + trig(ctx, "cot_k")),
    Coefficient: lambda ctx: (
        Coefficient.monomial(ctx, trig(ctx, "tan_k"), m=1, a=1),
        Coefficient.monomial(ctx, 3, m=-1, b=1) + trig(ctx, "sec2_shift")),
    OpExpr: lambda ctx: (op_dr(ctx) + op_coeff(ctx, trig(ctx, "tan_k")),
                         op_R(ctx) * op_dphi(ctx) + 2),
}

_DERIVED = ("_coerce", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__eq__", "__hash__", "__bool__")


@pytest.mark.parametrize("cls", list(_PAIRS), ids=lambda c: c.__name__)
def test_ring_protocol(cls):
    ctx, other_ctx = ctx_new(3), ctx_new(2)
    x, y = _PAIRS[cls](ctx)
    assert type(x) is cls and type(y) is cls
    # the derived identities
    assert x - y == x + (-y)
    assert 1 - x == -(x - 1)
    assert 2 * x == x + x
    assert x * 1 == x
    assert x != y
    # equal values built two ways hash equal
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert hash(2 * x) == hash(x + x)
    assert hash((x + y) - y) == hash(x)
    assert not bool(x - x) and bool(x)
    # values of two contexts share a set, also where the contexts share N
    # (k = 1 and k = 2 both have N = 4) or k; equal rational constants of two
    # contexts hash like the number, and == between them raises
    ctxs = (ctx_new(1), ctx_new(2), FieldCtx(2))
    assert len({cls._lift(c, c.imag_unit()) for c in ctxs}) == 3
    with pytest.raises(FieldError):
        {cls._lift(c, 1) for c in ctxs}
    # a value of another context is refused by every operator
    z, _ = _PAIRS[cls](other_ctx)
    for combine in (lambda u, v: u + v, lambda u, v: u - v,
                    lambda u, v: u * v, lambda u, v: u == v):
        with pytest.raises(FieldError, match=cls.__name__):
            combine(x, z)
    # a foreign type is refused
    for combine in (lambda u: u + 0.5, lambda u: 0.5 - u,
                    lambda u: u * 0.5, lambda u: u + "1"):
        with pytest.raises(TypeError):
            combine(x)
    assert x != 0.5
    # every derived operator is the base's single definition
    for name in _DERIVED:
        if cls is CycloScalar and name == "__sub__":
            continue        # its own: x - 1 counts as one scalar add
        assert getattr(cls, name) is getattr(RingElement, name), name
    assert cls._lift.__func__ is RingElement._lift.__func__


@pytest.mark.parametrize("cls", list(_PAIRS), ids=lambda c: c.__name__)
def test_a_value_equal_to_a_number_hashes_like_it(cls):
    """x == y must give hash(x) == hash(y): a constant of any level hashes
    like the number, or the scalar, that it equals."""
    ctx = ctx_new(3)
    for number in (0, 1, -2, Fraction(3, 2)):
        x = cls._lift(ctx, number)
        assert x == number and hash(x) == hash(number)
    assert {1: "a"}.get(cls._lift(ctx, 1)) == "a"
    i = ctx.imag_unit()
    assert cls._lift(ctx, i) == i and hash(cls._lift(ctx, i)) == hash(i)


@pytest.mark.parametrize("construct", [
    lambda ctx, v: ctx.scalar(v),
    lambda ctx, v: ZRat.const(ctx, v),
    lambda ctx, v: Coefficient.monomial(ctx, v),
    lambda ctx, v: op_coeff(ctx, v),
], ids=["scalar", "const", "monomial", "op_coeff"])
@pytest.mark.parametrize("value", [0.1, "1", None, 1j])
def test_constructors_refuse_foreign_values(construct, value):
    """A float is not silently made a rational: op_coeff(ctx, 0.1) used to
    store 3602879701896397/36028797018963968 while op + 0.1 raised."""
    with pytest.raises(TypeError):
        construct(ctx_new(2), value)


def test_monomial_refuses_a_zrat_of_another_context():
    with pytest.raises(FieldError, match="ZRat"):
        Coefficient.monomial(ctx_new(2), trig(ctx_new(3), "tan_k"))


def test_op_coeff_refuses_a_coefficient_of_another_context():
    with pytest.raises(FieldError, match="Coefficient"):
        op_coeff(ctx_new(2), Coefficient.one(ctx_new(3)))
