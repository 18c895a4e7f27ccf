"""Scalar layer: cyclotomic polynomials, field axioms, numeric embedding."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklops.cyclofield import (CycloScalar, FieldCtx, ctx_new,
                                 cyclotomic_poly)
from dunklops.errors import FieldError, ScalarInversionError

ALL_K = range(1, 13)
ALL_N = sorted({math.lcm(4, 2 * k) for k in ALL_K})


def rand_scalar(ctx, rng, span=6):
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 4))
              for _ in range(ctx.deg)]
    return CycloScalar(ctx, tuple(coeffs))


def rho(ctx):
    """The rotation eigenvalue rho = e^{i pi / k}."""
    return ctx.root_power(ctx.rho_exp)


def sigma(x, j):
    """The Galois automorphism zeta -> zeta^j applied to x."""
    return CycloScalar(x.ctx, tuple(x.ctx.galois_row(j, x.coeffs)))


def test_cyclotomic_poly_small_table():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # frozen by hand: Phi_20(x) = x^8 - x^6 + x^4 - x^2 + 1
    assert cyclotomic_poly(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in ALL_N:
        ours = cyclotomic_poly(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(ours) == list(reversed(theirs)), n


def test_context_basics():
    for k in ALL_K:
        ctx = ctx_new(k)
        assert ctx.N == math.lcm(4, 2 * k)
        assert len(cyclotomic_poly(ctx.N)) == ctx.deg + 1
        assert ctx.imag_unit() ** 2 == -ctx.one()
        assert rho(ctx) ** (2 * k) == ctx.one()
        assert rho(ctx) ** k == -ctx.one()
        assert ctx.root_power(ctx.N) == ctx.one()


def test_bad_k_rejected(monkeypatch):
    monkeypatch.delenv("DUNKLOPS_MAX_K", raising=False)
    with pytest.raises(FieldError):
        FieldCtx(0)
    with pytest.raises(FieldError):
        FieldCtx(-2)
    with pytest.raises(FieldError):
        FieldCtx("3")
    with pytest.raises(FieldError):
        FieldCtx(13)            # above the default ceiling
    monkeypatch.setenv("DUNKLOPS_MAX_K", "13")
    assert FieldCtx(13).k == 13


def test_max_k_env_override(monkeypatch):
    monkeypatch.setenv("DUNKLOPS_MAX_K", "3")
    with pytest.raises(FieldError):
        FieldCtx(4)
    monkeypatch.setenv("DUNKLOPS_MAX_K", "half")
    with pytest.raises(FieldError):
        FieldCtx(2)


def test_ctx_new_is_keyed_by_k_alone(monkeypatch):
    from dunklops.builders import build_Dr
    from dunklops.opalgebra import op_dr
    monkeypatch.delenv("DUNKLOPS_MAX_K", raising=False)
    three, four = ctx_new(3), ctx_new(4)
    # the same context under any ceiling that admits k
    monkeypatch.setenv("DUNKLOPS_MAX_K", "20")
    assert ctx_new(3) is three
    op_dr(ctx_new(3)) + build_Dr(3)         # one context: no FieldError
    monkeypatch.setenv("DUNKLOPS_MAX_K", "3")
    assert ctx_new(3) is three
    # the ceiling is read on every call, not only when a context is built
    with pytest.raises(FieldError):
        ctx_new(4)
    monkeypatch.delenv("DUNKLOPS_MAX_K")
    assert ctx_new(4) is four
    with pytest.raises(FieldError):
        ctx_new(13)                         # above the default ceiling
    with pytest.raises(FieldError):
        ctx_new(0)


def test_field_axioms_every_k():
    """Ring/field axioms on random scalars for every context the suite uses,
    and the Galois automorphisms sigma_j, j a unit mod N, as ring maps."""
    rng = random.Random(20260815)
    for k in ALL_K:
        ctx = ctx_new(k)
        units = [j for j in range(1, ctx.N) if math.gcd(j, ctx.N) == 1]
        for j in units:
            assert sigma(ctx.root_power(1), j) == ctx.root_power(j)
        for it in range(25):
            x = rand_scalar(ctx, rng)
            y = rand_scalar(ctx, rng)
            z = rand_scalar(ctx, rng)
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == ctx.zero()
            assert x * ctx.one() == x
            if not x.is_zero():
                assert x * x.inv() == ctx.one()
            assert (x * y).conj() == x.conj() * y.conj()
            assert (x + y).conj() == x.conj() + y.conj()
            assert x.conj().conj() == x
            if it < 3:
                for j in units:
                    assert sigma(x * y, j) == sigma(x, j) * sigma(y, j)
                    assert sigma(x + y, j) == sigma(x, j) + sigma(y, j)
                norm = x
                for j in units[1:]:
                    norm = norm * sigma(x, j)
                assert norm.is_rational()


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1, 2, 3, 4, 5, 6]),
       data=st.data())
def test_field_axioms_hypothesis(k, data):
    ctx = ctx_new(k)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    triple = st.tuples(*[st.tuples(*[coeff] * ctx.deg)] * 3)
    xs, ys, zs = data.draw(triple)
    x = CycloScalar(ctx, tuple(Fraction(c) for c in xs))
    y = CycloScalar(ctx, tuple(Fraction(c) for c in ys))
    z = CycloScalar(ctx, tuple(Fraction(c) for c in zs))
    assert (x + y) * z == x * z + y * z
    assert (x - y) + y == x
    if not y.is_zero():
        assert (x / y) * y == x


def test_inversion_of_zero_raises():
    ctx = ctx_new(3)
    with pytest.raises(ScalarInversionError):
        ctx.zero().inv()


def test_embedding_of_roots():
    for k in ALL_K:
        ctx = ctx_new(k)
        for j in range(ctx.N):
            expect = cmath.exp(2j * math.pi * j / ctx.N)
            got = complex(ctx.root_power(j))
            assert abs(got - expect) < 1e-12
            assert abs(ctx.unit_embed(j) - expect) < 1e-12
    assert abs(complex(rho(ctx_new(4))) - cmath.exp(1j * math.pi / 4)) < 1e-12


def test_conj_matches_numeric_conjugation():
    """The field automorphism agrees with complex conjugation under the
    numeric embedding, to 1e-12, in every context."""
    rng = random.Random(99)
    for k in ALL_K:
        ctx = ctx_new(k)
        for _ in range(20):
            x = rand_scalar(ctx, rng, span=8)
            lhs = complex(x.conj())
            rhs = complex(x).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_embedding_is_ring_morphism():
    rng = random.Random(5)
    for k in (1, 3, 4, 6, 12):
        ctx = ctx_new(k)
        for _ in range(10):
            x = rand_scalar(ctx, rng)
            y = rand_scalar(ctx, rng)
            assert abs(complex(x * y) - complex(x) * complex(y)) < 1e-9
            assert abs(complex(x + y) - (complex(x) + complex(y))) < 1e-9


def test_mixed_context_arithmetic_rejected():
    a = ctx_new(2).one()
    b = ctx_new(3).one()
    with pytest.raises(FieldError):
        _ = a + b


def test_coordinates_are_int_or_exact_rational():
    """Integral coordinates are stored as ints, whatever the caller passed;
    inverses of integer scalars are exact rationals, never floats."""
    ctx = ctx_new(3)
    from_rat = CycloScalar(ctx,
                           (Fraction(2),) + (Fraction(0),) * (ctx.deg - 1))
    from_int = ctx.scalar(2)
    assert from_rat == from_int
    assert hash(from_rat) == hash(from_int)
    assert all(type(c) is int for c in from_rat.coeffs)
    assert all(type(c) is int for c in from_int.coeffs)
    zeta = ctx.root_power(1)
    # 1 + zeta is a unit of Z[zeta_12]; 2 + zeta has norm Phi_12(-2) = 13
    for x in (ctx.scalar(3), ctx.one() + zeta, ctx.scalar(2) + zeta):
        y = x.inv()
        assert all(type(c) in (int, Fraction) for c in y.coeffs), y.coeffs
        assert all(c.denominator != 1 for c in y.coeffs
                   if type(c) is Fraction), y.coeffs
        assert x * y == ctx.one()
        assert all(type(c) is int for c in (x * y).coeffs)
    assert ctx.scalar(3).inv().coeffs[0] == Fraction(1, 3)
    assert all(type(c) is int for c in (ctx.one() + zeta).inv().coeffs)
    assert all(c.denominator == 13 for c in (ctx.scalar(2) + zeta).inv().coeffs
               if c)
