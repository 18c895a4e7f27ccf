"""Coefficient ring: rational functions of z = e^{i phi} and full coefficients."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dunklops import coeffring
from dunklops.coeffring import (ATOM_Z, TRIG_KINDS, Coefficient, ZRat,
                                _atom_degree, _atom_product, _divmod_atom,
                                _monic_atoms, _zeta_times, _zp_add, _zp_deriv,
                                _zp_mul, _zp_neg, _zp_shift, trig)
from dunklops.cyclofield import CycloScalar, binary_power, ctx_new
from dunklops.errors import CoeffError, FieldError, ScalarInversionError
from ring_helpers import (coefficient_degrees, zrat_conj_reference,
                          zrat_eval, zrat_from_poly)

# real-valued reference implementations of each constructor, by kind
_REFS = {
    "tan_shift": lambda k, j, p: math.tan(p + j * math.pi / k),
    "cot_shift": lambda k, j, p: 1 / math.tan(p + j * math.pi / k),
    "sec2_shift": lambda k, j, p: 1 / math.cos(p + j * math.pi / k) ** 2,
    "csc2_shift": lambda k, j, p: 1 / math.sin(p + j * math.pi / k) ** 2,
    "sec_k": lambda k, j, p: 1 / math.cos(k * p),
    "tan_k": lambda k, j, p: math.tan(k * p),
    "cot_k": lambda k, j, p: 1 / math.tan(k * p),
    "sec2_k": lambda k, j, p: 1 / math.cos(k * p) ** 2,
    "csc2_k": lambda k, j, p: 1 / math.sin(k * p) ** 2,
    "half_sum_inv2": lambda k, j, p: 1 / (1 + math.sin(k * p)),
    "half_diff_inv2": lambda k, j, p: 1 / (1 - math.sin(k * p)),
}

_ANGLES = [0.17, 0.41, 0.93, 1.31, 2.03]


def zval(phi):
    return cmath.exp(1j * phi)


def test_trig_constructors_match_float_trig():
    assert set(TRIG_KINDS) == set(_REFS)
    for k in range(1, 13):
        ctx = ctx_new(k)
        for kind in TRIG_KINDS:
            if kind in ("half_sum_inv2", "half_diff_inv2") and k % 2:
                continue
            for j in range(2 * k if kind.endswith("_shift") else 1):
                f = trig(ctx, kind, j)
                for phi in _ANGLES:
                    expect = _REFS[kind](k, j, phi)
                    got = zrat_eval(f, zval(phi))
                    assert abs(got.imag) < 1e-9 * max(1, abs(expect))
                    assert abs(got.real - expect) < 1e-9 * max(1, abs(expect))


def test_cot_k_matches_float():
    for k in (1, 2, 3, 4):
        f = trig(ctx_new(k), "cot_k")
        for phi in _ANGLES:
            expect = 1 / math.tan(k * phi)
            got = zrat_eval(f, zval(phi))
            assert abs(got - expect) < 1e-9 * max(1, abs(expect))


def test_cot_k_is_the_inverse_of_tan_k():
    """cot(k phi), built as i (z^{2k}+1)/(z^{2k}-1), has the canonical data
    of tan(k phi) inverted, down to the coordinate types."""
    for k in range(1, 13):
        ctx = ctx_new(k)
        got, want = trig(ctx, "cot_k"), trig(ctx, "tan_k").inv()
        assert got == want and _exact(got.num) == _exact(want.num)


def test_half_angle_kinds_need_even_k():
    with pytest.raises(CoeffError):
        trig(ctx_new(3), "half_sum_inv2")
    assert trig(ctx_new(2), "half_sum_inv2") is trig(ctx_new(2), "half_sum_inv2")


def test_unknown_trig_kind():
    with pytest.raises(CoeffError):
        trig(ctx_new(2), "sine")


def test_derivative_identities():
    for k in (1, 2, 3, 5):
        ctx = ctx_new(k)
        for j in range(k):
            assert trig(ctx, "tan_shift", j).d_phi() == trig(ctx, "sec2_shift", j)
            assert trig(ctx, "cot_shift", j).d_phi() == -trig(ctx, "csc2_shift", j)
        assert trig(ctx, "tan_k").d_phi() == ctx.scalar(k) * trig(ctx, "sec2_k")
        assert trig(ctx, "cot_k").d_phi() == -ctx.scalar(k) * trig(ctx, "csc2_k")


def test_derivative_matches_central_difference():
    ctx = ctx_new(3)
    f = trig(ctx, "tan_shift", 1) * trig(ctx, "cot_shift", 2) \
        + ZRat.z_power(ctx, 2)
    df = f.d_phi()
    h = 1e-6
    for phi in _ANGLES:
        numeric = (zrat_eval(f, zval(phi + h))
                   - zrat_eval(f, zval(phi - h))) / (2 * h)
        assert abs(zrat_eval(df, zval(phi)) - numeric) < 1e-5


def test_pythagorean_relations():
    for k in (1, 2, 3, 4):
        ctx = ctx_new(k)
        one = ZRat.const(ctx, 1)
        for j in range(k):
            t = trig(ctx, "tan_shift", j)
            c = trig(ctx, "cot_shift", j)
            assert t * c == one
            assert one + t * t == trig(ctx, "sec2_shift", j)
            assert one + c * c == trig(ctx, "csc2_shift", j)


def test_rotation_cycles_the_shifts():
    for k in (2, 3, 5):
        ctx = ctx_new(k)
        for kind in ("tan_shift", "cot_shift", "sec2_shift", "csc2_shift"):
            for j in range(k):
                f = trig(ctx, kind, j)
                assert f.rotate_n(1) == trig(ctx, kind, (j + 1) % k)
        # k*phi trig is invariant under phi -> phi + pi/k up to tan period
        assert trig(ctx, "tan_k").rotate_n(1) == trig(ctx, "tan_k")
        assert trig(ctx, "sec2_k").rotate_n(1) == trig(ctx, "sec2_k")


def test_reflection_parity():
    for k in (1, 2, 4, 5):
        ctx = ctx_new(k)
        assert trig(ctx, "tan_shift", 0).reflect() == -trig(ctx, "tan_shift", 0)
        assert trig(ctx, "cot_shift", 0).reflect() == -trig(ctx, "cot_shift", 0)
        assert trig(ctx, "sec2_shift", 0).reflect() == trig(ctx, "sec2_shift", 0)
        assert trig(ctx, "tan_k").reflect() == -trig(ctx, "tan_k")
        assert trig(ctx, "sec2_k").reflect() == trig(ctx, "sec2_k")


def test_conjugation_fixes_real_functions():
    ctx = ctx_new(3)
    for kind in ("tan_shift", "cot_shift", "sec2_shift", "csc2_shift"):
        for j in range(3):
            f = trig(ctx, kind, j)
            assert f.conj() == f
    assert trig(ctx, "tan_k").conj() == trig(ctx, "tan_k")


@pytest.mark.parametrize("k", range(1, 9))
def test_conj_is_the_galois_conjugate_reflected(k):
    # every trig kind at every distinct shift, their sums and products, and
    # non-real multiples
    ctx = ctx_new(k)
    rng = random.Random(2900 + k)
    values = [trig(ctx, kind, j) for kind in TRIG_KINDS
              if not (kind.startswith("half_") and k % 2)
              for j in (range(k) if kind.endswith("_shift") else [0])]
    pairs = [(x, rng.choice(values)) for x in values]
    pool = (values + [x + y for x, y in pairs] + [x * y for x, y in pairs]
            + [x * ctx.root_power(1) + ZRat.z_power(ctx, -1) for x in values]
            + [ZRat(ctx, (), ()), ZRat.const(ctx, ctx.root_power(1))])
    for f in pool:
        got, want = f.conj(), zrat_conj_reference(f)
        assert _exact(got.num) == _exact(want.num), f
        assert got.den == want.den, f


def _group_words(ctx, rng, f):
    """Random walk over the action generators, checking composition laws."""
    two_k = 2 * ctx.k
    g = f
    net_rot, net_refl = 0, 0
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            n = rng.randint(-2, 2)
            g = g.rotate_n(n)
            net_rot += n
        else:
            # h.rotate_n(n).reflect() == h.reflect().rotate_n(-n)
            g = g.reflect()
            net_refl += 1
            net_rot = -net_rot
    expect = f.reflect() if net_refl % 2 else f
    expect = expect.rotate_n(net_rot % two_k)
    return g, expect


def test_dihedral_action_composition():
    rng = random.Random(4)
    for k in (1, 2, 3, 4):
        ctx = ctx_new(k)
        pool = [trig(ctx, "tan_shift", 0), trig(ctx, "csc2_shift", 0),
                ZRat.z_power(ctx, 3),
                trig(ctx, "sec_k") + ZRat.const(ctx, Fraction(1, 2))]
        for f in pool:
            for _ in range(10):
                g, expect = _group_words(ctx, rng, f)
                assert g == expect


def test_action_respects_products_and_dphi():
    ctx = ctx_new(3)
    f = trig(ctx, "tan_shift", 0)
    g = trig(ctx, "csc2_shift", 2) + ZRat.z_power(ctx, -1)
    for act in (lambda x: x.rotate_n(1), lambda x: x.reflect(),
                lambda x: x.conj()):
        assert act(f * g) == act(f) * act(g)
        assert act(f + g) == act(f) + act(g)
    assert (f * g).d_phi() == f.d_phi() * g + f * g.d_phi()
    assert f.rotate_n(1).d_phi() == f.d_phi().rotate_n(1)
    assert f.reflect().d_phi() == -(f.d_phi().reflect())


def test_eval_is_a_homomorphism():
    """Canonical forms are consistent: evaluation commutes with arithmetic."""
    rng = random.Random(11)
    ctx = ctx_new(4)
    pool = [trig(ctx, "tan_k"), trig(ctx, "csc2_shift", 1),
            ZRat.z_power(ctx, 2) - ZRat.const(ctx, 3),
            trig(ctx, "half_sum_inv2")]
    for _ in range(40):
        x = rng.choice(pool)
        y = rng.choice(pool)
        phi = rng.uniform(0.1, 0.35)
        z0 = zval(phi)
        for combined, parts in (
                (x + y, zrat_eval(x, z0) + zrat_eval(y, z0)),
                (x * y, zrat_eval(x, z0) * zrat_eval(y, z0)),
                (x - y, zrat_eval(x, z0) - zrat_eval(y, z0))):
            got = zrat_eval(combined, z0)
            assert abs(got - parts) < 1e-8 * max(1, abs(parts))


def test_inverse_and_non_factorable_denominator():
    ctx = ctx_new(2)
    t = trig(ctx, "tan_shift", 1)
    assert t * t.inv() == ZRat.const(ctx, 1)
    assert ZRat.z_power(ctx, -3).inv() == ZRat.z_power(ctx, 3)
    lumpy = zrat_from_poly(ctx, [1, 1, 1])      # roots are cube roots of 1
    with pytest.raises(CoeffError):
        lumpy.inv()


def _atom_zrat(ctx, atom):
    if atom[0] == "lin":
        return zrat_from_poly(ctx, [-ctx.root_power(atom[1]), ctx.one()])
    return zrat_from_poly(ctx, [-ctx.root_power(atom[1]), ctx.zero(),
                                ctx.one()])


def test_factor_unit_binomial_roundtrip():
    """``_monic_atoms`` splits z^n - zeta^t into atoms that multiply back."""
    ctx = ctx_new(3)          # N = 12
    for n, t in [(2, 0), (2, 6), (3, 6), (4, 0), (6, 6), (2, 3), (1, 5)]:
        expect = ZRat.z_power(ctx, n) - ZRat.const(ctx, ctx.root_power(t))
        atoms = _monic_atoms(ctx, list(expect.num))
        prod = ZRat.const(ctx, 1)
        for atom, mult in atoms.items():
            prod = prod * _atom_zrat(ctx, atom) ** mult
        assert prod == expect
    with pytest.raises(CoeffError):
        # z^4 + z^3 + z^2 + z + 1 has no root in Q(zeta_12)
        _monic_atoms(ctx, list((ZRat.z_power(ctx, 5) - 1).num))


@pytest.mark.parametrize("k", range(1, 13))
def test_trig_reads_the_atoms_the_full_search_finds(k):
    """Each table row built by trial division of den(z^w) by every atom and
    a full reduction, then shifted: the same rows, coordinate types
    included, and the same atoms as ``trig``'s."""
    ctx = ctx_new(k)
    for kind in TRIG_KINDS:
        if kind.startswith("half_") and k % 2:
            continue
        angle, num, den = coeffring._TRIG_TABLE[kind]
        w = 1 if angle == "phi" else k
        at_0 = ZRat._make(ctx, coeffring._w_rows(ctx, num, w),
                          _monic_atoms(ctx, coeffring._w_rows(ctx, den, w)))
        for j in range(2 * k if kind.endswith("_shift") else 1):
            got, want = trig(ctx, kind, j), at_0.rotate_n(j)
            assert _exact(got.num) == _exact(want.num), (kind, j)
            assert got.den == want.den, (kind, j)


def test_inv_splits_the_numerator_into_unit_and_atoms():
    ctx = ctx_new(2)          # N = 4
    x = zrat_from_poly(ctx, [2, 0, 2])        # 2 z^2 + 2 = 2 (z-i)(z+i)
    y = x.inv()
    assert y.den == ((("lin", 1), 1), (("lin", 3), 1))   # (z-zeta)(z-zeta^3)
    assert y.num == (ctx.scalar(Fraction(1, 2)).coeffs,)
    assert x * y == ZRat.const(ctx, 1)


def test_pow_is_the_repeated_product(monkeypatch):
    ctx = ctx_new(3)
    x = trig(ctx, "tan_shift", 1)
    for n in range(-3, 10):
        expect = ZRat.const(ctx, 1)
        for _ in range(abs(n)):
            expect = expect * (x if n >= 0 else x.inv())
        assert x ** n == expect, n
    # square-and-multiply: three squarings for x ** 8, no product with the
    # identity and no squaring after the last bit
    products = []
    mul = ZRat.__mul__
    monkeypatch.setattr(ZRat, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    x ** 8
    assert len(products) == 3


def test_product_skips_the_atoms_both_denominators_share(monkeypatch):
    tries = []
    divmod_atom = coeffring._divmod_atom
    monkeypatch.setattr(coeffring, "_divmod_atom",
                        lambda *args: tries.append(1) or divmod_atom(*args))

    def count(fn, *args):
        tries.clear()
        return fn(*args), len(tries)

    def cancel_everything(ctx, x, y):
        """Each denominator's atoms tried on the other numerator, all."""
        coeffring._cancel(ctx, x.num, y.den)
        coeffring._cancel(ctx, y.num, x.den)

    for k in (2, 3, 4):
        ctx = ctx_new(k)
        for x, y in ((trig(ctx, "tan_shift", 0), trig(ctx, "sec2_shift", 0)),
                     (trig(ctx, "sec_k"), trig(ctx, "tan_k")),
                     (trig(ctx, "csc2_shift", 1),
                      trig(ctx, "cot_shift", 1) * ZRat.z_power(ctx, -1))):
            assert set(dict(x.den)) & set(dict(y.den))
            got, made = count(ZRat.__mul__, x, y)
            _, everything = count(cancel_everything, ctx, x, y)
            assert made < everything
            den = dict(x.den)
            for atom, m in y.den:
                den[atom] = den.get(atom, 0) + m
            assert got == ZRat._make(ctx, _zp_mul(ctx, x.num, y.num), den)


def _constants(ctx):
    """The unit, a rational, i, zeta^j, 1 + i and zero, as ZRat constants."""
    ii = ctx.imag_unit()
    values = [1, Fraction(-7, 3), ii, ctx.root_power(1),
              ctx.root_power(ctx.N - 1), ctx.one() + ii, 0]
    return [ZRat.const(ctx, v) for v in values]


def _general_product(x, y):
    """x * y the long way: one convolution over the joint denominator,
    reduced by trial division by each of its atoms."""
    den = dict(x.den)
    for atom, m in y.den:
        den[atom] = den.get(atom, 0) + m
    return ZRat._make(x.ctx, _zp_mul(x.ctx, x.num, y.num), den)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_constants_take_the_short_paths(k):
    ctx = ctx_new(k)
    one = ZRat.const(ctx, 1)
    others = [trig(ctx, "tan_shift", 0), trig(ctx, "csc2_shift", k - 1),
              trig(ctx, "sec_k"), ZRat.z_power(ctx, -2),
              zrat_from_poly(ctx, [Fraction(1, 3), 0, ctx.imag_unit()])]
    consts = _constants(ctx)
    for x in others + consts:
        assert x * one is x and one * x == x
    for x in others:
        assert one * x is x
    for c in consts:
        assert c.is_const()
        assert c.reflect() is c
        for n in range(2 * k):
            assert c.rotate_n(n) is c
        assert c.d_phi() == ZRat.const(ctx, 0)
        assert c.conj() == ZRat.const(ctx, CycloScalar(ctx, c.num[0]).conj()
                                      if c.num else 0)
    third = ZRat.const(ctx, Fraction(-7, 3))
    assert third.conj() == third
    for x in others:
        assert not x.is_const()
        for c in consts:
            for got in (x * c, c * x):
                want = _general_product(x, c)
                assert got == want and _exact(got.num) == _exact(want.num)
    for c in consts:
        for d in consts:
            assert _exact((c * d).num) == _exact(_general_product(c, d).num)
    # a Coefficient all of whose terms are constant is fixed as it stands
    coeff = Coefficient(ctx, {(0, 1, 0, 0): consts[2], (-2, 0, 0, 1): one})
    assert coeff.reflect() is coeff and coeff.rotate_n(1) is coeff
    moving = Coefficient(ctx, {(0, 1, 0, 0): consts[2], (0, 0, 0, 0): others[0]})
    assert moving.reflect().terms == {(0, 1, 0, 0): consts[2],
                                      (0, 0, 0, 0): others[0].reflect()}


@settings(max_examples=80, deadline=None)
@given(k=st.sampled_from([1, 2, 3]),
       coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
       shift=st.integers(-3, 3),
       jj=st.integers(0, 2))
def test_zrat_ring_laws_hypothesis(k, coeffs, shift, jj):
    ctx = ctx_new(k)
    x = zrat_from_poly(ctx, coeffs) * ZRat.z_power(ctx, shift)
    y = trig(ctx, "tan_shift", jj % k)
    z = trig(ctx, "csc2_shift", (jj + 1) % k)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == ZRat.const(ctx, 0)
    assert (x * y).rotate_n(1) == x.rotate_n(1) * y.rotate_n(1)
    assert (x + y).reflect() == x.reflect() + y.reflect()


def test_coefficient_ring_and_actions():
    ctx = ctx_new(2)
    c1 = Coefficient.monomial(ctx, trig(ctx, "tan_k"), m=2, a=1)
    c2 = Coefficient.monomial(ctx, m=-1, b=1, w2=1)
    c3 = Coefficient.one(ctx)
    s = (c1 + c2) * c3 - c2 * Coefficient.monomial(ctx, m=0)
    assert s == c1
    prod = c1 * c2
    ((m, a, b, w2), zr), = prod.items()
    assert (m, a, b, w2) == (1, 1, 1, 1)
    assert zr == trig(ctx, "tan_k")
    # derivation in r: d_r(r^2 ...) = 2 r^1 ...
    dr = c1.d_r()
    ((m2, _, _, _), zr2), = dr.items()
    assert m2 == 1 and zr2 == ctx.scalar(2) * trig(ctx, "tan_k")
    assert Coefficient.one(ctx).d_r().is_zero()
    # dihedral action is termwise
    assert (c1 + c2).rotate_n(1) == c1.rotate_n(1) + c2.rotate_n(1)
    assert (c1 * c2).reflect() == c1.reflect() * c2.reflect()
    assert c2.conj() == c2                     # real parameters, no z content
    deg = coefficient_degrees(c1 * c2)
    assert deg == {"m_min": 0, "m_max": 1, "a": 1, "b": 1, "w2": 1}
    assert coefficient_degrees(c2)["m_min"] == -1


def test_mixed_contexts_rejected():
    with pytest.raises(FieldError):
        _ = trig(ctx_new(2), "tan_k") + trig(ctx_new(3), "tan_k")


# ---------------------------------------------------------------------------
# the numerator kernels against one CycloScalar operation per step
# ---------------------------------------------------------------------------


def _ref_trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def _ref_mul(ctx, a, b):
    """Schoolbook product: one scalar multiply per pair of coefficients."""
    if not a or not b:
        return []
    out = [ctx.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
    return _ref_trim(out)


def _ref_atom_poly(ctx, atom):
    if atom == ATOM_Z:
        return [ctx.zero(), ctx.one()]
    if atom[0] == "lin":
        return [-ctx.root_power(atom[1]), ctx.one()]
    return [-ctx.root_power(atom[1]), ctx.zero(), ctx.one()]


def _ref_divmod_atom(ctx, poly, atom):
    """Synthetic division by the atom over CycloScalar; None if inexact."""
    if not poly:
        return []
    if atom == ATOM_Z:
        return poly[1:] if poly[0].is_zero() else None
    c = ctx.root_power(atom[1])
    n = len(poly) - 1
    if atom[0] == "lin":
        if n < 1:
            return None
        quo = [None] * n
        acc = poly[n]
        for j in range(n - 1, -1, -1):
            quo[j] = acc
            acc = poly[j] + c * acc
        return quo if acc.is_zero() else None
    if n < 2:
        return None
    quo = [ctx.zero()] * (n - 1)
    rem = list(poly)
    for j in range(n - 2, -1, -1):
        q = rem[j + 2]
        quo[j] = q
        if not q.is_zero():
            rem[j] = rem[j] + c * q
    return quo if rem[0].is_zero() and rem[1].is_zero() else None


def _rows(poly):
    """The coordinate rows the kernels take, from a list of scalars."""
    return [c.coeffs for c in poly]


def _exact(poly):
    """Coordinates with their types: int and Fraction must agree as well.
    Takes rows or scalars."""
    if poly is None:
        return None
    return [tuple((type(v), v) for v in getattr(c, "coeffs", c))
            for c in poly]


_COORD = st.one_of(
    st.just(0), st.just(0), st.integers(-40, 40),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


def _draw_poly(data, ctx, min_size=0, max_size=6):
    coeff = st.one_of(
        st.just((0,) * ctx.deg),
        st.lists(_COORD, min_size=ctx.deg, max_size=ctx.deg).map(tuple))
    rows = data.draw(st.lists(coeff, min_size=min_size, max_size=max_size))
    return [CycloScalar(ctx, row) for row in rows]


def _draw_const(data, ctx):
    """A constant scalar: 0, 1, a rational, i, a power of zeta, 1 + i, or
    any one-row polynomial."""
    kind = data.draw(st.sampled_from(
        ["0", "1", "rational", "i", "zeta^j", "1+i", "any"]))
    if kind == "rational":
        return ctx.scalar(data.draw(_COORD))
    if kind == "zeta^j":
        return ctx.root_power(data.draw(st.integers(0, ctx.N - 1)))
    if kind == "any":
        return _draw_poly(data, ctx, min_size=1, max_size=1)[0]
    return {"0": ctx.zero(), "1": ctx.one(), "i": ctx.imag_unit(),
            "1+i": ctx.one() + ctx.imag_unit()}[kind]


def _draw_atom(data, ctx):
    kind = data.draw(st.sampled_from(["z", "lin", "quad"]))
    if kind == "z":
        return ATOM_Z
    if kind == "lin":
        return ("lin", data.draw(st.integers(0, ctx.N - 1)))
    return ("quad", data.draw(st.integers(0, ctx.N // 2 - 1)) * 2 + 1)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 8), data=st.data())
def test_kernels_match_the_scalar_reference(k, data):
    ctx = ctx_new(k)
    a = _draw_poly(data, ctx)
    b = _draw_poly(data, ctx)
    assert (_exact(_zp_mul(ctx, _rows(a), _rows(b)))
            == _exact(_ref_mul(ctx, a, b)))

    # a product with a constant, in both orders, takes the unit path
    c = _draw_const(data, ctx)
    f = ZRat(ctx, tuple(_rows(_ref_trim(list(a)))), ())
    expect = _exact(_ref_mul(ctx, _ref_trim(list(a)), [c]))
    assert _exact((f * ZRat.const(ctx, c)).num) == expect
    assert _exact((ZRat.const(ctx, c) * f).num) == expect

    m = data.draw(st.integers(-2 * ctx.N, 2 * ctx.N))
    assert (_exact([_zeta_times(ctx, m, c.coeffs) for c in a])
            == _exact([c * ctx.root_power(m) for c in a]))

    atom = _draw_atom(data, ctx)
    poly = _ref_trim(list(a))
    assert (_exact(_divmod_atom(ctx, _rows(poly), atom))
            == _exact(_ref_divmod_atom(ctx, poly, atom)))

    q = _ref_trim(_draw_poly(data, ctx, min_size=1))
    if q:
        exact = _ref_mul(ctx, _ref_atom_poly(ctx, atom), q)
        assert _exact(_divmod_atom(ctx, _rows(exact), atom)) == _exact(q)
        assert _exact(_ref_divmod_atom(ctx, exact, atom)) == _exact(q)
        # adding 1 leaves a nonzero remainder
        inexact = [exact[0] + 1] + exact[1:]
        assert _divmod_atom(ctx, _rows(inexact), atom) is None
        assert _ref_divmod_atom(ctx, inexact, atom) is None

    # a product of atoms, repeats included, in any order
    atoms = [_draw_atom(data, ctx)
             for _ in range(data.draw(st.integers(0, 12)))]
    prod = [ctx.one()]
    for atom in atoms:
        prod = _ref_mul(ctx, prod, _ref_atom_poly(ctx, atom))
    assert _exact(_atom_product(ctx, atoms)) == _exact(prod)


# ---------------------------------------------------------------------------
# the canonical form survives every operation
# ---------------------------------------------------------------------------


def _leaves(ctx, data):
    """Trig kinds at every shift, negative powers of z, constants and
    polynomials, two of them with rational coordinates."""
    out = [zrat_from_poly(ctx, [Fraction(1, 3), 0, Fraction(4, 2)]),
           zrat_from_poly(ctx, [0, Fraction(-2, 3) * ctx.root_power(1)])]
    for kind in TRIG_KINDS:
        if kind.startswith("half_") and ctx.k % 2:
            continue
        shifts = range(2 * ctx.k) if kind.endswith("_shift") else [0]
        out += [trig(ctx, kind, j) for j in shifts]
    out += [ZRat.z_power(ctx, -m) for m in (1, 2, 3)]
    out += [ZRat.const(ctx, _draw_const(data, ctx)) for _ in range(3)]
    terms = st.tuples(st.integers(-3, 3), st.integers(0, ctx.N - 1))
    for _ in range(3):
        poly = data.draw(st.lists(terms, min_size=1, max_size=4))
        out.append(zrat_from_poly(ctx, [c * ctx.root_power(t)
                                        for c, t in poly]))
    return out


def _assert_canonical(f):
    """Each numerator row has deg coordinates, an int or a proper fraction
    each, and the last row is nonzero; no denominator atom divides the
    numerator, and trial division by every atom of the denominator gives f
    back."""
    for row in f.num:
        assert len(row) == f.ctx.deg, (f, row)
        assert all(type(v) is int
                   or (type(v) is Fraction and v.denominator != 1)
                   for v in row), (f, row)
    assert not f.num or any(f.num[-1]), f
    for atom, _ in f.den:
        assert _divmod_atom(f.ctx, list(f.num), atom) is None, (f, atom)
    assert f == ZRat._make(f.ctx, list(f.num), dict(f.den)), f


_BINARY = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
           "*": lambda x, y: x * y,
           # a sum and the difference back: y's atoms cancel again
           "+-": lambda x, y: (x + y) - y}
_UNARY = {"d_phi": ZRat.d_phi, "reflect": ZRat.reflect, "conj": ZRat.conj,
          "inv": ZRat.inv}


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5), data=st.data())
def test_operations_keep_the_canonical_form(k, data):
    ctx = ctx_new(k)
    pool = _leaves(ctx, data)
    for f in pool:
        _assert_canonical(f)
    # a rational leaf y added and taken away leaves integral Fractions
    x = data.draw(st.sampled_from(pool))
    for y in pool[:2]:
        _assert_canonical((x + y) - y)
    for _ in range(6):
        op = data.draw(st.sampled_from(
            sorted(_BINARY) + sorted(_UNARY) + ["rotate_n"]))
        x = data.draw(st.sampled_from(pool))
        if op in _BINARY:
            y = data.draw(st.sampled_from(pool))
            out = _BINARY[op](x, y)
            if op == "+-":
                _assert_canonical(x + y)
        elif op == "rotate_n":
            out = x.rotate_n(data.draw(st.integers(1, 2 * k - 1)))
        else:
            try:
                out = _UNARY[op](x)
            except (CoeffError, ScalarInversionError):
                continue          # zero, or a numerator without atoms
        _assert_canonical(out)
        assert op != "+-" or out == x
        pool.append(out)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), data=st.data())
def test_every_product_is_the_general_product(k, data):
    """x * y, whatever kinds the factors are, is the one convolution over the
    joint denominator reduced by all its atoms, down to the coordinate
    types, and y * x is the same."""
    ctx = ctx_new(k)
    pool = (_leaves(ctx, data) + _constants(ctx) + [trig(ctx, "cot_k")]
            + [ZRat.z_power(ctx, m) for m in (1, 2, 3)])
    for _ in range(4):
        x, y = (data.draw(st.sampled_from(pool)) for _ in range(2))
        got, want = x * y, _general_product(x, y)
        assert got == want and _exact(got.num) == _exact(want.num)
        assert got == y * x


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 6), data=st.data())
def test_a_power_is_the_square_and_multiply_product(k, data):
    """x ** n, formed as num^n over den^n, is the square-and-multiply product
    of x (or of its inverse) down to the coordinate types, also for bases
    with repeated atoms and for the zero power."""
    ctx = ctx_new(k)
    pool = (_leaves(ctx, data) + _constants(ctx) + [trig(ctx, "cot_k")]
            + [_draw_zrat(data, ctx, [1, 2])])
    x = data.draw(st.sampled_from(pool))
    n = data.draw(st.integers(-6, 6))
    try:
        base = x if n >= 0 else x.inv()
    except (CoeffError, ScalarInversionError) as exc:
        with pytest.raises(type(exc)):
            x ** n
        return
    got = x ** n
    want = binary_power(base, abs(n), ZRat.const(ctx, 1))
    assert got == want and _exact(got.num) == _exact(want.num)
    _assert_canonical(got)


def test_a_power_makes_no_trial_division_beyond_inv(monkeypatch):
    tries = []
    divmod_atom = coeffring._divmod_atom
    monkeypatch.setattr(coeffring, "_divmod_atom",
                        lambda *args: tries.append(1) or divmod_atom(*args))

    def count(fn):
        tries.clear()
        fn()
        return len(tries)

    for k, kind, powers in ((3, "sec2_shift", (2, 8, 128, -2, -128)),
                            (2, "tan_shift", (-256, 3, 256))):
        x = trig(ctx_new(k), kind, 1)
        for n in powers:
            want = count(x.inv) if n < 0 else 0
            assert count(lambda: x ** n) == want, (kind, n)


# ---------------------------------------------------------------------------
# a sum whose common atom cancels, and d_phi against its per-atom form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 5])
def test_a_sum_cancels_an_atom_both_denominators_hold_equally(k):
    # 1/a^m + (a^m - 1)/a^m = 1, for a = z and a = z - zeta^s: the sum
    # must try the atom that both denominators hold to the same power
    ctx = ctx_new(k)
    one = ZRat.const(ctx, 1)
    for atom in (ZRat.z_power(ctx, 1), _atom_zrat(ctx, ("lin", 1)),
                 _atom_zrat(ctx, ("lin", ctx.N - 1))):
        for m in (1, 2):
            inv = (atom ** m).inv()
            assert inv + ((atom ** m - 1) * inv) == one, (atom, m)
            assert ((atom ** m - 1) * inv) + inv == one, (atom, m)


def _ref_d_phi(f):
    """d_phi with B = sum_a e_a a' A/a, one product of the other atoms per
    atom of the denominator."""
    ctx = f.ctx
    if f.is_const():
        return ZRat(ctx, (), ())
    num = _zp_deriv(list(f.num))
    if f.den:
        distinct = [a for a, _ in f.den]
        A = _atom_product(ctx, distinct)
        B = []
        for a, mult in f.den:
            d = _atom_degree(a)
            other = _atom_product(ctx, [b for b in distinct if b != a])
            B = _zp_add(B, [tuple(d * mult * v for v in row)
                            for row in _zp_shift(ctx, other, d - 1)])
        num = _zp_add(_zp_mul(ctx, num, A),
                      _zp_neg(_zp_mul(ctx, list(f.num), B)))
    num = _zp_shift(ctx, [_zeta_times(ctx, ctx.N // 4, row) for row in num], 1)
    den = {a: m + 1 for a, m in f.den}
    return ZRat._make(ctx, num, den, [ATOM_Z] if ATOM_Z in den else [])


def _draw_zrat(data, ctx, levels):
    """A canonical ZRat over distinct atoms of every kind, each atom at one
    of the multiplicities in ``levels``, every level used."""
    atoms = {}
    for level in levels:
        atoms[_draw_atom(data, ctx)] = level
    for _ in range(data.draw(st.integers(0, 4))):
        atoms[_draw_atom(data, ctx)] = data.draw(st.sampled_from(levels))
    num = _rows(_draw_poly(data, ctx, max_size=4)) + [ctx.one().coeffs]
    return ZRat._make(ctx, num, atoms)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 8), data=st.data())
def test_d_phi_matches_the_per_atom_reference(k, data):
    ctx = ctx_new(k)
    levels = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3,
                                unique=True))
    f = _draw_zrat(data, ctx, levels)
    got, want = f.d_phi(), _ref_d_phi(f)
    assert got.den == want.den
    assert _exact(got.num) == _exact(want.num)


def test_d_phi_forms_one_atom_product_on_one_level(monkeypatch):
    # sec^2(5 phi): ten atoms, all squared
    ctx = ctx_new(5)
    f = trig(ctx, "sec2_k")
    assert len(f.den) == 10 and {m for _, m in f.den} == {2}
    want = _ref_d_phi(f)
    made = []
    atom_product = coeffring._atom_product
    monkeypatch.setattr(coeffring, "_atom_product",
                        lambda *args: made.append(1) or atom_product(*args))
    assert f.d_phi() == want
    assert len(made) == 1


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), data=st.data())
def test_d_phi_obeys_the_product_rule(k, data):
    ctx = ctx_new(k)
    f = _draw_zrat(data, ctx, [1])
    g = _draw_zrat(data, ctx, [data.draw(st.integers(1, 2))])
    fg = f * g
    assume(len({m for _, m in fg.den}) >= 2)
    assert fg.d_phi() == f.d_phi() * g + f * g.d_phi()
