"""Coefficient ring: rational functions of z = e^{i phi} and full coefficients."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklops._rat import RAT
from dunklops.coeffring import (ATOM_Z, TRIG_KINDS, Coefficient, ZRat,
                                _atom_product, _divmod_atom, _zp_mul, atomize,
                                cot_k, factor_unit_binomial, trig)
from dunklops.cyclofield import CycloScalar, ctx_new
from dunklops.errors import CoeffError, FieldError, ScalarInversionError

# real-valued reference implementations of each constructor, by kind
_REFS = {
    "tan_shift": lambda k, j, p: math.tan(p + j * math.pi / k),
    "cot_shift": lambda k, j, p: 1 / math.tan(p + j * math.pi / k),
    "sec2_shift": lambda k, j, p: 1 / math.cos(p + j * math.pi / k) ** 2,
    "csc2_shift": lambda k, j, p: 1 / math.sin(p + j * math.pi / k) ** 2,
    "sec_k": lambda k, j, p: 1 / math.cos(k * p),
    "tan_k": lambda k, j, p: math.tan(k * p),
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
    for k in (1, 2, 3, 4, 5, 6):
        ctx = ctx_new(k)
        for kind in TRIG_KINDS:
            if kind in ("half_sum_inv2", "half_diff_inv2") and k % 2:
                continue
            for j in range(k if kind.endswith("_shift") else 1):
                f = trig(ctx, kind, j)
                for phi in _ANGLES:
                    expect = _REFS[kind](k, j, phi)
                    got = f.eval(zval(phi))
                    assert abs(got.imag) < 1e-9 * max(1, abs(expect))
                    assert abs(got.real - expect) < 1e-9 * max(1, abs(expect))


def test_cot_k_matches_float():
    for k in (1, 2, 3, 4):
        f = cot_k(ctx_new(k))
        for phi in _ANGLES:
            expect = 1 / math.tan(k * phi)
            assert abs(f.eval(zval(phi)) - expect) < 1e-9 * max(1, abs(expect))


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
        assert cot_k(ctx).d_phi() == -ctx.scalar(k) * trig(ctx, "csc2_k")


def test_derivative_matches_central_difference():
    ctx = ctx_new(3)
    f = trig(ctx, "tan_shift", 1) * trig(ctx, "cot_shift", 2) \
        + ZRat.z_power(ctx, 2)
    df = f.d_phi()
    h = 1e-6
    for phi in _ANGLES:
        numeric = (f.eval(zval(phi + h)) - f.eval(zval(phi - h))) / (2 * h)
        assert abs(df.eval(zval(phi)) - numeric) < 1e-5


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
                trig(ctx, "sec_k") + ZRat.const(ctx, RAT(1, 2))]
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
                (x + y, x.eval(z0) + y.eval(z0)),
                (x * y, x.eval(z0) * y.eval(z0)),
                (x - y, x.eval(z0) - y.eval(z0))):
            got = combined.eval(z0)
            assert abs(got - parts) < 1e-8 * max(1, abs(parts))


def test_inverse_and_non_factorable_denominator():
    ctx = ctx_new(2)
    t = trig(ctx, "tan_shift", 1)
    assert t * t.inv() == ZRat.const(ctx, 1)
    assert ZRat.z_power(ctx, -3).inv() == ZRat.z_power(ctx, 3)
    lumpy = ZRat.from_poly(ctx, [1, 1, 1])      # roots are cube roots of 1
    with pytest.raises(CoeffError):
        lumpy.inv()


def _atom_zrat(ctx, atom):
    if atom[0] == "lin":
        return ZRat.from_poly(ctx, [-ctx.root_power(atom[1]), ctx.one()])
    return ZRat.from_poly(ctx, [-ctx.root_power(atom[1]), ctx.zero(),
                                ctx.one()])


def test_factor_unit_binomial_roundtrip():
    ctx = ctx_new(3)          # N = 12
    for n, t in [(2, 0), (2, 6), (3, 6), (4, 0), (6, 6), (2, 3), (1, 5)]:
        atoms: dict = {}
        factor_unit_binomial(ctx, n, t, atoms)
        prod = ZRat.const(ctx, 1)
        for atom, mult in atoms.items():
            prod = prod * _atom_zrat(ctx, atom) ** mult
        expect = ZRat.z_power(ctx, n) - ZRat.const(ctx, ctx.root_power(t))
        assert prod == expect
    with pytest.raises(CoeffError):
        factor_unit_binomial(ctx, 5, 0, {})   # 5 does not divide N = 12


def test_atomize_recovers_unit_and_atoms():
    ctx = ctx_new(2)          # N = 4
    two = ctx.scalar(2)
    poly = [two, ctx.zero(), two]             # 2 z^2 + 2 = 2 (z-i)(z+i)
    unit, atoms = atomize(ctx, poly)
    assert unit == two
    prod = ZRat.const(ctx, unit)
    for atom, mult in atoms.items():
        prod = prod * _atom_zrat(ctx, atom) ** mult
    assert prod == ZRat.from_poly(ctx, poly)


@settings(max_examples=80, deadline=None)
@given(k=st.sampled_from([1, 2, 3]),
       coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
       shift=st.integers(-3, 3),
       jj=st.integers(0, 2))
def test_zrat_ring_laws_hypothesis(k, coeffs, shift, jj):
    ctx = ctx_new(k)
    x = ZRat.from_poly(ctx, coeffs) * ZRat.z_power(ctx, shift)
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
    deg = (c1 * c2).degrees()
    assert deg == {"m_min": 0, "m_max": 1, "a": 1, "b": 1, "w2": 1}
    assert c2.degrees()["m_min"] == -1


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


def _exact(poly):
    """Coordinates with their types: int and RAT must agree as well."""
    if poly is None:
        return None
    return [tuple((type(v), v) for v in c.coeffs) for c in poly]


_COORD = st.one_of(
    st.just(0), st.just(0), st.integers(-40, 40),
    st.builds(RAT, st.integers(-9, 9), st.integers(1, 6)))


def _draw_poly(data, ctx, min_size=0, max_size=6):
    coeff = st.one_of(
        st.just((0,) * ctx.deg),
        st.lists(_COORD, min_size=ctx.deg, max_size=ctx.deg).map(tuple))
    rows = data.draw(st.lists(coeff, min_size=min_size, max_size=max_size))
    return [CycloScalar(ctx, row) for row in rows]


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
    assert _exact(_zp_mul(ctx, a, b)) == _exact(_ref_mul(ctx, a, b))

    atom = _draw_atom(data, ctx)
    poly = _ref_trim(list(a))
    assert (_exact(_divmod_atom(ctx, poly, atom))
            == _exact(_ref_divmod_atom(ctx, poly, atom)))

    q = _ref_trim(_draw_poly(data, ctx, min_size=1))
    if q:
        exact = _ref_mul(ctx, _ref_atom_poly(ctx, atom), q)
        assert _exact(_divmod_atom(ctx, exact, atom)) == _exact(q)
        assert _exact(_ref_divmod_atom(ctx, exact, atom)) == _exact(q)
        # adding 1 leaves a nonzero remainder
        inexact = [exact[0] + 1] + exact[1:]
        assert _divmod_atom(ctx, inexact, atom) is None
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
    """Trig kinds at every shift, negative powers of z and polynomials."""
    out = []
    for kind in TRIG_KINDS:
        if kind.startswith("half_") and ctx.k % 2:
            continue
        shifts = range(2 * ctx.k) if kind.endswith("_shift") else [0]
        out += [trig(ctx, kind, j) for j in shifts]
    out += [ZRat.z_power(ctx, -m) for m in (1, 2, 3)]
    terms = st.tuples(st.integers(-3, 3), st.integers(0, ctx.N - 1))
    for _ in range(3):
        poly = data.draw(st.lists(terms, min_size=1, max_size=4))
        out.append(ZRat.from_poly(ctx, [c * ctx.root_power(t)
                                        for c, t in poly]))
    return out


def _assert_canonical(f):
    """No denominator atom divides the numerator, and trial division by
    every atom of the denominator gives f back."""
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
