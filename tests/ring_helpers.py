"""Readers and builders of coefficient-ring values that only the tests use:
a float evaluation of a ``ZRat``, a ``ZRat`` from polynomial coefficients,
the exponent ranges of a ``Coefficient``, and the two-step reference for
``ZRat.conj``."""

from dunklops.coeffring import ATOM_Z, ZRat, _den_tuple
from dunklops.cyclofield import CycloScalar, canon_row


def zrat_eval(f: ZRat, zval: complex) -> complex:
    """f at the complex point zval, in floating point."""
    ctx = f.ctx
    acc = 0j
    for c in reversed(f.num):
        acc = acc * zval + complex(CycloScalar(ctx, c))
    den = 1 + 0j
    for atom, mult in f.den:
        if atom == ATOM_Z:
            base = zval
        elif atom[0] == "lin":
            base = zval - ctx.unit_embed(atom[1])
        else:
            base = zval * zval - ctx.unit_embed(atom[1])
        den *= base ** mult
    return acc / den


def zrat_from_poly(ctx, coeffs) -> ZRat:
    """The polynomial sum_j coeffs[j] z^j, each coefficient anything that
    lifts to a scalar of ctx."""
    return ZRat._make(ctx, [ctx.scalar(c).coeffs for c in coeffs], {})


def coefficient_degrees(c) -> dict:
    """The least and greatest r-power and the greatest a, b and w2 powers
    of a Coefficient's terms, each range taken to include 0."""
    out = {"m_min": 0, "m_max": 0, "a": 0, "b": 0, "w2": 0}
    for (m, a, b, g) in c.terms:
        out["m_min"] = min(out["m_min"], m)
        out["m_max"] = max(out["m_max"], m)
        out["a"] = max(out["a"], a)
        out["b"] = max(out["b"], b)
        out["w2"] = max(out["w2"], g)
    return out


def zrat_conj_reference(f: ZRat) -> ZRat:
    """f.conj() as two steps: the Galois conjugation sigma_{-1}, which maps
    each atom z^d - zeta^s to z^d - zeta^-s, then ``reflect``."""
    ctx = f.ctx
    num = tuple(canon_row(ctx.galois_row(-1, row)) for row in f.num)
    den = {(atom if atom == ATOM_Z else (atom[0], -atom[1] % ctx.N)): mult
           for atom, mult in f.den}
    return ZRat(ctx, num, _den_tuple(den)).reflect()
