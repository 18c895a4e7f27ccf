"""Exact arithmetic in the cyclotomic field Q(zeta_N), N = lcm(4, 2k).

The dihedral group of order 4k acts on angle functions through the primitive
root of unity rho = e^{i pi / k}, which is zeta^s for s = ``FieldCtx.rho_exp``;
together with the imaginary unit this forces the scalar field Q(zeta_N) with
N = lcm(4, 2k).  Scalars are stored on the power basis 1, zeta, ...,
zeta^{deg-1} modulo the N-th cyclotomic polynomial, with exact rational
coordinates: a Python ``int`` wherever the coordinate is integral, which is
nearly always, and a ``Fraction`` only where a division made it a proper
fraction.

Q(zeta_N) is Galois over Q with group (Z/N)^*, sigma_j: zeta -> zeta^j, and
``FieldCtx.galois_row`` applies sigma_j to a coordinate row.  Conjugation is
sigma_{-1}.  Inversion multiplies the other conjugates and divides once, by
the norm: 1/x = prod_{j != 1} sigma_j(x) / N(x).

``RingElement`` states the ring protocol once for the package's four exact
types, ``CycloScalar`` at the bottom and ``ZRat``, ``Coefficient`` and
``OpExpr`` above it: the lifting chain down the tower, ``+``, ``-``, ``*``,
their reflections, ``==``, ``hash`` and ``bool``.  Two kinds of level derive
from it.  A ``FieldElement`` (``CycloScalar`` and ``ZRat``) has an ``inv``,
and ``/`` is multiplication by it.  A ``TermMap`` (``Coefficient`` and
``OpExpr``) is a finite sum of terms over the level below, a dict from
monomial keys to nonzero values, and has no ``/``.

    >>> ctx = ctx_new(3)                 # k = 3 -> N = 12, degree phi(12) = 4
    >>> ctx.N, ctx.deg
    (12, 4)
    >>> ctx.imag_unit() ** 2 == -ctx.one()
    True
    >>> ctx.root_power(ctx.rho_exp) ** 3 == -ctx.one()   # rho = e^{i pi/3}
    True
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from fractions import Fraction

from .errors import FieldError, ScalarInversionError

DEFAULT_MAX_K = 12


def max_k_ceiling() -> int:
    """The configured ceiling on k: DUNKLOPS_MAX_K or the built-in default.

    The ceiling guards against accidental huge cyclotomic degrees; raise it
    explicitly when larger dihedral groups are really wanted.
    """
    raw = os.environ.get("DUNKLOPS_MAX_K")
    if raw is None:
        return DEFAULT_MAX_K
    try:
        value = int(raw)
    except ValueError:
        raise FieldError(f"DUNKLOPS_MAX_K must be an integer, got {raw!r}")
    if value < 1:
        raise FieldError(f"DUNKLOPS_MAX_K must be positive, got {value}")
    return value


# ----------------------------------------------------------------------------
# integer polynomials, dense lists low degree -> high, used only to build Phi_N
# ----------------------------------------------------------------------------

def _int_poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (monic-ish divisor, no remainder)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        q, r = divmod(num[shift + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
    if any(num):
        raise ArithmeticError("nonzero remainder in exact division")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Computed by the classical recursion Phi_n(x) = (x^n - 1) / prod_{d|n, d<n}
    Phi_d(x) with exact integer division.

    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise FieldError(f"cyclotomic index must be positive, got {n}")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _int_poly_divexact(num, list(cyclotomic_poly(d)))
    return tuple(num)


# ----------------------------------------------------------------------------
# the field context and its scalars
# ----------------------------------------------------------------------------

class FieldCtx:
    """Shared context for Q(zeta_N) arithmetic at a fixed dihedral index k.

    Instances are cached by ``ctx_new``; scalar operations require both
    operands to carry the *same* context object.
    """

    def __init__(self, k: int):
        _check_k(k)
        self.k = k
        self.N = math.lcm(4, 2 * k)
        phi = cyclotomic_poly(self.N)
        self.deg = len(phi) - 1

        # power table: zeta^m reduced mod Phi_N, for m = 0 .. max(N, 2 deg - 2)
        # (Phi_N is monic with integer coefficients, so every entry is an int)
        top = max(self.N, 2 * self.deg - 1)
        powers: list[tuple] = []
        cur = [0] * self.deg
        cur[0] = 1
        for _ in range(top + 1):
            powers.append(tuple(cur))
            nxt = [0] + cur[:-1]
            lead = cur[-1]
            if lead:
                for i in range(self.deg):
                    nxt[i] -= lead * phi[i]
            cur = nxt[: self.deg]
        self._powers = powers
        self._sparse_powers = [tuple((i, c) for i, c in enumerate(p) if c)
                               for p in powers]

        # numeric embedding of the powers of zeta, zeta -> e^{2 pi i / N};
        # the first deg entries embed the power basis
        self._unit_embed = [cmath.exp(2j * cmath.pi * j / self.N)
                            for j in range(self.N)]

        self._zero = CycloScalar(self, (0,) * self.deg)
        self._one = CycloScalar(self, powers[0])

        # the trig constructors' memo table; the oracle keeps its numbers on
        # each batch, so oracle_cache stays empty (perfbench reports its size)
        self.trig_cache: dict = {}
        self.oracle_cache: dict = {}

    # -- scalar constructors -------------------------------------------------

    def zero(self) -> "CycloScalar":
        return self._zero

    def one(self) -> "CycloScalar":
        return self._one

    def scalar(self, value) -> "CycloScalar":
        """Lift an int / rational / CycloScalar into this field."""
        return CycloScalar._lift(self, value)

    def root_power(self, j: int) -> "CycloScalar":
        """zeta^j (j taken mod N), reduced to the power basis.

        >>> ctx_new(3).root_power(3) == ctx_new(3).imag_unit()
        True
        """
        return CycloScalar(self, self._powers[j % self.N])

    def imag_unit(self) -> "CycloScalar":
        """The imaginary unit i = zeta^{N/4}."""
        return self.root_power(self.N // 4)

    def reduce_row(self, row: list) -> list:
        """Power-basis coordinates of sum_m row[m] zeta^m, for rows of up to
        max(N, 2 deg - 1) entries; the row itself is not modified."""
        deg = self.deg
        out = row[:deg]
        sparse = self._sparse_powers
        for m in range(deg, len(row)):
            cm = row[m]
            if cm:
                for i, c in sparse[m]:
                    out[i] += cm * c
        return out

    def mul_rows(self, a, b) -> list:
        """Power-basis coordinates of the product of two coordinate rows."""
        conv = [0] * (2 * self.deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return self.reduce_row(conv)

    def galois_row(self, j: int, row) -> list:
        """Power-basis coordinates of sum_t row[t] zeta^(j t): the image of
        the row's scalar under the automorphism sigma_j: zeta -> zeta^j, for
        j prime to N (j = -1 is complex conjugation)."""
        N, sparse = self.N, self._sparse_powers
        out = [0] * self.deg
        for t, v in enumerate(row):
            if v:
                for i, c in sparse[j * t % N]:
                    out[i] += v * c
        return out

    @property
    def rho_exp(self) -> int:
        """Exponent s with rho = e^{i pi / k} = zeta^s, the rotation
        eigenvalue; rho is ``root_power(rho_exp)``."""
        return self.N // (2 * self.k)

    def unit_embed(self, j: int) -> complex:
        """Numeric value of zeta^j."""
        return self._unit_embed[j % self.N]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FieldCtx(k={self.k}, N={self.N}, deg={self.deg})"


def _check_k(k) -> None:
    if not isinstance(k, int) or k < 1:
        raise FieldError(f"k must be a positive integer, got {k!r}")
    max_k = max_k_ceiling()
    if k > max_k:
        raise FieldError(
            f"k={k} exceeds the configured ceiling max_k={max_k}"
        )


def ctx_new(k: int) -> FieldCtx:
    """Create (or fetch the cached) field context for dihedral index k.

    The ceiling ``max_k_ceiling()`` is checked on every call; the context
    itself is cached by k alone, so every caller at the same k shares one
    context.

    >>> ctx_new(3) is ctx_new(3)
    True
    """
    _check_k(k)
    return _ctx_cached(k)


@functools.lru_cache(maxsize=None)
def _ctx_cached(k: int) -> FieldCtx:
    return FieldCtx(k)


def _coord(c):
    """A coordinate in canonical form: an int if integral, else a Fraction."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def canon_row(row) -> tuple:
    """A coordinate row in canonical form, as a tuple: each coordinate an
    ``int`` where integral and a ``Fraction`` only for a proper fraction."""
    for c in row:
        if type(c) is not int:
            return tuple(map(_coord, row))
    return tuple(row)


def binary_power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply: ``one`` is returned for
    n = 0 and never multiplied, nor is the base squared after the last bit."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


class RingElement:
    """The ring protocol every exact type of this package shares.

    The types form a tower, each over the one before: ``CycloScalar`` in
    Q(zeta_N), ``ZRat`` in Q(zeta_N)(z), ``Coefficient`` over ``ZRat`` and
    ``OpExpr`` over ``Coefficient``.  Each supplies seven pieces: ``_embed``
    (a value of the level below, or an int or rational, as one of its own)
    and its inverse ``_unembed`` (that value, or None for a value no
    ``_embed`` makes), ``_add`` and ``_mul`` (with an element of its own type
    and context), ``__neg__``, ``is_zero`` and ``_data`` (the hashable
    canonical data that ``==`` compares).  This class derives the lifting
    chain, ``+``, ``-``, ``*``, their reflections, ``==``, ``hash`` and
    ``bool`` from them, so a constructor and an operator take and refuse the
    same inputs: a value of another context raises FieldError, a foreign type
    (a float, a str) TypeError in a constructor and NotImplemented in an
    operator.

    ``x - y`` is ``x + (-y)``.  A reflected operand is lifted and keeps its
    place in a product, ``c * x`` being ``lift(c) * x``, since operator
    products do not commute; ``c + x`` is ``x + lift(c)``, ``x`` deposited
    first.  Subtraction and the reflected product go through ``+`` and
    ``*``, not ``_add`` and ``_mul``, so a wrapper on ``__add__`` or
    ``__mul__`` sees every sum and product.
    """

    __slots__ = ("ctx", "_hash")

    @classmethod
    def _lift(cls, ctx: FieldCtx, x):
        """x as an element of this type over ctx: an element of this type
        must carry ctx, anything else goes down the tower."""
        if isinstance(x, cls):
            if x.ctx is not ctx:
                raise FieldError(
                    f"mixed field contexts in {cls.__name__} arithmetic")
            return x
        return cls._embed(ctx, x)

    def _coerce(self, other):
        """other lifted into this type and context; None if it is foreign."""
        try:
            return self._lift(self.ctx, other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._mul(o)

    def __rmul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._data() == o._data()

    def __hash__(self):
        # A value that ``_unembed`` lowers equals what it lowers to, so it
        # hashes like that, down to an int or Fraction.  Any other value is
        # keyed by its context object: values of two contexts, even of one N
        # (k = 1 and k = 2) or one k, meet in a hash bucket only when they
        # are equal rational constants, and there == raises FieldError.
        if self._hash is None:
            low = self._unembed()
            self._hash = (hash((id(self.ctx), self._data())) if low is None
                          else hash(low))
        return self._hash

    def __bool__(self):
        return not self.is_zero()


class FieldElement(RingElement):
    """A level that is a field: Q(zeta_N) or Q(zeta_N)(z).  Each supplies
    ``inv``, and ``x / y`` is ``x * y.inv()``, ``c / x`` ``lift(c) * x.inv()``,
    so a wrapper on ``__mul__`` sees every quotient."""

    __slots__ = ()

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inv()


class TermMap(RingElement):
    """A finite sum of terms over the level below: ``terms`` maps a monomial
    key to a nonzero value of that level, and the unit sits at the key
    (0, 0, 0, 0) on both such levels, ``Coefficient`` over ``ZRat`` and
    ``OpExpr`` over ``Coefficient``.  Each supplies ``_embed``, ``_add`` and
    ``_mul``; this class gives the rest of the ring protocol, and ``items``,
    the terms in key order.  The dict is never mutated once built."""

    __slots__ = ("terms",)

    def __init__(self, ctx: FieldCtx, terms: dict):
        self.ctx = ctx
        self.terms = terms
        self._hash = None

    def _unembed(self):
        if not self.terms:
            return 0
        return self.terms.get((0, 0, 0, 0)) if len(self.terms) == 1 else None

    def is_zero(self) -> bool:
        return not self.terms

    def _data(self) -> frozenset:
        return frozenset(self.terms.items())

    def items(self):
        """The terms in key order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __neg__(self):
        return type(self)(self.ctx, {key: -v for key, v in self.terms.items()})


class CycloScalar(FieldElement):
    """An element of Q(zeta_N) on the power basis.  Immutable.

    Supports +, -, *, / with other scalars of the same context and with
    ints / rationals; ``**`` with integer exponents; ``conj``; and numeric
    embedding via ``complex(x)``.

    The coordinates are stored as a ``canon_row``, whatever the caller
    passed; since ``Fraction(n) == n`` and ``hash(Fraction(n)) == hash(n)``,
    equality and hashing are unaffected.
    """

    __slots__ = ("coeffs",)

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = canon_row(coeffs)
        self._hash = None

    @staticmethod
    def _embed(ctx: FieldCtx, x) -> "CycloScalar":
        if isinstance(x, int) or type(x) is Fraction:
            return CycloScalar(ctx, (x,) + (0,) * (ctx.deg - 1))
        raise TypeError(f"cannot lift a {type(x).__name__} into an exact ring")

    def _unembed(self):
        return self.coeffs[0] if self.is_rational() else None

    def _data(self) -> tuple:
        return self.coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    # -- ring operations -----------------------------------------------------

    def _add(self, o):
        return CycloScalar(
            self.ctx, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __sub__(self, other):
        # its own subtraction, so that x - 1 is one scalar add
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloScalar(
            self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __neg__(self):
        return CycloScalar(self.ctx, tuple(-a for a in self.coeffs))

    def _mul(self, o):
        return CycloScalar(self.ctx,
                           tuple(self.ctx.mul_rows(self.coeffs, o.coeffs)))

    def inv(self) -> "CycloScalar":
        """1/x = prod_{j != 1} sigma_j(x) / N(x), over the units j mod N.

        x is first scaled by the least common denominator d of its
        coordinates, so the conjugates of d x multiply on integer rows; d x
        times their product is the norm N(d x), a nonzero integer, and the
        one division is of each coordinate of d times that product by it.
        """
        if self.is_zero():
            raise ScalarInversionError("inversion of the zero scalar")
        if self.is_rational():
            return self.ctx.scalar(1 / Fraction(self.coeffs[0]))
        ctx = self.ctx
        d = math.lcm(*(c.denominator for c in self.coeffs))
        x = canon_row([c * d for c in self.coeffs])
        rest = ctx.one().coeffs
        for j in range(2, ctx.N):
            if math.gcd(j, ctx.N) == 1:
                rest = ctx.mul_rows(rest, ctx.galois_row(j, x))
        norm = ctx.mul_rows(x, rest)[0]
        return CycloScalar(ctx, tuple(Fraction(c * d, norm) for c in rest))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return binary_power(self if n >= 0 else self.inv(), abs(n),
                            self.ctx.one())

    def conj(self) -> "CycloScalar":
        """Complex conjugation, the field automorphism zeta -> zeta^{N-1}."""
        return CycloScalar(self.ctx,
                           tuple(self.ctx.galois_row(-1, self.coeffs)))

    # -- embedding -----------------------------------------------------------

    def __complex__(self) -> complex:
        return sum(
            (float(c) * e for c, e in zip(self.coeffs, self.ctx._unit_embed)
             if c),
            0j,
        )

    def __repr__(self) -> str:
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                if j == 0:
                    terms.append(str(c))
                elif j == 1:
                    terms.append(f"{c}*zeta")
                else:
                    terms.append(f"{c}*zeta^{j}")
        return " + ".join(terms) if terms else "0"
