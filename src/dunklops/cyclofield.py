"""Exact arithmetic in the cyclotomic field Q(zeta_N), N = lcm(4, 2k).

The dihedral group of order 4k acts on angle functions through the primitive
root of unity rho = e^{i pi / k}; together with the imaginary unit this forces
the scalar field Q(zeta_N) with N = lcm(4, 2k).  Scalars are stored on the
power basis 1, zeta, ..., zeta^{deg-1} modulo the N-th cyclotomic polynomial,
with exact rational coordinates: a Python ``int`` wherever the coordinate is
integral, which is nearly always, and a ``RAT`` only where a division made it
a proper fraction.

    >>> ctx = ctx_new(3)                 # k = 3 -> N = 12, degree phi(12) = 4
    >>> ctx.N, ctx.deg
    (12, 4)
    >>> ctx.imag_unit() ** 2 == -ctx.one()
    True
    >>> ctx.rho() ** 3 == -ctx.one()     # rho = e^{i pi/3}
    True
"""

from __future__ import annotations

import cmath
import functools
import math
import os

from ._rat import RAT
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
# rational polynomials, used for inversion via the extended Euclid algorithm
# ----------------------------------------------------------------------------

def _qp_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _qp_divmod(num: list, den: list) -> tuple[list, list]:
    num = list(num)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = 1 / RAT(den[-1])
    out = [RAT(0)] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(out) - 1, -1, -1):
        q = num[shift + len(den) - 1] * inv_lead
        out[shift] = q
        if q:
            for i, d in enumerate(den):
                num[shift + i] -= q * d
    return out, _qp_trim(num)


def _qp_xgcd(a: list, b: list) -> tuple[list, list, list]:
    """Extended Euclid over Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [RAT(1)], []
    t0, t1 = [], [RAT(1)]
    while r1:
        q, r = _qp_divmod(r0, r1)
        r0, r1 = r1, r

        def step(u0, u1):
            prod = [RAT(0)] * (len(q) + len(u1) - 1) if q and u1 else []
            for i, qc in enumerate(q):
                if qc:
                    for j, uc in enumerate(u1):
                        prod[i + j] += qc * uc
            out = list(u0) + [RAT(0)] * max(0, len(prod) - len(u0))
            for i, pc in enumerate(prod):
                out[i] -= pc
            return _qp_trim(out)

        s0, s1 = s1, step(s0, s1)
        t0, t1 = t1, step(t0, t1)
    return r0, s0, t0


# ----------------------------------------------------------------------------
# the field context and its scalars
# ----------------------------------------------------------------------------

class FieldCtx:
    """Shared context for Q(zeta_N) arithmetic at a fixed dihedral index k.

    Instances are cached by ``ctx_new``; scalar operations require both
    operands to carry the *same* context object.
    """

    def __init__(self, k: int, max_k: int | None = None):
        _check_k(k, max_k)
        self.k = k
        self.N = math.lcm(4, 2 * k)
        phi = cyclotomic_poly(self.N)
        self.deg = len(phi) - 1
        self._phi = phi

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
                    nxt[i] -= lead * self._phi[i]
            cur = nxt[: self.deg]
        self._powers = powers
        self._sparse_powers = [tuple((i, c) for i, c in enumerate(p) if c)
                               for p in powers]

        # conjugation table: conj(zeta^j) = zeta^{N-j}
        self._conj = [powers[(self.N - j) % self.N] for j in range(self.deg)]

        # numeric embedding of the basis, zeta -> e^{2 pi i / N}
        self._embed = [cmath.exp(2j * cmath.pi * j / self.N)
                       for j in range(self.deg)]
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
        if isinstance(value, CycloScalar):
            if value.ctx is not self:
                raise FieldError("scalar belongs to a different field context")
            return value
        return CycloScalar(self, (value,) + (0,) * (self.deg - 1))

    def root_power(self, j: int) -> "CycloScalar":
        """zeta^j (j taken mod N), reduced to the power basis.

        >>> ctx_new(3).root_power(3) == ctx_new(3).imag_unit()
        True
        """
        return CycloScalar(self, self._powers[j % self.N])

    def imag_unit(self) -> "CycloScalar":
        """The imaginary unit i = zeta^{N/4}."""
        return self.root_power(self.N // 4)

    def rho(self) -> "CycloScalar":
        """rho = e^{i pi / k} = zeta^{N/(2k)}, the rotation eigenvalue."""
        return self.root_power(self.N // (2 * self.k))

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

    @property
    def rho_exp(self) -> int:
        """Exponent s with rho = zeta^s."""
        return self.N // (2 * self.k)

    def unit_embed(self, j: int) -> complex:
        """Numeric value of zeta^j."""
        return self._unit_embed[j % self.N]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FieldCtx(k={self.k}, N={self.N}, deg={self.deg})"


def _check_k(k, max_k: int | None) -> None:
    if not isinstance(k, int) or k < 1:
        raise FieldError(f"k must be a positive integer, got {k!r}")
    if max_k is None:
        max_k = max_k_ceiling()
    if k > max_k:
        raise FieldError(
            f"k={k} exceeds the configured ceiling max_k={max_k}"
        )


def ctx_new(k: int, max_k: int | None = None) -> FieldCtx:
    """Create (or fetch the cached) field context for dihedral index k.

    The ceiling ``max_k`` (default: ``max_k_ceiling()``) is checked on every
    call; the context itself is cached by k alone, so every caller at the
    same k shares one context.

    >>> ctx_new(3, 20) is ctx_new(3)
    True
    """
    _check_k(k, max_k)
    return _ctx_cached(k)


@functools.lru_cache(maxsize=None)
def _ctx_cached(k: int) -> FieldCtx:
    return FieldCtx(k, max_k=k)


def _coord(c):
    """One coordinate in canonical form: an int if integral, else a RAT."""
    if type(c) is not RAT:
        c = RAT(c)
    # int() also turns gmpy2's mpz numerator into a Python int
    return int(c.numerator) if c.denominator == 1 else c


class CycloScalar:
    """An element of Q(zeta_N) on the power basis.  Immutable.

    Supports +, -, *, / with other scalars of the same context and with
    ints / rationals; ``**`` with integer exponents; ``conj``; and numeric
    embedding via ``complex(x)``.

    Each coordinate is stored as an ``int`` when it is integral and as a
    ``RAT`` otherwise, whatever the caller passed; since ``RAT(n) == n`` and
    ``hash(RAT(n)) == hash(n)``, equality and hashing are unaffected.
    """

    __slots__ = ("ctx", "coeffs", "_hash")

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        self.ctx = ctx
        for c in coeffs:
            if type(c) is not int:
                coeffs = tuple(map(_coord, coeffs))
                break
        self.coeffs = coeffs
        self._hash = None

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloScalar):
            if other.ctx is not self.ctx:
                raise FieldError("mixed field contexts in scalar arithmetic")
            return other
        if isinstance(other, int) or type(other) is RAT:
            return self.ctx.scalar(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloScalar(
            self.ctx, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloScalar(
            self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloScalar(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        deg = self.ctx.deg
        a, b = self.coeffs, o.coeffs
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycloScalar(self.ctx, tuple(self.ctx.reduce_row(conv)))

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        if self.is_zero():
            raise ScalarInversionError("inversion of the zero scalar")
        if self.is_rational():
            return self.ctx.scalar(1 / RAT(self.coeffs[0]))
        poly = _qp_trim(list(self.coeffs))
        g, s, _ = _qp_xgcd(poly, list(self.ctx._phi))
        # g is a nonzero constant (Phi_N is irreducible over Q)
        ginv = 1 / RAT(g[0])
        out = [c * ginv for c in s] + [0] * (self.ctx.deg - len(s))
        return CycloScalar(self.ctx, tuple(out[: self.ctx.deg]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inv()
        n = abs(n)
        result = self.ctx.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "CycloScalar":
        """Complex conjugation, the field automorphism zeta -> zeta^{N-1}."""
        out = [0] * self.ctx.deg
        for j, c in enumerate(self.coeffs):
            if c:
                tab = self.ctx._conj[j]
                for i in range(self.ctx.deg):
                    if tab[i]:
                        out[i] += c * tab[i]
        return CycloScalar(self.ctx, tuple(out))

    # -- comparisons / embedding ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int,)) or type(other) is RAT:
            other = self.ctx.scalar(other)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.N, self.coeffs))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self) -> complex:
        return sum(
            (float(c) * e for c, e in zip(self.coeffs, self.ctx._embed)
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


def numeric_embed(x: CycloScalar) -> complex:
    """Embed a scalar into the complex numbers, zeta -> e^{2 pi i / N}."""
    return complex(x)
