"""Coefficient ring: rational functions of the angle, and operator coefficients.

Angle-dependent coefficients live in Q(zeta_N)(z) with z = e^{i phi}.  A
``ZRat`` keeps a dense polynomial numerator and a *factored* denominator whose
factors ("atoms") are z, z - zeta^s, or the irreducible z^2 - zeta^s (s odd);
every denominator that arises from the trigonometric constructors splits into
such atoms, and keeping them factored lets reduction proceed by exact trial
division instead of polynomial gcd.  The canonical form of a nonzero f is
num/den with den the monic product of the atoms and gcd(num, den) = 1, that is,
no atom of den divides num; zero is ()/1.  Every operation returns this form,
and equality is literal equality of the canonical data.

The atoms are pairwise coprime irreducibles and the operands are canonical, so
most trial divisions can be shown in advance to fail and are not made (as in
Henrici's rational arithmetic, Knuth TAOCP 2, 4.5.1).  Each operation tries:

    a + b        the atoms with the same multiplicity in both denominators
    a * b        the atoms of each denominator, on the other numerator,
                 before multiplying
    d_phi        only z
    inv          none
    rotate_n, reflect, conj, neg   none (they map canonical forms to
                 canonical forms)

The numerator kernels work on the coordinate tuples of the coefficients, not
on ``CycloScalar`` objects, and build scalars only for the coefficients they
return.  Operands are sparse, so a product convolves only nonzero coordinates,
into one unreduced row of zeta-powers per output power of z, and reduces each
row modulo Phi_N once.  Trial division by z^d - zeta^s lifts the coefficients
into Z[x]/(x^N - 1), where multiplying by zeta^s is a cyclic shift of the row
by s; it reduces modulo Phi_N only the remainder, to test exactness, and the
quotient only when the division is exact.  A product of atoms (the cofactor
that brings a summand to the common denominator, a dense denominator, the
products in d_phi) needs no convolution either: each factor z^d - zeta^s
shifts the rows by d and subtracts the rows times zeta^s, read from the
reduced power table, so the rows stay reduced integer rows throughout.

A ``Coefficient`` is a polynomial in the radial variable r (integer, possibly
negative, powers), the two reflection multiplicities a and b, and the squared
oscillator frequency w2, with ZRat values:

    terms : (m, alpha, beta, gamma) -> ZRat     # r^m a^alpha b^beta w2^gamma

The dihedral actions and the angular derivation are methods on both levels:

    f.d_phi()     = i z f'(z)          (d/dphi through z = e^{i phi})
    f.rotate_n(n) = f(rho^n z)         (phi -> phi + n pi/k)
    f.reflect()   = f(1/z)             (phi -> -phi)
    f.conj()      = scalar conjugation together with z -> 1/z
"""

from __future__ import annotations

from typing import Iterable

from ._rat import RAT
from .cyclofield import CycloScalar, FieldCtx
from .errors import CoeffError, FieldError, ScalarInversionError

# ---------------------------------------------------------------------------
# dense polynomials over CycloScalar (low degree first, no trailing zeros)
# ---------------------------------------------------------------------------


def _zp_trim(p: list) -> list:
    while p and p[-1].is_zero():
        p.pop()
    return p


def _zp_add(ctx: FieldCtx, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _zp_trim(out)


def _zp_neg(p: list) -> list:
    return [-c for c in p]


def _nonzero_rows(p) -> list:
    """(z-power, [(zeta-power, coordinate), ...]) for each nonzero coefficient."""
    out = []
    for i, c in enumerate(p):
        row = [(t, v) for t, v in enumerate(c.coeffs) if v]
        if row:
            out.append((i, row))
    return out


def _zp_mul(ctx: FieldCtx, a, b) -> list:
    if not a or not b:
        return []
    width = 2 * ctx.deg - 1
    rows = [None] * (len(a) + len(b) - 1)
    rows_b = _nonzero_rows(b)
    for i, ra in _nonzero_rows(a):
        for j, rb in rows_b:
            row = rows[i + j]
            if row is None:
                row = rows[i + j] = [0] * width
            for s, x in ra:
                for t, y in rb:
                    row[s + t] += x * y
    zero = ctx.zero()
    return _zp_trim([zero if row is None
                     else CycloScalar(ctx, tuple(ctx.reduce_row(row)))
                     for row in rows])


def _zp_scale(p: list, c: CycloScalar) -> list:
    if c.is_zero():
        return []
    return [x * c for x in p]


def _zp_shift(ctx: FieldCtx, p: list, m: int) -> list:
    """Multiply by z^m, m >= 0."""
    if not p:
        return []
    return [ctx.zero()] * m + list(p)


def _zp_deriv(ctx: FieldCtx, p: list) -> list:
    return _zp_trim([p[j] * ctx.scalar(j) for j in range(1, len(p))])


# ---------------------------------------------------------------------------
# denominator atoms
# ---------------------------------------------------------------------------
# atom encodings:   ("z",)        the monomial z
#                   ("lin", s)    z - zeta^s
#                   ("quad", s)   z^2 - zeta^s, s odd (irreducible over the field)

ATOM_Z = ("z",)


def _atom_sort_key(atom):
    if atom == ATOM_Z:
        return (0, 0)
    kind, s = atom
    return (1 if kind == "lin" else 2, s)


def _atom_degree(atom) -> int:
    return 2 if atom[0] == "quad" else 1


def _atom_product(ctx: FieldCtx, atoms) -> list:
    """The dense product of ``atoms``, an atom repeated for each power."""
    deg, N, sparse = ctx.deg, ctx.N, ctx._sparse_powers
    rows = [[1] + [0] * (deg - 1)]
    for atom in atoms:
        if atom == ATOM_Z:
            rows.insert(0, [0] * deg)
            continue
        # times z^d - zeta^s: out[j] = rows[j - d] - zeta^s rows[j].  out
        # shares the rows it shifts, and row j is read before out[j + d],
        # which is the same list, is written.
        s = atom[1]
        out = [[0] * deg for _ in range(_atom_degree(atom))] + rows
        for row, acc in zip(rows, out):
            for t, v in enumerate(row):
                if v:
                    for i, c in sparse[(s + t) % N]:
                        acc[i] -= v * c
        rows = out
    return [CycloScalar(ctx, tuple(row)) for row in rows]


def _add_atom(ctx: FieldCtx, atoms: dict, atom, mult: int = 1) -> None:
    """Record an atom, splitting reducible quadratics z^2 - zeta^{even}."""
    if atom[0] == "quad" and atom[1] % 2 == 0:
        half = atom[1] // 2
        _add_atom(ctx, atoms, ("lin", half % ctx.N), mult)
        _add_atom(ctx, atoms, ("lin", (half + ctx.N // 2) % ctx.N), mult)
        return
    atoms[atom] = atoms.get(atom, 0) + mult


def factor_unit_binomial(ctx: FieldCtx, n: int, t: int, atoms: dict,
                         mult: int = 1) -> None:
    """Factor z^n - zeta^t into atoms (requires n | N), accumulating in-place.

    Every angular denominator in this package is a product of such binomials.
    """
    N = ctx.N
    t %= N
    if N % n != 0:
        raise CoeffError(f"binomial degree {n} does not divide N={N}")
    if n == 1:
        _add_atom(ctx, atoms, ("lin", t), mult)
        return
    if t % n == 0:
        # full set of n roots zeta^{t/n + j N/n}
        s0 = t // n
        step = N // n
        for j in range(n):
            _add_atom(ctx, atoms, ("lin", (s0 + j * step) % N), mult)
        return
    if n % 2 == 0:
        # no roots in the field; substitute y = z^2 and lift y-linear factors
        sub: dict = {}
        factor_unit_binomial(ctx, n // 2, t, sub, mult)
        for atom, m in sub.items():
            if atom[0] != "lin":
                raise CoeffError(
                    f"z^{n} - zeta^{t} needs factors of degree > 2"
                )
            _add_atom(ctx, atoms, ("quad", atom[1]), m)
        return
    raise CoeffError(f"z^{n} - zeta^{t} does not factor over the atom set")


def _divmod_atom(ctx: FieldCtx, poly: list, atom):
    """Quotient of poly by the atom, or None if the division is inexact."""
    if not poly:
        return []
    if atom == ATOM_Z:
        if poly[0].is_zero():
            return poly[1:]
        return None
    # synthetic division by z^d - zeta^s on coefficients lifted to
    # Z[x]/(x^N - 1): lifted[j] = poly[j] + zeta^s lifted[j + d]
    d = _atom_degree(atom)
    n = len(poly) - 1
    if n < d:
        return None
    cut = ctx.N - atom[1] % ctx.N
    pad = [0] * (ctx.N - ctx.deg)
    lifted = [None] * (n + 1)
    for j in range(n, -1, -1):
        if j + d > n:
            row = list(poly[j].coeffs) + pad
        else:
            prev = lifted[j + d]
            row = prev[cut:] + prev[:cut]
            for t, v in enumerate(poly[j].coeffs):
                if v:
                    row[t] += v
        lifted[j] = row
    for j in range(d):
        if any(ctx.reduce_row(lifted[j])):
            return None
    return [CycloScalar(ctx, tuple(ctx.reduce_row(row)))
            for row in lifted[d:]]


def atomize(ctx: FieldCtx, poly: list) -> tuple[CycloScalar, dict]:
    """Write poly = unit * product(atoms); raise CoeffError if impossible.

    Only polynomials whose roots are (square roots of) roots of unity split
    this way; those are exactly the denominators the constructors produce.
    """
    poly = _zp_trim(list(poly))
    if not poly:
        raise ScalarInversionError("cannot factor the zero polynomial")
    unit = poly[-1]
    atoms: dict = {}
    if len(poly) == 1:
        return unit, atoms
    inv_lead = unit.inv()
    work = [c * inv_lead for c in poly]
    candidates = [ATOM_Z]
    candidates += [("lin", s) for s in range(ctx.N)]
    candidates += [("quad", s) for s in range(1, ctx.N, 2)]
    for atom in candidates:
        while len(work) > 1:
            quo = _divmod_atom(ctx, work, atom)
            if quo is None:
                break
            work = quo
            atoms[atom] = atoms.get(atom, 0) + 1
        if len(work) == 1:
            break
    if len(work) > 1:
        raise CoeffError(
            "polynomial does not factor into the cyclotomic atom set"
        )
    # work == [1] by construction (monic, fully divided)
    return unit, atoms


def _den_tuple(den: dict) -> tuple:
    """The canonical denominator: (atom, multiplicity) pairs in atom order."""
    return tuple(sorted(((a, m) for a, m in den.items() if m > 0),
                        key=lambda am: _atom_sort_key(am[0])))


def _cancel(ctx: FieldCtx, num, den) -> tuple[list, dict]:
    """Divide num by each atom of den up to its multiplicity, as far as the
    divisions are exact; return the quotient and the multiplicities left."""
    num = list(num)
    left = {}
    for atom, mult in den:
        while mult > 0:
            quo = _divmod_atom(ctx, num, atom)
            if quo is None:
                break
            num = quo
            mult -= 1
        left[atom] = mult
    return num, left


# ---------------------------------------------------------------------------
# ZRat
# ---------------------------------------------------------------------------


class ZRat:
    """A rational function of z over Q(zeta_N), in canonical reduced form."""

    __slots__ = ("ctx", "num", "den", "_hash", "_den_poly")

    def __init__(self, ctx: FieldCtx, num: tuple, den: tuple):
        self.ctx = ctx
        self.num = num
        self.den = den
        self._hash = None
        self._den_poly = None

    # -- construction ---------------------------------------------------------

    @staticmethod
    def _make(ctx: FieldCtx, num: list, den: dict,
              tries: Iterable | None = None) -> "ZRat":
        """Reduce num/den by trial division by the atoms in ``tries``, each up
        to its multiplicity in den; every atom of den when tries is None."""
        num = _zp_trim(list(num))
        if not num:
            return ZRat(ctx, (), ())
        num, left = _cancel(ctx, num, [(a, den[a]) for a in
                                       (den if tries is None else tries)])
        den.update(left)
        return ZRat(ctx, tuple(num), _den_tuple(den))

    @staticmethod
    def from_poly(ctx: FieldCtx, coeffs: Iterable) -> "ZRat":
        return ZRat._make(ctx, [ctx.scalar(c) if not isinstance(c, CycloScalar)
                                else c for c in coeffs], {})

    @staticmethod
    def const(ctx: FieldCtx, value) -> "ZRat":
        c = value if isinstance(value, CycloScalar) else ctx.scalar(value)
        if c.is_zero():
            return ZRat(ctx, (), ())
        return ZRat(ctx, (c,), ())

    @staticmethod
    def z_power(ctx: FieldCtx, m: int) -> "ZRat":
        if m >= 0:
            return ZRat(ctx, tuple([ctx.zero()] * m + [ctx.one()]), ())
        return ZRat(ctx, (ctx.one(),), ((ATOM_Z, -m),))

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def den_poly(self) -> list:
        """The monic dense denominator (product of the atoms)."""
        if self._den_poly is None:
            self._den_poly = _atom_product(
                self.ctx, [a for a, m in self.den for _ in range(m)])
        return self._den_poly

    def den_degree(self) -> int:
        return sum(_atom_degree(a) * m for a, m in self.den)

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ZRat):
            if other.ctx is not self.ctx:
                raise FieldError("mixed field contexts in ZRat arithmetic")
            return other
        if isinstance(other, CycloScalar) or isinstance(other, int) \
                or type(other) is RAT:
            return ZRat.const(self.ctx, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        ctx = self.ctx
        sden = dict(self.den)
        oden = dict(o.den)
        lcm = dict(sden)
        tries = []
        for a, m in o.den:
            mine = lcm.get(a, 0)
            if m == mine:
                tries.append(a)
            elif m > mine:
                lcm[a] = m

        def to_lcm(num, mine):
            # num times the atoms lcm has beyond mine (often none)
            extra = [a for a, m in lcm.items()
                     for _ in range(m - mine.get(a, 0))]
            if not extra:
                return list(num)
            return _zp_mul(ctx, num, _atom_product(ctx, extra))
        num = _zp_add(ctx, to_lcm(self.num, sden), to_lcm(o.num, oden))
        # Only an atom with the same multiplicity in both denominators can
        # cancel: otherwise the sum is, mod that atom, the operand with the
        # higher power times other atoms, and that is nonzero mod the atom.
        return ZRat._make(ctx, num, lcm, tries)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return ZRat(self.ctx, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return ZRat(self.ctx, (), ())
        ctx = self.ctx
        # Each operand is reduced, so an atom of one denominator can cancel
        # only against the other numerator.  Cancel it there, on the smaller
        # factors; the product of the two reduced parts is then reduced.
        a, den = _cancel(ctx, self.num, o.den)
        b, sden = _cancel(ctx, o.num, self.den)
        for atom, m in sden.items():
            den[atom] = den.get(atom, 0) + m
        return ZRat(ctx, tuple(_zp_mul(ctx, a, b)), _den_tuple(den))

    __rmul__ = __mul__

    def inv(self) -> "ZRat":
        if self.is_zero():
            raise ScalarInversionError("inversion of the zero coefficient")
        unit, atoms = atomize(self.ctx, list(self.num))
        num = _zp_scale(self.den_poly(), unit.inv())
        # The old numerator is coprime to the old denominator, which becomes
        # the new numerator, so no atom can cancel.
        return ZRat(self.ctx, tuple(num), _den_tuple(atoms))

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
        result = ZRat.const(self.ctx, 1)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- the dihedral actions and the derivation -------------------------------

    def rotate_n(self, n: int) -> "ZRat":
        """Substitute z -> rho^n z.  Bijective on canonical forms."""
        ctx = self.ctx
        n %= 2 * ctx.k
        if n == 0 or self.is_zero():
            return self
        step = ctx.rho_exp
        den_deg = self.den_degree()
        num = tuple(
            c * ctx.root_power(n * step * (j - den_deg))
            if not c.is_zero() else c
            for j, c in enumerate(self.num)
        )
        den = []
        for atom, mult in self.den:
            if atom == ATOM_Z:
                den.append((atom, mult))
            elif atom[0] == "lin":
                den.append((("lin", (atom[1] - n * step) % ctx.N), mult))
            else:
                den.append((("quad", (atom[1] - 2 * n * step) % ctx.N), mult))
        return ZRat(ctx, num, _den_tuple(dict(den)))

    def reflect(self) -> "ZRat":
        """Substitute z -> 1/z.  Bijective on canonical forms."""
        if self.is_zero():
            return self
        ctx = self.ctx
        dn = len(self.num) - 1
        rev = _zp_trim(list(reversed(self.num)))
        sign = 0
        zexp = 0
        new_atoms: list = []
        z_mult = 0
        for atom, mult in self.den:
            if atom == ATOM_Z:
                z_mult = mult
            elif atom[0] == "lin":
                sign += mult
                zexp += atom[1] * mult
                new_atoms.append((("lin", (-atom[1]) % ctx.N), mult))
            else:
                sign += mult
                zexp += atom[1] * mult
                new_atoms.append((("quad", (-atom[1]) % ctx.N), mult))
        e_shift = z_mult + sum(_atom_degree(a) * m for a, m in new_atoms) - dn
        unit_inv = ctx.root_power(-zexp)
        if sign % 2:
            unit_inv = -unit_inv
        num = _zp_scale(rev, unit_inv)
        den = dict(new_atoms)
        if e_shift >= 0:
            num = _zp_shift(ctx, num, e_shift)
        else:
            den[ATOM_Z] = den.get(ATOM_Z, 0) - e_shift
        return ZRat(ctx, tuple(num), _den_tuple(den))

    def conj(self) -> "ZRat":
        """Scalar conjugation combined with z -> 1/z (adjoint of a multiplier)."""
        if self.is_zero():
            return self
        ctx = self.ctx
        num = tuple(c.conj() for c in self.num)
        den = {(atom if atom == ATOM_Z else (atom[0], (-atom[1]) % ctx.N)): mult
               for atom, mult in self.den}
        sigma = ZRat(ctx, num, _den_tuple(den))
        return sigma.reflect()

    def d_phi(self) -> "ZRat":
        """The derivation d/dphi = i z d/dz."""
        ctx = self.ctx
        if self.is_zero():
            return self
        iz = ctx.imag_unit()
        nprime = _zp_deriv(ctx, list(self.num))
        if not self.den:
            return ZRat._make(
                ctx, _zp_shift(ctx, _zp_scale(nprime, iz), 1), {})
        # f = N / prod a^e :  f' = (N' A - N B) / (A prod a^e)
        # with A = prod over distinct atoms, B = sum_a e_a a' A/a
        # and a' = d z^(d - 1) for an atom z^d - zeta^s or z
        distinct = [a for a, _ in self.den]
        A = _atom_product(ctx, distinct)
        B: list = []
        for a, mult in self.den:
            d = _atom_degree(a)
            other = _atom_product(ctx, [b for b in distinct if b != a])
            part = _zp_shift(ctx, other, d - 1)
            B = _zp_add(ctx, B, _zp_scale(part, ctx.scalar(d * mult)))
        num = _zp_add(ctx, _zp_mul(ctx, nprime, A),
                      _zp_neg(_zp_mul(ctx, list(self.num), B)))
        num = _zp_shift(ctx, _zp_scale(num, iz), 1)
        den = {a: m + 1 for a, m in self.den}
        # Only z can cancel: mod any other atom a the numerator is
        # -i z e_a N a' A/a, a product of factors prime to a.
        return ZRat._make(ctx, num, den, [ATOM_Z] if ATOM_Z in den else [])

    # -- evaluation / comparison ------------------------------------------------

    def eval(self, zval: complex) -> complex:
        ctx = self.ctx
        acc = 0j
        for c in reversed(self.num):
            acc = acc * zval + complex(c)
        den = 1 + 0j
        for atom, mult in self.den:
            if atom == ATOM_Z:
                base = zval
            elif atom[0] == "lin":
                base = zval - ctx.unit_embed(atom[1])
            else:
                base = zval * zval - ctx.unit_embed(atom[1])
            den *= base ** mult
        return acc / den

    def __eq__(self, other):
        if isinstance(other, (int, CycloScalar)) or type(other) is RAT:
            other = ZRat.const(self.ctx, other)
        if not isinstance(other, ZRat):
            return NotImplemented
        return (self.ctx is other.ctx and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.N, self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        num = " + ".join(f"({c!r})z^{j}" for j, c in enumerate(self.num)
                         if not c.is_zero()) or "0"
        if not self.den:
            return num
        den = " ".join(f"{a}^{m}" for a, m in self.den)
        return f"({num}) / [{den}]"


# ---------------------------------------------------------------------------
# trigonometric constructors
# ---------------------------------------------------------------------------

TRIG_KINDS = (
    "tan_shift", "cot_shift", "sec2_shift", "csc2_shift",
    "sec_k", "tan_k", "csc2_k", "sec2_k",
    "half_sum_inv2", "half_diff_inv2",
)


def trig(ctx: FieldCtx, kind: str, j: int = 0) -> ZRat:
    """Exact rational form of a trigonometric coefficient.

    Shifted kinds mean the angle phi + j pi/k; the *_k kinds mean the angle
    k phi; the half_* kinds are 1/(cos(k phi/2) +- sin(k phi/2))^2 and exist
    only for even k.  All are elements of Q(zeta_N)(z) via z = e^{i phi}.
    Results are memoized per context.
    """
    if kind not in TRIG_KINDS:
        raise CoeffError(f"unknown trig kind {kind!r}")
    j = j % (2 * ctx.k) if kind.endswith("_shift") else 0
    key = (kind, j)
    cached = ctx.trig_cache.get(key)
    if cached is not None:
        return cached

    N, k, step = ctx.N, ctx.k, ctx.rho_exp
    one, zero, ii = ctx.one(), ctx.zero(), ctx.imag_unit()

    if kind in ("tan_shift", "cot_shift", "sec2_shift", "csc2_shift"):
        # u = rho^j z;  c = rho^{-2j} = zeta^{-2 j step}
        c = ctx.root_power(-2 * j * step)
        t_plus = (N // 2 - 2 * j * step) % N    # z^2 + c = z^2 - zeta^{t_plus}
        t_minus = (-2 * j * step) % N           # z^2 - c = z^2 - zeta^{t_minus}
        atoms: dict = {}
        if kind == "tan_shift":
            factor_unit_binomial(ctx, 2, t_plus, atoms)
            num = [ii * c, zero, -ii]
        elif kind == "cot_shift":
            factor_unit_binomial(ctx, 2, t_minus, atoms)
            num = [ii * c, zero, ii]
        elif kind == "sec2_shift":
            factor_unit_binomial(ctx, 2, t_plus, atoms, mult=2)
            num = [zero, zero, ctx.scalar(4) * c]
        else:  # csc2_shift
            factor_unit_binomial(ctx, 2, t_minus, atoms, mult=2)
            num = [zero, zero, ctx.scalar(-4) * c]
        out = ZRat._make(ctx, num, atoms)
    elif kind in ("sec_k", "tan_k", "sec2_k", "csc2_k"):
        atoms = {}
        if kind == "csc2_k":
            factor_unit_binomial(ctx, 2 * k, 0, atoms, mult=2)
            num = [zero] * (2 * k) + [ctx.scalar(-4)]
        elif kind == "sec2_k":
            factor_unit_binomial(ctx, 2 * k, N // 2, atoms, mult=2)
            num = [zero] * (2 * k) + [ctx.scalar(4)]
        elif kind == "sec_k":
            factor_unit_binomial(ctx, 2 * k, N // 2, atoms)
            num = [zero] * k + [ctx.scalar(2)]
        else:  # tan_k = -i (z^{2k}-1)/(z^{2k}+1)
            factor_unit_binomial(ctx, 2 * k, N // 2, atoms)
            num = [ii] + [zero] * (2 * k - 1) + [-ii]
        out = ZRat._make(ctx, num, atoms)
    else:
        # half-angle inverse squares, even k only:
        #   1/(cos + sin)^2 = 1/(1 + sin k phi) =  2i z^k / (z^k + i)^2
        #   1/(cos - sin)^2 = 1/(1 - sin k phi) = -2i z^k / (z^k - i)^2
        if k % 2:
            raise CoeffError(f"{kind} requires even k, got k={k}")
        atoms = {}
        if kind == "half_sum_inv2":
            factor_unit_binomial(ctx, k, 3 * N // 4, atoms, mult=2)  # z^k + i
            num = [zero] * k + [ctx.scalar(2) * ii]
        else:
            factor_unit_binomial(ctx, k, N // 4, atoms, mult=2)      # z^k - i
            num = [zero] * k + [ctx.scalar(-2) * ii]
        out = ZRat._make(ctx, num, atoms)

    ctx.trig_cache[key] = out
    return out


def cot_k(ctx: FieldCtx) -> ZRat:
    """cot(k phi), derived by inverting tan_k (numerator is atomizable)."""
    key = ("cot_k", 0)
    cached = ctx.trig_cache.get(key)
    if cached is None:
        cached = trig(ctx, "tan_k").inv()
        ctx.trig_cache[key] = cached
    return cached


# ---------------------------------------------------------------------------
# Coefficient: polynomial in r (Laurent), a, b, w2 over ZRat
# ---------------------------------------------------------------------------


class Coefficient:
    """Operator coefficient c(r, phi; a, b, w2).

    Immutable mapping (m, alpha, beta, gamma) -> ZRat.  The builders only ever
    need alpha, beta <= 2 and gamma <= 1; that is a property of the built
    operators (checked in tests), not an enforced bound.
    """

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: FieldCtx, terms: dict):
        self.ctx = ctx
        self.terms = terms
        self._hash = None

    @staticmethod
    def make(ctx: FieldCtx, terms: dict) -> "Coefficient":
        return Coefficient(ctx, {key: zr for key, zr in terms.items()
                                 if not zr.is_zero()})

    @staticmethod
    def zero(ctx: FieldCtx) -> "Coefficient":
        return Coefficient(ctx, {})

    @staticmethod
    def one(ctx: FieldCtx) -> "Coefficient":
        return Coefficient(ctx, {(0, 0, 0, 0): ZRat.const(ctx, 1)})

    @staticmethod
    def monomial(ctx: FieldCtx, zr=None, m: int = 0, a: int = 0, b: int = 0,
                 w2: int = 0) -> "Coefficient":
        if zr is None:
            zr = ZRat.const(ctx, 1)
        elif not isinstance(zr, ZRat):
            zr = ZRat.const(ctx, zr)
        if zr.is_zero():
            return Coefficient(ctx, {})
        return Coefficient(ctx, {(m, a, b, w2): zr})

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def degrees(self) -> dict:
        """Max exponents appearing, for the structural bound checks."""
        out = {"m_min": 0, "m_max": 0, "a": 0, "b": 0, "w2": 0}
        for (m, a, b, g) in self.terms:
            out["m_min"] = min(out["m_min"], m)
            out["m_max"] = max(out["m_max"], m)
            out["a"] = max(out["a"], a)
            out["b"] = max(out["b"], b)
            out["w2"] = max(out["w2"], g)
        return out

    # -- ring operations ---------------------------------------------------------

    def _coerce_scalarish(self, other):
        if isinstance(other, Coefficient):
            if other.ctx is not self.ctx:
                raise FieldError("mixed field contexts in coefficients")
            return other
        if isinstance(other, ZRat):
            return Coefficient.monomial(self.ctx, other)
        if isinstance(other, CycloScalar) or isinstance(other, int) \
                or type(other) is RAT:
            return Coefficient.monomial(self.ctx, ZRat.const(self.ctx, other))
        return None

    def __add__(self, other):
        o = self._coerce_scalarish(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, zr in o.terms.items():
            cur = out.get(key)
            tot = zr if cur is None else cur + zr
            if tot.is_zero():
                out.pop(key, None)
            else:
                out[key] = tot
        return Coefficient(self.ctx, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_scalarish(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __neg__(self):
        return Coefficient(self.ctx, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce_scalarish(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for (m1, a1, b1, g1), z1 in self.terms.items():
            for (m2, a2, b2, g2), z2 in o.terms.items():
                key = (m1 + m2, a1 + a2, b1 + b2, g1 + g2)
                prod = z1 * z2
                cur = out.get(key)
                tot = prod if cur is None else cur + prod
                if tot.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = tot
        return Coefficient(self.ctx, out)

    __rmul__ = __mul__

    # -- actions ----------------------------------------------------------------

    def d_r(self) -> "Coefficient":
        out = {}
        for (m, a, b, g), zr in self.terms.items():
            if m != 0:
                out[(m - 1, a, b, g)] = zr * self.ctx.scalar(m)
        return Coefficient(self.ctx, out)

    def d_phi(self) -> "Coefficient":
        out = {}
        for key, zr in self.terms.items():
            d = zr.d_phi()
            if not d.is_zero():
                out[key] = d
        return Coefficient(self.ctx, out)

    def rotate_n(self, n: int) -> "Coefficient":
        n %= 2 * self.ctx.k
        if n == 0:
            return self
        return Coefficient(self.ctx, {key: zr.rotate_n(n)
                                      for key, zr in self.terms.items()})

    def reflect(self) -> "Coefficient":
        return Coefficient(self.ctx, {key: zr.reflect()
                                      for key, zr in self.terms.items()})

    def conj(self) -> "Coefficient":
        return Coefficient(self.ctx, {key: zr.conj()
                                      for key, zr in self.terms.items()})

    # -- comparison ----------------------------------------------------------------

    def _canon(self):
        return tuple(sorted(self.terms.items(),
                            key=lambda kv: kv[0]))

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            o = self._coerce_scalarish(other)
            if o is None:
                return NotImplemented
            other = o
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.N, self._canon()))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "0"
        bits = []
        for (m, a, b, g), zr in self.items():
            tags = []
            if m:
                tags.append(f"r^{m}")
            if a:
                tags.append(f"a^{a}")
            if b:
                tags.append(f"b^{b}")
            if g:
                tags.append(f"w2^{g}")
            bits.append(f"[{zr!r}]" + ("*" + "*".join(tags) if tags else ""))
        return " + ".join(bits)


def _sum_coefficients(ctx: FieldCtx, parts: list) -> Coefficient:
    """Balanced pairwise sum (keeps transient denominators shallow)."""
    if not parts:
        return Coefficient.zero(ctx)
    work = list(parts)
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            nxt.append(work[i] + work[i + 1])
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]
