"""Coefficient ring: rational functions of the angle, and operator coefficients.

Angle-dependent coefficients live in Q(zeta_N)(z) with z = e^{i phi}.  A
``ZRat`` keeps a dense polynomial numerator and a *factored* denominator whose
factors ("atoms") are z, z - zeta^s, or the irreducible z^2 - zeta^s (s odd);
``_monic_atoms`` splits a monic polynomial into such atoms by trial
division, and ``trig`` reads the atoms of each closed form in its table off
the roots of the table's denominator.  Keeping them factored lets reduction
proceed by exact trial division instead of polynomial gcd.  The canonical
form of a nonzero f is num/den with den the monic product of the atoms and
gcd(num, den) = 1, that is, no atom of den divides num; zero is ()/1.  Every
operation returns this form, and equality is literal equality of the
canonical data.

The atoms are pairwise coprime irreducibles and the operands are canonical, so
most trial divisions can be shown in advance to fail and are not made (as in
Henrici's rational arithmetic, Knuth TAOCP 2, 4.5.1).  Each operation tries:

    a + b        the atoms with the same multiplicity in both denominators
    accumulated  every product, of two ``ZRat`` as of coefficients and
                 operators, and ``Coefficient`` and operator sums go
                 through the accumulator at the end of this module: it
                 files each bare numerator product under the sum of the
                 two denominators, and tries every atom once per group
                 that holds more than one part or such a product; none
                 when either factor is a constant (see below)
    d_phi        only z (every other atom is prime to the new
                 numerator); nothing for a constant, whose d_phi is 0
    inv          none
    x ** n       none beyond inv (num^n / den^n is canonical)
    rotate_n, reflect, conj, neg   none (they map canonical forms to
                 canonical forms); rotate_n and reflect return a constant
                 unchanged, and conj keeps the atoms

A constant (no denominator, at most one numerator row) does not depend on
phi.  A nonzero constant is a unit, so a product with one is already
canonical: the rows are scaled (times a rational) or multiplied by the
constant's row (``FieldCtx.mul_rows``), the denominator is kept, and x * 1
is x itself.

The numerator ``num`` is a tuple of coordinate rows, one per power of z and
no trailing zero row; each row is the ``canon_row`` of a scalar's power-basis
coordinates.  The kernels take and return rows; a ``CycloScalar`` is built
only at the boundary, where a field inverse or an outside reader needs one
(conjugation maps each row through ``FieldCtx.galois_row``).  Operands are
sparse, so a product convolves only nonzero coordinates, into one unreduced
row of zeta-powers per output power of z, and reduces each row modulo Phi_N
once.  Trial division by z^d - zeta^s lifts the
rows into Z[x]/(x^N - 1), where multiplying by zeta^s is a cyclic shift of the
row by s; it reduces modulo Phi_N only the remainder, to test exactness, and
the quotient only when the division is exact.  A product of atoms (the cofactor
that brings a summand to the common denominator, a dense denominator, the
products in d_phi) needs no convolution either: each factor z^d - zeta^s
shifts the rows by d and subtracts the rows times zeta^s, read from the
reduced power table, so the rows stay reduced integer rows throughout.  The
same zeta^m * row product multiplies by the units of rotate_n, reflect and
d_phi.  The d_phi of N / prod a^e needs B = sum_a e_a a' A/a with A the
product of the distinct atoms; it is formed one multiplicity level at a
time, as e A_e' A/A_e with A_e the atoms at level e (the logarithmic
derivative), so on one level, as in every trig constructor, B is e A' and
A is the only atom product made.

A ``Coefficient`` is a polynomial in the radial variable r (integer, possibly
negative, powers), the two reflection multiplicities a and b, and the squared
oscillator frequency w2, with ZRat values:

    terms : (m, alpha, beta, gamma) -> ZRat     # r^m a^alpha b^beta w2^gamma

``ZRat`` is a ``FieldElement`` and ``Coefficient`` a ``TermMap``: each gives
its sum and product and lifts a value of the level below (``ZRat.const`` a
scalar, ``Coefficient.monomial`` anything that lifts to a ``ZRat``); the
operators, the context check, and for a ``Coefficient`` the term dict, come
from the bases.

The dihedral actions and the angular derivation are methods on both levels:

    f.d_phi()     = i z f'(z)          (d/dphi through z = e^{i phi})
    f.rotate_n(n) = f(rho^n z)         (phi -> phi + n pi/k)
    f.reflect()   = f(1/z)             (phi -> -phi)
    f.conj()      = scalar conjugation together with z -> 1/z
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .cyclofield import (CycloScalar, FieldCtx, FieldElement, TermMap,
                         binary_power, canon_row)
from .errors import CoeffError, ScalarInversionError

# ---------------------------------------------------------------------------
# dense polynomials over coordinate rows (low degree first, no trailing zeros)
# ---------------------------------------------------------------------------


def _zp_trim(p: list) -> list:
    while p and not any(p[-1]):
        p.pop()
    return p


def _zp_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, row in enumerate(b):
        out[i] = canon_row([x + y for x, y in zip(out[i], row)])
    return _zp_trim(out)


def _zp_neg(p: list) -> list:
    return [tuple(-v for v in row) for row in p]


def _nonzero_rows(p) -> list:
    """(z-power, [(zeta-power, coordinate), ...]) for each nonzero row."""
    out = []
    for i, row in enumerate(p):
        row = [(t, v) for t, v in enumerate(row) if v]
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
    zero = (0,) * ctx.deg
    return _zp_trim([zero if row is None else canon_row(ctx.reduce_row(row))
                     for row in rows])


def _zp_shift(ctx: FieldCtx, p: list, m: int) -> list:
    """Multiply by z^m, m >= 0."""
    if not p:
        return []
    return [(0,) * ctx.deg] * m + list(p)


def _zp_deriv(p: list) -> list:
    return _zp_trim([canon_row([j * v for v in p[j]])
                     for j in range(1, len(p))])


def _add_zeta_times(ctx: FieldCtx, out: list, m: int, row) -> list:
    """out += zeta^m * row, read from the reduced power table; returns out."""
    N, sparse = ctx.N, ctx._sparse_powers
    for t, v in enumerate(row):
        if v:
            for i, c in sparse[(m + t) % N]:
                out[i] += v * c
    return out


def _zeta_times(ctx: FieldCtx, m: int, row) -> tuple:
    """zeta^m * row, as a canonical row."""
    return canon_row(_add_zeta_times(ctx, [0] * ctx.deg, m, row))


# ---------------------------------------------------------------------------
# denominator atoms
# ---------------------------------------------------------------------------
# atom encodings:   ("z",)        the monomial z
#                   ("lin", s)    z - zeta^s
#                   ("quad", s)   z^2 - zeta^s, s odd (irreducible over the field)

ATOM_Z = ("z",)


def _atom_degree(atom) -> int:
    return 2 if atom[0] == "quad" else 1


def _atom_product(ctx: FieldCtx, atoms) -> list:
    """The dense product of ``atoms``, an atom repeated for each power."""
    deg = ctx.deg
    rows = [[1] + [0] * (deg - 1)]
    for atom in atoms:
        if atom == ATOM_Z:
            rows.insert(0, [0] * deg)
            continue
        # times z^d - zeta^s: out[j] = rows[j - d] + zeta^(s + N/2) rows[j].
        # out shares the rows it shifts, and row j is read before out[j + d],
        # which is the same list, is written.
        minus = atom[1] + ctx.N // 2
        out = [[0] * deg for _ in range(_atom_degree(atom))] + rows
        for row, acc in zip(rows, out):
            _add_zeta_times(ctx, acc, minus, row)
        rows = out
    return [tuple(row) for row in rows]


def _divmod_atom(ctx: FieldCtx, poly: list, atom):
    """Quotient of poly by the atom, or None if the division is inexact."""
    if not poly:
        return []
    if atom == ATOM_Z:
        if not any(poly[0]):
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
            row = list(poly[j]) + pad
        else:
            prev = lifted[j + d]
            row = prev[cut:] + prev[:cut]
            for t, v in enumerate(poly[j]):
                if v:
                    row[t] += v
        lifted[j] = row
    for j in range(d):
        if any(ctx.reduce_row(lifted[j])):
            return None
    return [canon_row(ctx.reduce_row(row)) for row in lifted[d:]]


def _monic_atoms(ctx: FieldCtx, work: list) -> dict:
    """The atom multiplicities of a monic polynomial; raise CoeffError if it
    is not a product of atoms."""
    atoms: dict = {}
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
    return atoms


def _pair_sort_key(pair):
    """z first, then the linear atoms, then the quadratic ones, each by s."""
    atom = pair[0]
    return (0, 0) if atom == ATOM_Z else (_atom_degree(atom), atom[1])


def _den_tuple(den: dict) -> tuple:
    """The canonical denominator: (atom, multiplicity) pairs in atom order."""
    pairs = [(a, m) for a, m in den.items() if m > 0]
    if len(pairs) > 1:
        pairs.sort(key=_pair_sort_key)
    return tuple(pairs)


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


class ZRat(FieldElement):
    """A rational function of z over Q(zeta_N), in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, ctx: FieldCtx, num: tuple, den: tuple):
        self.ctx = ctx
        self.num = num
        self.den = den
        self._hash = None

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
    def const(ctx: FieldCtx, value) -> "ZRat":
        c = CycloScalar._lift(ctx, value).coeffs
        return ZRat(ctx, (c,) if any(c) else (), ())

    _embed = const

    def _unembed(self):
        if not self.is_const():
            return None
        return CycloScalar(self.ctx, self.num[0]) if self.num else 0

    @staticmethod
    def z_power(ctx: FieldCtx, m: int) -> "ZRat":
        one = ctx.one().coeffs
        if m >= 0:
            return ZRat(ctx, ((0,) * ctx.deg,) * m + (one,), ())
        return ZRat(ctx, (one,), ((ATOM_Z, -m),))

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def _data(self) -> tuple:
        return self.num, self.den

    def is_const(self) -> bool:
        """True if f does not depend on phi (zero included)."""
        return not self.den and len(self.num) < 2

    def den_degree(self) -> int:
        return sum(_atom_degree(a) * m for a, m in self.den)

    # -- ring operations --------------------------------------------------------

    def _add(self, o):
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
        num = _zp_add(to_lcm(self.num, sden), to_lcm(o.num, oden))
        # Only an atom with the same multiplicity in both denominators can
        # cancel: otherwise the sum is, mod that atom, the operand with the
        # higher power times other atoms, and that is nonzero mod the atom.
        return ZRat._make(ctx, num, lcm, tries)

    def __neg__(self):
        return ZRat(self.ctx, tuple(_zp_neg(self.num)), self.den)

    def _is_one(self) -> bool:
        return not self.den and self.num == (self.ctx.one().coeffs,)

    def _mul(self, o):
        if self.is_zero() or o._is_one():
            return self
        if o.is_zero() or self._is_one():
            return o
        # a one-slot multiply-accumulate, reduced as every other product is
        monos: dict = {}
        _deposit_product(self.ctx, monos, (), self, o, 1)
        return _settle_dens(self.ctx, monos[()])

    def inv(self) -> "ZRat":
        if self.is_zero():
            raise ScalarInversionError("inversion of the zero coefficient")
        ctx = self.ctx
        # num = unit * product(atoms), with one inversion of the unit.
        unit_inv = [CycloScalar(ctx, self.num[-1]).inv().coeffs]
        atoms = _monic_atoms(ctx, _zp_mul(ctx, self.num, unit_inv))
        den = _atom_product(ctx, [a for a, m in self.den for _ in range(m)])
        num = _zp_mul(ctx, den, unit_inv)
        # The old numerator is coprime to the old denominator, which becomes
        # the new numerator, so no atom can cancel.
        return ZRat(ctx, tuple(num), _den_tuple(atoms))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inv()
        n = abs(n)
        # No atom of a canonical denominator divides the numerator, so none
        # divides its power: num^n / den^n is canonical with no trial division.
        num = binary_power(ZRat(self.ctx, base.num, ()), n,
                           ZRat.const(self.ctx, 1)).num
        return ZRat(self.ctx, num, _den_tuple({a: m * n for a, m in base.den}))

    # -- the dihedral actions and the derivation -------------------------------

    def rotate_n(self, n: int) -> "ZRat":
        """Substitute z -> rho^n z.  Bijective on canonical forms."""
        ctx = self.ctx
        n %= 2 * ctx.k
        if n == 0 or self.is_const():
            return self
        turn = n * ctx.rho_exp
        den_deg = self.den_degree()
        num = tuple(_zeta_times(ctx, turn * (j - den_deg), row)
                    for j, row in enumerate(self.num))
        den = {atom if atom == ATOM_Z else
               (atom[0], (atom[1] - _atom_degree(atom) * turn) % ctx.N): mult
               for atom, mult in self.den}
        return ZRat(ctx, num, _den_tuple(den))

    def reflect(self) -> "ZRat":
        """Substitute z -> 1/z.  Bijective on canonical forms."""
        if self.is_const():
            return self
        return self._at_inverse_z(self.num, -1)

    def conj(self) -> "ZRat":
        """Scalar conjugation combined with z -> 1/z (adjoint of a multiplier)."""
        ctx = self.ctx
        return self._at_inverse_z(
            [canon_row(ctx.galois_row(-1, row)) for row in self.num], 1)

    def _at_inverse_z(self, rows, flip: int) -> "ZRat":
        """(rows / den)(1/z), rows this numerator (flip = -1) or its Galois
        conjugate (flip = 1).  The conjugate's denominator is den with each
        atom s relabelled -s, and z -> 1/z relabels it back, so each atom s
        of den becomes flip * s in one relabelling."""
        ctx = self.ctx
        # z^d - zeta^s at 1/z is -zeta^s z^-d (z^d - zeta^-s)
        sign = zexp = 0
        den = {}
        for atom, mult in self.den:
            if atom != ATOM_Z:
                sign += mult
                zexp += atom[1] * mult
                den[atom[0], (flip * atom[1]) % ctx.N] = mult
        # times the unit (-1)^sign zeta^(flip zexp), with -1 = zeta^(N/2)
        unit = flip * zexp + (ctx.N // 2 if sign % 2 else 0)
        num = [_zeta_times(ctx, unit, row)
               for row in _zp_trim(list(reversed(rows)))]
        e_shift = self.den_degree() - (len(rows) - 1)
        if e_shift >= 0:
            num = _zp_shift(ctx, num, e_shift)
        else:
            den[ATOM_Z] = -e_shift
        return ZRat(ctx, tuple(num), _den_tuple(den))

    def d_phi(self) -> "ZRat":
        """The derivation d/dphi = i z d/dz."""
        ctx = self.ctx
        if self.is_const():
            return ZRat(ctx, (), ())
        num = _zp_deriv(list(self.num))
        if self.den:
            # f = N / prod a^e :  f' = (N' A - N B) / (A prod a^e)
            # with A = prod over distinct atoms and B = sum_a e_a a' A/a.
            # Grouped by multiplicity, with A_e the atoms at level e, the
            # atoms of one level sum to A_e' A/A_e (the logarithmic
            # derivative), so B = sum_e e A_e' A/A_e: e A' on one level.
            levels: dict = {}
            for a, mult in self.den:
                levels.setdefault(mult, []).append(a)
            A = _atom_product(ctx, [a for a, _ in self.den])
            B: list = []
            for mult, atoms in levels.items():
                if len(levels) == 1:
                    part = _zp_deriv(A)
                else:
                    part = _zp_mul(ctx, _zp_deriv(_atom_product(ctx, atoms)),
                                   _atom_product(ctx, [a for a, m in self.den
                                                       if m != mult]))
                B = _zp_add(B, [tuple(mult * v for v in row)
                                for row in part])
            num = _zp_add(_zp_mul(ctx, num, A),
                          _zp_neg(_zp_mul(ctx, list(self.num), B)))
        # times i z, with i = zeta^(N/4)
        num = _zp_shift(ctx, [_zeta_times(ctx, ctx.N // 4, row)
                              for row in num], 1)
        den = {a: m + 1 for a, m in self.den}
        # Only z can cancel: mod any other atom a the numerator is
        # -i z e_a N a' A/a, a product of factors prime to a.
        return ZRat._make(ctx, num, den, [ATOM_Z] if ATOM_Z in den else [])

    def __repr__(self) -> str:
        from .exprparse import pretty_zrat
        return f"ZRat({pretty_zrat(self)})"


# ---------------------------------------------------------------------------
# trigonometric constructors
# ---------------------------------------------------------------------------

# kind: (angle, numerator, monic denominator), two coprime polynomials in
# w = e^{i angle}, low degree first, with Gaussian-integer coefficients.  The
# angle is phi (w = z) or k phi (w = z^k).
_TRIG_TABLE = {
    "tan_shift": ("phi", (1j, 0, -1j), (1, 0, 1)),        # -i(w^2-1)/(w^2+1)
    "cot_shift": ("phi", (1j, 0, 1j), (-1, 0, 1)),        #  i(w^2+1)/(w^2-1)
    "sec2_shift": ("phi", (0, 0, 4), (1, 0, 2, 0, 1)),    #  4w^2/(w^2+1)^2
    "csc2_shift": ("phi", (0, 0, -4), (1, 0, -2, 0, 1)),  # -4w^2/(w^2-1)^2
    "sec_k": ("k phi", (0, 2), (1, 0, 1)),                #  2w/(w^2+1)
    "tan_k": ("k phi", (1j, 0, -1j), (1, 0, 1)),
    "cot_k": ("k phi", (1j, 0, 1j), (-1, 0, 1)),
    "csc2_k": ("k phi", (0, 0, -4), (1, 0, -2, 0, 1)),
    "sec2_k": ("k phi", (0, 0, 4), (1, 0, 2, 0, 1)),
    # 1/(cos(k phi/2) +- sin(k phi/2))^2 = 1/(1 +- sin k phi) = +-2iw/(w +- i)^2
    "half_sum_inv2": ("k phi", (0, 2j), (-1, 2j, 1)),
    "half_diff_inv2": ("k phi", (0, -2j), (-1, -2j, 1)),
}
TRIG_KINDS = tuple(_TRIG_TABLE)


def _w_rows(ctx: FieldCtx, poly: tuple, w: int) -> list:
    """The rows of a polynomial in z^w with Gaussian-integer coefficients."""
    one, ii = ctx.one().coeffs, ctx.imag_unit().coeffs
    rows = [ctx.zero().coeffs] * (w * (len(poly) - 1) + 1)
    for m, c in enumerate(poly):
        re, im = int(c.real), int(c.imag)
        rows[w * m] = canon_row([re * x + im * y for x, y in zip(one, ii)])
    return rows


def _table_atoms(ctx: FieldCtx, den: tuple, w: int) -> dict:
    """The atom multiplicities of den(z^w), den a table row's monic
    denominator, read off the roots of den in w; den(z^w) is never divided.
    z - zeta^s has the multiplicity of zeta^(w s) as a root of den (z -> z^w
    keeps multiplicities away from 0), and z^2 - zeta^s, s odd, that of
    zeta^(w s / 2) for even w; for odd w no root of it has its w-th power
    in the field.  The degrees add up only if these atoms are all of
    den(z^w)."""
    roots = _monic_atoms(ctx, _w_rows(ctx, den, 1))
    N = ctx.N
    atoms = {("lin", s): roots.get(("lin", w * s % N)) for s in range(N)}
    if w % 2 == 0:
        atoms.update({("quad", s): roots.get(("lin", w // 2 * s % N))
                      for s in range(1, N, 2)})
    atoms = {atom: m for atom, m in atoms.items() if m}
    if sum(_atom_degree(a) * m for a, m in atoms.items()) != w * (len(den) - 1):
        raise CoeffError(
            "polynomial does not factor into the cyclotomic atom set"
        )
    return atoms


def trig(ctx: FieldCtx, kind: str, j: int = 0) -> ZRat:
    """Exact rational form of a trigonometric coefficient.

    Shifted kinds mean the angle phi + j pi/k, the rotation R^j of the kind
    at phi; each has period pi, so j counts mod k.  The *_k kinds mean the
    angle k phi and ignore j; the half_* kinds are
    1/(cos(k phi/2) +- sin(k phi/2))^2 and exist only for even k.  Each is
    built from its row of ``_TRIG_TABLE``, as an element of Q(zeta_N)(z)
    with z = e^{i phi}.  Results are memoized per context.

    >>> from .cyclofield import ctx_new
    >>> ctx = ctx_new(3)
    >>> trig(ctx, "tan_shift", 4) is trig(ctx, "tan_shift", 1)
    True
    """
    if kind not in _TRIG_TABLE:
        raise CoeffError(f"unknown trig kind {kind!r}")
    angle, num, den = _TRIG_TABLE[kind]
    j = j % ctx.k if angle == "phi" else 0
    key = (kind, j)
    cached = ctx.trig_cache.get(key)
    if cached is not None:
        return cached
    if j:
        out = trig(ctx, kind, 0).rotate_n(j)
    else:
        if kind.startswith("half_") and ctx.k % 2:
            raise CoeffError(f"{kind} requires even k, got k={ctx.k}")
        w = 1 if angle == "phi" else ctx.k
        # coprime in w, num and den are coprime in z: no atom cancels
        out = ZRat(ctx, tuple(_w_rows(ctx, num, w)),
                   _den_tuple(_table_atoms(ctx, den, w)))
    ctx.trig_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Coefficient: polynomial in r (Laurent), a, b, w2 over ZRat
# ---------------------------------------------------------------------------


class Coefficient(TermMap):
    """Operator coefficient c(r, phi; a, b, w2).

    Immutable mapping (m, alpha, beta, gamma) -> ZRat.  The builders only ever
    need alpha, beta <= 2 and gamma <= 1; that is a property of the built
    operators (checked in tests), not an enforced bound.
    """

    __slots__ = ()

    @staticmethod
    def one(ctx: FieldCtx) -> "Coefficient":
        return Coefficient(ctx, {(0, 0, 0, 0): ZRat.const(ctx, 1)})

    @staticmethod
    def monomial(ctx: FieldCtx, zr=1, m: int = 0, a: int = 0, b: int = 0,
                 w2: int = 0) -> "Coefficient":
        """zr r^m a^a b^b w2^w2, for zr anything that lifts to a ZRat."""
        zr = ZRat._lift(ctx, zr)
        return Coefficient(ctx, {(m, a, b, w2): zr} if zr.num else {})

    _embed = monomial

    # -- ring operations ---------------------------------------------------------

    def _add(self, o):
        return _settle_monos(self.ctx, _deposit_coefficient(
            _deposit_coefficient({}, self), o))

    def _mul(self, o):
        return _settle_monos(self.ctx, _deposit_products(
            self.ctx, {}, self.terms, o.terms, 1))

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

    def is_const(self) -> bool:
        """True if no term depends on phi."""
        return all(zr.is_const() for zr in self.terms.values())

    def rotate_n(self, n: int) -> "Coefficient":
        n %= 2 * self.ctx.k
        if n == 0 or self.is_const():
            return self
        return Coefficient(self.ctx, {key: zr.rotate_n(n)
                                      for key, zr in self.terms.items()})

    def reflect(self) -> "Coefficient":
        if self.is_const():
            return self
        return Coefficient(self.ctx, {key: zr.reflect()
                                      for key, zr in self.terms.items()})

    def conj(self) -> "Coefficient":
        return Coefficient(self.ctx, {key: zr.conj()
                                      for key, zr in self.terms.items()})

    def __repr__(self) -> str:
        from .exprparse import pretty_coefficient
        return f"Coefficient({pretty_coefficient(self)})"


# ---------------------------------------------------------------------------
# sums of products: one multiply-accumulate
# ---------------------------------------------------------------------------
# Every product of two ``ZRat``, and every sum and product of coefficients
# and of operators in ``opalgebra``, goes through an accumulator: a dict
#     (m, alpha, beta, gamma) -> denominator -> [rows, cancel]
# of the summed numerator rows of the parts deposited there.  ``rows`` is the
# first part's tuple of canonical rows until a second part arrives, then
# lists that each further part is added into.  A constant factor is a unit,
# folded with the part's integer factor into the add; a part of two
# non-constant factors is the bare product of their numerators, filed under
# the sum of their denominators.  ``cancel`` marks a slot that holds more
# than one part or such a product; ``_settle_dens`` reduces only those, by
# all their atoms, before it adds the distinct denominators.  The canonical
# form is unique, so the result depends neither on the order of the parts
# nor on the denominator a part is filed under.


def _deposit(ctx: FieldCtx, monos: dict, mono: tuple, den: tuple, rows,
             c, unit=None, cancel: bool = False) -> None:
    """monos[mono][den] += c * unit * rows, for nonzero canonical rows, a
    nonzero rational c and a field-unit row ``unit`` (None for 1)."""
    if unit is not None:
        unit = [c * v for v in unit]
        rows, c = [ctx.mul_rows(row, unit) for row in rows], 1
    dens = monos.get(mono)
    if dens is None:
        dens = monos[mono] = {}
    slot = dens.get(den)
    if slot is None:
        if c != 1:
            rows = [[c * v for v in row] for row in rows]
        dens[den] = [rows, cancel]
        return
    acc = slot[0]
    if type(acc) is tuple:
        acc = slot[0] = [list(row) for row in acc]
    slot[1] = True
    for _ in range(len(rows) - len(acc)):
        acc.append([0] * ctx.deg)
    for out, row in zip(acc, rows):
        for t, v in enumerate(row):
            if v:
                out[t] += c * v


def _deposit_coefficient(monos: dict, c: Coefficient, weight=1) -> dict:
    """monos += weight * c, for a nonzero rational weight."""
    for mono, zr in c.terms.items():
        _deposit(c.ctx, monos, mono, zr.den, zr.num, weight)
    return monos


def _deposit_product(ctx: FieldCtx, monos: dict, mono: tuple, z1: ZRat,
                     z2: ZRat, factor) -> None:
    """monos[mono] += factor * z1 * z2, for nonzero canonical z1 and z2."""
    if z2.is_const():
        unit, zr = z2.num[0], z1
    elif z1.is_const():
        unit, zr = z1.num[0], z2
    else:
        den = dict(z1.den)
        for atom, m in z2.den:
            den[atom] = den.get(atom, 0) + m
        _deposit(ctx, monos, mono, _den_tuple(den),
                 tuple(_zp_mul(ctx, z1.num, z2.num)), factor, cancel=True)
        return
    if any(unit[1:]):
        _deposit(ctx, monos, mono, zr.den, zr.num, factor, unit)
    else:
        c = unit[0] * factor
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        _deposit(ctx, monos, mono, zr.den, zr.num, c)


def _deposit_products(ctx: FieldCtx, monos: dict, terms1: dict,
                      terms2: dict, factor) -> dict:
    """monos += factor * c1 * c2 for the coefficients with these terms."""
    for (m1, a1, b1, g1), z1 in terms1.items():
        for (m2, a2, b2, g2), z2 in terms2.items():
            _deposit_product(ctx, monos, (m1 + m2, a1 + a2, b1 + b2, g1 + g2),
                             z1, z2, factor)
    return monos


def _pairwise_sum(parts: list):
    """Balanced pairwise sum (keeps transient denominators shallow)."""
    while len(parts) > 1:
        nxt = [parts[i] + parts[i + 1] for i in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def _settle_dens(ctx: FieldCtx, dens: dict) -> ZRat:
    """The sum one monomial's slots hold, in canonical form; the distinct
    denominators are added by ``ZRat.__add__``."""
    subtotals = []
    for den, (rows, cancel) in dens.items():
        if type(rows) is not tuple:
            rows = tuple(map(canon_row, rows))
        # a lone unit multiple of a canonical part is canonical
        zr = (ZRat._make(ctx, rows, dict(den)) if cancel
              else ZRat(ctx, rows, den))
        if zr.num:
            subtotals.append(zr)
    return _pairwise_sum(subtotals) if subtotals else ZRat(ctx, (), ())


def _settle_monos(ctx: FieldCtx, monos: dict) -> Coefficient:
    """The coefficient an accumulator holds, in canonical form."""
    terms = {}
    for mono, dens in monos.items():
        total = _settle_dens(ctx, dens)
        if total.num:
            terms[mono] = total
    return Coefficient(ctx, terms)
