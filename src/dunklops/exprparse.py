"""Textual operator expressions: parse to OpExpr and pretty-print back.

Grammar (whitespace-insensitive, explicit '*', no juxtaposition):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ['^' ['-'] INT]
    atom    := INT ['/' INT]
             | 'a' | 'b' | 'w2' | 'r' | 'z' | 'zeta' | 'i'
             | 'dr' | 'dphi' | 'R' | 'I' | 'S'
             | TRIG '(' 'phi' [('+' | '-') INT '*' 'pi' '/' 'k'] ')'
             | '(' expr ')'
    TRIG    := 'tan' | 'cot' | 'sec2' | 'csc2' | 'seck' | 'tank'

'z' is e^{i phi}, 'zeta' the primitive N-th root of unity of the field
context, 'i' the imaginary unit.  Trig sugar elaborates immediately to the
exact rational function of z: tan/cot/sec2/csc2 take an optional shift
(phi + j*pi/k), seck and tank abbreviate 1/cos(k phi) and tan(k phi) and
take a bare phi.  Negative powers are allowed for r, z, zeta and for any
parenthesized group whose value is an invertible multiplication operator;
generator powers must be nonnegative (R^n is reduced mod 2k).  Parentheses
nest at most MAX_GROUP_DEPTH (200) deep, an exponent is at most
MAX_EXPONENT (1024) in size, and an expression whose orders P in dr and Q in
dphi could reach more than MAX_DERIVATIVE_TERMS (1025) terms, (P + 1)(Q + 1),
is refused before it is expanded.  An integer literal longer than the
interpreter's conversion limit (``sys.get_int_max_str_digits()``) is a parse
error too.  Syntax and elaboration errors carry the offending position.

``pretty`` emits canonically ordered text that re-parses to an equal
OpExpr; it never uses the trig sugar, only exact z-rational coefficients.

>>> from dunklops.builders import build_Dr, build_Dphi, build_S
>>> ctx = ctx_new(3)
>>> elaborate(parse("dr - r^-1*(a*R + b)*(1 + R^2 + R^4)*I"), ctx) == build_Dr(3)
True
>>> parse_op("I*I", ctx) == op_one(ctx)
True
>>> parse_op("tan(phi + 2*pi/k)", ctx) == op_coeff(ctx, trig(ctx, "tan_shift", 2))
True
>>> pretty(build_S(4))
'1 + R^4'
>>> parse_op(pretty(build_Dphi(2)), ctx_new(2)) == build_Dphi(2)
True
"""

from __future__ import annotations

import re
from fractions import Fraction

from .builders import operator_set
from .coeffring import ATOM_Z, Coefficient, ZRat, trig
from .cyclofield import FieldCtx, ctx_new
from .errors import CoeffError, ParseError
from .opalgebra import (OpExpr, deposit_product, op_I, op_R, op_coeff,
                        op_dphi, op_dr, op_one, op_param, op_r, settle)

__all__ = ["parse", "elaborate", "parse_op", "pretty", "pretty_coefficient",
           "pretty_zrat"]

_TRIG_SUGAR = {
    "tan": "tan_shift", "cot": "cot_shift",
    "sec2": "sec2_shift", "csc2": "csc2_shift",
    "seck": "sec_k", "tank": "tan_k",
}
# name -> constructor of ctx; S is the shared member of operator_set(k)
_NAMES = {
    "a": lambda ctx: op_param(ctx, "a"),
    "b": lambda ctx: op_param(ctx, "b"),
    "w2": lambda ctx: op_param(ctx, "w2"),
    "r": op_r,
    "z": lambda ctx: op_coeff(ctx, ZRat.z_power(ctx, 1)),
    "zeta": lambda ctx: op_coeff(ctx, ctx.root_power(1)),
    "i": lambda ctx: op_coeff(ctx, ctx.imag_unit()),
    "dr": op_dr, "dphi": op_dphi, "R": op_R, "I": op_I,
    "S": lambda ctx: operator_set(ctx.k).S,
}
_KEYWORDS = set(_NAMES) | set(_TRIG_SUGAR) | {"phi", "pi", "k"}

# Nesting limit for parenthesized groups: parsing and elaboration recurse a
# few frames per level, so deeper input would exhaust the interpreter's stack.
MAX_GROUP_DEPTH = 200
# Limit on |n| in 'x^n': a power's terms and coefficient degrees grow with n,
# so a huge exponent would allocate without bound.
MAX_EXPONENT = 1024
# Limit on the derivative terms dr^p*dphi^q an expression can expand to: an
# operator of order P in dr and Q in dphi has up to (P + 1)(Q + 1) of them,
# and each product multiplies term pairs over a Leibniz grid of that size.
# dphi^1024 has one term but reaches 1025 = (0 + 1)(1024 + 1).
MAX_DERIVATIVE_TERMS = 1025

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/]))")


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at, text)
        start = m.start(1) if m.group(1) else (
            m.start(2) if m.group(2) else m.start(3))
        if m.group(1):
            try:
                value = int(m.group(1))
            except ValueError:      # beyond sys.get_int_max_str_digits()
                raise ParseError(f"integer literal of {len(m.group(1))} "
                                 "digits is too long", start, text) from None
            toks.append(("int", value, start))
        elif m.group(2):
            word = m.group(2)
            if word not in _KEYWORDS:
                raise ParseError(f"unknown name {word!r}", start, text)
            toks.append(("word", word, start))
        else:
            toks.append(("sym", m.group(3), start))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.idx]

    def advance(self):
        tok = self.toks[self.idx]
        self.idx += 1
        return tok

    def fail(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.peek()[2]
        raise ParseError(message, pos, self.text)

    def expect(self, kind: str, value=None):
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            self.fail(f"expected {want!r}")
        return self.advance()

    def at_sym(self, *values) -> bool:
        tok = self.peek()
        return tok[0] == "sym" and tok[1] in values

    # -- grammar -------------------------------------------------------------

    def expr(self):
        pos = self.peek()[2]
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        parts = [(sign, self.term())]
        while self.at_sym("+", "-"):
            s = 1 if self.advance()[1] == "+" else -1
            parts.append((s, self.term()))
        return ("sum", parts, pos)

    def term(self):
        pos = self.peek()[2]
        factors = [self.factor()]
        while self.at_sym("*"):
            self.advance()
            factors.append(self.factor())
        return ("prod", factors, pos)

    def factor(self):
        base = self.atom()
        if not self.at_sym("^"):
            return base
        self.advance()
        neg = False
        if self.at_sym("-"):
            self.advance()
            neg = True
        tok = self.expect("int")
        if tok[1] > MAX_EXPONENT:
            self.fail(f"exponent larger than {MAX_EXPONENT}", tok[2])
        n = -tok[1] if neg else tok[1]
        return ("pow", base, n, base[-1])

    def atom(self):
        tok = self.peek()
        kind, value, pos = tok
        if kind == "int":
            self.advance()
            if self.at_sym("/"):
                self.advance()
                den = self.expect("int")[1]
                if den == 0:
                    self.fail("zero denominator", pos)
                return ("rat", Fraction(value, den), pos)
            return ("rat", Fraction(value), pos)
        if kind == "word" and value in _TRIG_SUGAR:
            self.advance()
            self.expect("sym", "(")
            self.expect("word", "phi")
            shift = 0
            if self.at_sym("+", "-"):
                s = 1 if self.advance()[1] == "+" else -1
                shift = s * self.expect("int")[1]
                self.expect("sym", "*")
                self.expect("word", "pi")
                self.expect("sym", "/")
                self.expect("word", "k")
            self.expect("sym", ")")
            return ("trig", value, shift, pos)
        if kind == "word" and value in _NAMES:
            self.advance()
            return ("name", value, pos)
        if kind == "sym" and value == "(":
            if self.depth == MAX_GROUP_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_GROUP_DEPTH}")
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.expect("sym", ")")
            self.depth -= 1
            return ("group", inner, pos)
        self.fail("expected a value")


def parse(text: str):
    """Parse operator-expression text into an AST (tuples); the field context
    is not needed until elaboration."""
    parser = _Parser(text)
    ast = parser.expr()
    if parser.peek()[0] != "end":
        parser.fail("trailing input")
    _orders(ast, text)
    return ast


def _orders(ast, text: str) -> tuple:
    """(P, Q): bounds on the dr and dphi orders of the node's value; raise
    ParseError at the first node with (P + 1)(Q + 1) > MAX_DERIVATIVE_TERMS."""
    kind = ast[0]
    p = q = 0
    # loops rather than comprehensions: one frame per level of nesting
    if kind == "sum":
        for _, node in ast[1]:
            dp, dq = _orders(node, text)
            p, q = max(p, dp), max(q, dq)
    elif kind == "prod":
        for node in ast[1]:
            dp, dq = _orders(node, text)
            p, q = p + dp, q + dq
    elif kind == "pow":
        p, q = _orders(ast[1], text)
        n = max(ast[2], 0)      # a negative power of a derivative is refused
        p, q = n * p, n * q
    elif kind == "group":
        p, q = _orders(ast[1], text)
    else:
        p, q = int(ast[1] == "dr"), int(ast[1] == "dphi")
    if (p + 1) * (q + 1) > MAX_DERIVATIVE_TERMS:
        raise ParseError(f"expands to more than {MAX_DERIVATIVE_TERMS} "
                         f"derivative terms dr^p*dphi^q", ast[-1], text)
    return p, q


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------


def _invert_op(op: OpExpr, n: int, pos: int, ctx) -> OpExpr:
    """op^(-n) for n > 0; defined only for invertible multiplication
    operators r^m * u(z)."""
    items = op.items()
    if not items:
        raise ParseError("negative power of zero", pos)
    if len(items) != 1 or items[0][0] != (0, 0, 0, 0):
        raise ParseError("negative power of a non-coefficient operator", pos)
    coeff = items[0][1]
    monos = coeff.items()
    if len(monos) != 1 or monos[0][0][1:] != (0, 0, 0):
        raise ParseError("negative power of a non-invertible coefficient",
                         pos)
    (m, _, _, _), u = monos[0]
    try:
        inv = u.inv()
    except CoeffError as exc:
        raise ParseError(f"cannot invert coefficient: {exc}", pos)
    return op_coeff(ctx, Coefficient.monomial(ctx, inv ** n, m=-m * n))


def elaborate(ast, ctx: FieldCtx) -> OpExpr:
    """Evaluate an AST in the operator algebra over ``ctx``."""
    kind = ast[0]
    if kind == "sum":       # of "prod" terms, each filed by deposit_product
        acc: dict = {}
        for sign, (_, factors, _) in ast[1]:
            deposit_product(acc, [elaborate(f, ctx) for f in factors], sign)
        return settle(ctx, acc)
    if kind == "pow":
        _, base, n, pos = ast
        base_op = elaborate(base, ctx)
        if n >= 0:
            return base_op ** n
        return _invert_op(base_op, -n, pos, ctx)
    if kind == "rat":
        return op_coeff(ctx, ast[1])
    if kind == "trig":
        _, name, shift, pos = ast
        tkind = _TRIG_SUGAR[name]
        if shift and tkind in ("sec_k", "tan_k"):
            raise ParseError(f"{name} takes a bare phi argument", pos)
        return op_coeff(ctx, trig(ctx, tkind, shift))
    if kind == "group":
        return elaborate(ast[1], ctx)
    # names
    _, name, pos = ast
    if name == "S" and ctx.k % 2:
        raise ParseError("S needs an even k", pos)
    return _NAMES[name](ctx)


def parse_op(text: str, ctx: FieldCtx) -> OpExpr:
    """Parse and elaborate in one step."""
    ast = parse(text)
    try:
        return elaborate(ast, ctx)
    except ParseError as exc:
        if exc.text is None:
            raise ParseError(exc.args[0], exc.pos, text) from None
        raise


# ---------------------------------------------------------------------------
# pretty-printing
# ---------------------------------------------------------------------------


def _join_signed(terms) -> str:
    """The text of a signed sum of (sign, factors) terms; "0" if empty."""
    out = []
    for sign, factors in terms:
        if out:
            out.append(" - " if sign < 0 else " + ")
        elif sign < 0:
            out.append("-")
        out.append("*".join(factors))
    return "".join(out) or "0"


def _powers(names, exponents) -> list:
    """The factors name^n for the nonzero exponents, with "^1" left out."""
    return [name if n == 1 else f"{name}^{n}"
            for name, n in zip(names, exponents) if n]


def _product(term, extra) -> tuple:
    """(sign, factors) of ``term`` times the factors ``extra``; a leading
    "1" is dropped when any other factor is left."""
    sign, factors = term
    factors = factors + extra
    if len(factors) > 1 and factors[0] == "1":
        factors = factors[1:]
    return sign, factors


def _sum(terms) -> tuple:
    """(sign, factors) of a signed sum of terms: the one term itself, else
    one parenthesized factor ("0" for no terms)."""
    if len(terms) == 1:
        return terms[0]
    return 1, ["(" + _join_signed(terms) + ")" if terms else "0"]


def _scalar_factors(row) -> tuple:
    """(sign, factors) of one field scalar, given by its coordinate row, as
    a rational combination of zeta powers."""
    return _sum([_product((-1 if q < 0 else 1, [str(abs(q))]),
                          _powers(("zeta",), (j,)))
                 for j, q in enumerate(row) if q])


def _atom_base(atom) -> str:
    if atom == ATOM_Z:
        return "z"
    stem = "z" if atom[0] == "lin" else "z^2"
    s = atom[1]
    root = "1" if s == 0 else ("zeta" if s == 1 else f"zeta^{s}")
    return f"({stem} - {root})"


def _zrat_factors(zr: ZRat) -> tuple:
    num = _sum([_product(_scalar_factors(c), _powers(("z",), (d,)))
                for d, c in enumerate(zr.num) if any(c)])
    return _product(num, [f"{_atom_base(atom)}^-{mult}"
                          for atom, mult in zr.den])


def pretty_zrat(zr: ZRat) -> str:
    return _join_signed([_zrat_factors(zr)])


def _monomial_terms(coeff: Coefficient) -> list:
    return [_product(_zrat_factors(zr), _powers(("r", "a", "b", "w2"), mkey))
            for mkey, zr in coeff.items()]


def pretty_coefficient(coeff: Coefficient) -> str:
    return _join_signed(_monomial_terms(coeff))


def pretty(op: OpExpr) -> str:
    """Canonical text form; re-parsing gives back an equal operator."""
    return _join_signed([
        _product(_sum(_monomial_terms(coeff)),
                 _powers(("dr", "dphi", "R", "I"), gens))
        for gens, coeff in op.items()])
