"""Independent numeric witness for operator identities.

The engine applies operators to the closed family

    f(r, phi) = r^s * exp(c r^2) * P(z),      z = e^{i phi},

where P is a Laurent polynomial with complex coefficients, and evaluates the
result at sample points.  A function in the engine is a sum over d of

    r^(s + d) * exp(c r^2) * A_d(phi),

and each angular factor A_d is held as numbers: its phi-jet, the derivatives
of orders 0..J, at the 4k images sigma*phi + n*pi/k (sigma = +-1,
n = 0..2k-1) of the sample angle under the dihedral group.  J is the total
d/dphi order of the operator chain being applied.  On that table

- R^a rolls the image axis, and I maps (sigma, n) to (-sigma, -n) with the
  sign (-1)^m on jet order m;
- d/dphi shifts the jet down one order;
- d/dr moves weight between the radial powers s + d - 1 and s + d + 1;
- a coefficient u(z) r^m a^alpha b^beta w2^gamma multiplies by the
  truncated Leibniz product with the jet of u, shifts d by m and scales by
  the parameter values.

The jet of u is computed from its numerator and from each denominator atom
(z, z - zeta^t, z^2 - zeta^t) separately, with zeta^t embedded as a complex
number.  A factor that leaves L orders of the state reads only L orders of
its coefficients, so each coefficient weight is built to the orders its
place in the chain reads, mostly order 0 alone.  Per batch, the atom jets,
the denominator jets and the coefficient weights are kept, each the longest
built so far, and a shorter request gets a prefix: the first L orders of a
jet do not depend on the later ones.  No exact ring operation,
normal ordering or operator product runs here, so a defect in the exact
engine cannot reach this witness.

This is the only module of the package that imports numpy; ``dunklops``
loads it on first use (``shadow_reports``, ``dunklops oracle`` or one of the
names below).

``numeric_check`` / ``numeric_check_spec`` evaluate all trials as numpy
columns; this is what the verification suite's numeric shadow uses.
``TestFunc`` / ``TestFuncSum`` / ``apply`` are the same engine on one test
function at one point.

>>> ctx = ctx_new(3)
>>> f = TestFunc(s=1, c=-0.5, P={2: 1.0 + 0j})
>>> g = apply(op_dphi(ctx), f)                      # i z d/dz doubles ... x2i
>>> pt = SamplePoint(r=1.3, phi=0.21, a_val=0.7, b_val=1.1, w2_val=2.0)
>>> abs(g.value(pt) - 2j * f_value(f, pt)) < 1e-12
True
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .coeffring import ATOM_Z
from .cyclofield import FieldCtx, ctx_new
from .errors import OracleError
from .identities import DEFAULT_SEED
from .opalgebra import OpExpr, op_dphi

__all__ = [
    "TestFunc", "TestFuncSum", "SamplePoint", "OracleReport",
    "apply", "f_value", "numeric_check", "numeric_check_spec",
    "random_test_func", "random_sample_point", "DEFAULT_SEED",
]

_DEGENERATE = 1e-6
_MARGIN = 0.05
_MAX_ROUNDS = 50


# ---------------------------------------------------------------------------
# public scalar layer
# ---------------------------------------------------------------------------


@dataclass
class TestFunc:
    """One member of the closed family: r^s * exp(c r^2) * P(z)."""

    __test__ = False                # not a pytest item, despite the name

    s: int
    c: object                       # rational (or float) Gaussian exponent
    P: dict = field(default_factory=dict)   # j -> complex coefficient of z^j


@dataclass(frozen=True)
class SamplePoint:
    r: float
    phi: float
    a_val: float
    b_val: float
    w2_val: float


def f_value(f: TestFunc, pt: SamplePoint) -> complex:
    z = complex(math.cos(pt.phi), math.sin(pt.phi))
    poly = sum(coeff * z ** j for j, coeff in f.P.items())
    return pt.r ** f.s * math.exp(float(f.c) * pt.r ** 2) * poly


class TestFuncSum:
    """A chain of operators applied to one TestFunc: a finite weighted sum
    of family members, evaluated at a point by ``value``."""

    __test__ = False                # not a pytest item, despite the name

    __slots__ = ("ctx", "f", "chain")

    def __init__(self, ctx: FieldCtx, f: TestFunc, chain: tuple = ()):
        self.ctx = ctx
        self.f = f
        self.chain = chain          # leftmost factor acts last

    @staticmethod
    def lift(ctx: FieldCtx, f: TestFunc) -> "TestFuncSum":
        return TestFuncSum(ctx, f)

    def value(self, pt: SamplePoint) -> complex:
        batch = _Batch.single(self.ctx, _jet_order(self.chain), self.f, pt)
        return complex(_chain_value(1, self.chain, batch)[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TestFuncSum({len(self.chain)} operators)"


def apply(op: OpExpr, f) -> TestFuncSum:
    """Apply an operator to a TestFunc (or to an earlier result)."""
    if isinstance(f, TestFunc):
        f = TestFuncSum.lift(op.ctx, f)
    if f.ctx is not op.ctx:
        raise OracleError("operator and function live in different contexts")
    return TestFuncSum(op.ctx, f.f, (op,) + f.chain)


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------

_GENERIC_SLOTS = tuple(range(-3, 4))


def random_test_func(rng, k: int, invariant: bool = False) -> TestFunc:
    """One random family member; ``invariant`` restricts P to the monomials
    fixed by the whole group (z^0 and z^{2k} + z^{-2k})."""
    s = int(rng.integers(0, 4))
    c = -float(rng.uniform(0.3, 1.2))
    if invariant:
        p0 = complex(*rng.uniform(-1, 1, 2))
        p1 = complex(*rng.uniform(-1, 1, 2))
        P = {0: p0, 2 * k: p1, -2 * k: p1}
    else:
        P = {j: complex(*rng.uniform(-1, 1, 2)) for j in _GENERIC_SLOTS}
    return TestFunc(s, c, P)


def random_sample_point(rng, k: int, margin: float = _MARGIN) -> SamplePoint:
    """A sample point in the fundamental wedge with |sin k phi| and
    |cos k phi| at least ``margin``."""
    for _ in range(1000):
        phi = float(rng.uniform(0.0, math.pi / (2 * k)))
        if (abs(math.sin(k * phi)) >= margin
                and abs(math.cos(k * phi)) >= margin):
            break
    else:  # pragma: no cover - margin < 1 always leaves room
        raise OracleError("could not draw a sample angle inside the margin")
    return SamplePoint(
        r=float(rng.uniform(0.6, 2.5)),
        phi=phi,
        a_val=float(rng.uniform(0.5, 3.0)),
        b_val=float(rng.uniform(0.5, 3.0)),
        w2_val=float(rng.uniform(0.5, 3.0)),
    )


# ---------------------------------------------------------------------------
# batched jet engine
# ---------------------------------------------------------------------------
# A jet is a complex array [2, 2k, L, T]: sign sigma (index 0 for +1, 1 for
# -1), image n, derivative order m < L, trial.  A weight that does not
# depend on phi is a complex number or an array [T] instead.


def _leibniz(u, a):
    """The jet of u * a, to the orders a carries: (u a)^(j) is the sum over
    i of C(j, i) u^(i) a^(j - i)."""
    out = np.empty(a.shape, complex)
    for j in range(a.shape[2]):
        acc = u[:, :, 0] * a[:, :, j]
        for i in range(1, j + 1):
            acc += math.comb(j, i) * (u[:, :, i] * a[:, :, j - i])
        out[:, :, j] = acc
    return out


def _is_jet(w) -> bool:
    return isinstance(w, np.ndarray) and w.ndim == 4


def _times(w, a):
    """A weight (jet or phi-constant) times a jet."""
    if _is_jet(w):
        return _leibniz(w, a)
    return w * a


def _plus(x, y):
    """Sum of two weights, either of which may be phi-constant."""
    x_jet, y_jet = _is_jet(x), _is_jet(y)
    if x_jet == y_jet:
        return x + y
    if y_jet:
        x, y = y, x
    out = x.copy()
    out[:, :, 0] += y
    return out


def _jet_order(chain) -> int:
    """The jet order a chain needs: its total d/dphi order."""
    return sum(op.max_orders()[1] for op in chain)


class _Batch:
    """One column per trial: the test function data (s, c, P), the sample
    point (r, phi, a, b, w2), and the jets computed from them, up to order
    J.  The jets live only as long as the batch's columns stay unchanged."""

    __slots__ = ("ctx", "J", "T", "s", "c", "P", "r", "phi", "a", "b", "w2",
                 "_x", "_zpow", "_jets", "_weights", "_ppow")

    def __init__(self, ctx: FieldCtx, J: int, s, c, P: dict, r, phi, a, b,
                 w2):
        self.ctx, self.J, self.T = ctx, J, len(s)
        self.s, self.c, self.P = s, c, P
        self.r, self.phi, self.a, self.b, self.w2 = r, phi, a, b, w2
        self._refresh()

    @classmethod
    def draw(cls, rng, T: int, ctx: FieldCtx, J: int, invariant: bool):
        k = ctx.k
        s = rng.integers(0, 4, T)
        c = -rng.uniform(0.3, 1.2, T)
        if invariant:
            p0 = rng.uniform(-1, 1, T) + 1j * rng.uniform(-1, 1, T)
            p1 = rng.uniform(-1, 1, T) + 1j * rng.uniform(-1, 1, T)
            P = {0: p0, 2 * k: p1, -2 * k: p1.copy()}
        else:
            P = {j: rng.uniform(-1, 1, T) + 1j * rng.uniform(-1, 1, T)
                 for j in _GENERIC_SLOTS}
        phi = rng.uniform(0.0, math.pi / (2 * k), T)
        for _ in range(_MAX_ROUNDS):
            bad = ((np.abs(np.sin(k * phi)) < _MARGIN)
                   | (np.abs(np.cos(k * phi)) < _MARGIN))
            n_bad = int(bad.sum())
            if not n_bad:
                break
            phi[bad] = rng.uniform(0.0, math.pi / (2 * k), n_bad)
        else:  # pragma: no cover - acceptance ratio is ~0.94 per draw
            raise OracleError("could not draw sample angles inside the margin")
        return cls(ctx, J, s, c, P, r=rng.uniform(0.6, 2.5, T), phi=phi,
                   a=rng.uniform(0.5, 3.0, T), b=rng.uniform(0.5, 3.0, T),
                   w2=rng.uniform(0.5, 3.0, T))

    @classmethod
    def single(cls, ctx: FieldCtx, J: int, f: TestFunc, pt: SamplePoint):
        """The batch of one trial: ``f`` at ``pt``."""
        col = np.atleast_1d
        return cls(ctx, J, col(f.s), col(float(f.c)),
                   {j: col(complex(v)) for j, v in f.P.items()},
                   col(pt.r), col(pt.phi), col(pt.a_val), col(pt.b_val),
                   col(pt.w2_val))

    def _refresh(self):
        k = self.ctx.k
        sigma = np.array([1.0, -1.0])[:, None, None]
        shift = (np.arange(2 * k) * (math.pi / k))[None, :, None]
        self._x = sigma * self.phi + shift                  # [2, 2k, T]
        self._zpow = {}
        self._jets = {}
        self._weights = {}
        self._ppow = {}

    def splice(self, idx, other: "_Batch"):
        """Replace the columns ``idx`` with the columns of ``other``."""
        self.s[idx] = other.s
        self.c[idx] = other.c
        for j in self.P:
            self.P[j][idx] = other.P[j]
        for name in ("r", "phi", "a", "b", "w2"):
            getattr(self, name)[idx] = getattr(other, name)
        self._refresh()

    def zpow(self, j: int):
        """z^j = e^{i j x} at every image x."""
        arr = self._zpow.get(j)
        if arr is None:
            arr = self._zpow[j] = np.exp(1j * j * self._x)
        return arr

    def ppow(self, al: int, be: int, ga: int):
        if al == be == ga == 0:
            return None
        key = (al, be, ga)
        arr = self._ppow.get(key)
        if arr is None:
            arr = self._ppow[key] = self.a ** al * self.b ** be * self.w2 ** ga
        return arr

    def _fourier_jet(self, coeffs: dict, L: int):
        """The first L orders of the jet of sum_j coeffs[j] z^j, coefficients
        numbers or [T]."""
        orders = np.arange(L)[:, None, None, None]
        out = np.zeros((L,) + self._x.shape, complex)
        for j, cj in coeffs.items():
            out += (1j * j) ** orders * (cj * self.zpow(j))
        return np.ascontiguousarray(np.moveaxis(out, 0, 2))

    def _longest(self, key, L: int, build):
        """The first L orders of the jet cached under ``key``; ``build(L)``
        replaces the cached jet when it is shorter than that."""
        jet = self._jets.get(key)
        if jet is None or jet.shape[2] < L:
            jet = self._jets[key] = build(L)
        return jet if jet.shape[2] == L else jet[:, :, :L]

    def initial(self):
        """The jet of P, the angular factor of the test functions."""
        return self._longest("P", self.J + 1,
                             lambda L: self._fourier_jet(self.P, L))

    def _atom_inverse(self, atom, L: int):
        """The first L orders of the jet of 1 / atom: z^-1, 1 / (z - zeta^t)
        or 1 / (z^2 - zeta^t).  Order m reads only the lower orders."""
        def build(L):
            if atom == ATOM_Z:
                return self._fourier_jet({-1: 1.0}, L)
            deg = 2 if atom[0] == "quad" else 1
            zd = self.zpow(deg)
            q = np.empty((2, 2 * self.ctx.k, L, self.T), complex)
            q0 = 1.0 / (zd - self.ctx.unit_embed(atom[1]))
            q[:, :, 0] = q0
            # (atom * q)^(m) = 0 for m >= 1, with atom^(i) = (i deg)^i z^deg
            for m in range(1, L):
                acc = 0
                for i in range(1, m + 1):
                    acc = acc + (math.comb(m, i) * (1j * deg) ** i) \
                        * q[:, :, m - i]
                q[:, :, m] = -q0 * zd * acc
            return q

        return self._longest(("atom", atom), L, build)

    def coefficient(self, u, L: int):
        """The first L orders of the jet of a ZRat, or its value if it does
        not depend on phi.  Not cached: ``weights`` keeps the sums."""
        if not u.den and len(u.num) <= 1:
            return complex(u.num[0]) if u.num else 0j
        jet = self._fourier_jet({j: complex(c) for j, c in enumerate(u.num)
                                 if not c.is_zero()}, L)
        if u.den:
            jet = _leibniz(self._denominator(u.den, L), jet)
        return jet

    def _denominator(self, den: tuple, L: int):
        """The first L orders of the jet of 1 / den, multiplied together
        atom by atom (expanding the product first would lose precision)."""
        def build(L):
            jet = None
            for atom, mult in den:
                q = self._atom_inverse(atom, L)
                for _ in range(mult):
                    jet = q if jet is None else _leibniz(q, jet)
            return jet

        return self._longest(("den", den), L, build)

    def weights(self, coeff, L: int) -> dict:
        """m -> the weight of r^m in a Coefficient, its a, b, w2 monomials
        summed at the sampled parameter values; jets to L orders."""
        cached = self._weights.get(coeff)
        if cached is None or cached[0] < L:
            out = {}
            for (m, al, be, ga), u in coeff.terms.items():
                part = self.coefficient(u, L)
                fac = self.ppow(al, be, ga)
                if fac is not None:
                    part = part * fac
                out[m] = part if m not in out else _plus(out[m], part)
            cached = self._weights[coeff] = (L, out)
        if cached[0] == L:
            return cached[1]
        return {m: w[:, :, :L] if _is_jet(w) else w
                for m, w in cached[1].items()}


def _add(out: dict, d: int, jet):
    cur = out.get(d)
    out[d] = jet if cur is None else cur + jet


def _apply(op: OpExpr, state: dict, L: int, batch: _Batch) -> dict:
    """Apply ``op`` to a state d -> jet of L orders; the result carries
    L - (the highest d/dphi order of op) orders."""
    k2 = 2 * batch.ctx.k
    L_out = L - op.max_orders()[1]
    neg = (-np.arange(k2)) % k2
    out: dict = {}
    for (p, q, i, e), coeff in op.terms.items():
        st = {d: jet[:, :, :L_out + q] for d, jet in state.items()}
        if e:                        # (I A)^(m)(x) = (-1)^m A^(m)(-x)
            sign = (-1.0) ** np.arange(L_out + q)[:, None]
            st = {d: jet[::-1][:, neg] * sign for d, jet in st.items()}
        if i:                        # (R^i A)(x) = A(x + i pi/k)
            st = {d: np.roll(jet, -i, axis=1) for d, jet in st.items()}
        if q:
            st = {d: jet[:, :, q:] for d, jet in st.items()}
        for _ in range(p):           # d/dr of r^(s+d) exp(c r^2)
            nxt: dict = {}
            for d, jet in st.items():
                _add(nxt, d - 1, (batch.s + d) * jet)
                _add(nxt, d + 1, (2.0 * batch.c) * jet)
            st = nxt
        for m, w in batch.weights(coeff, L_out).items():
            for d, jet in st.items():
                _add(out, d + m, _times(w, jet))
    return out


def _chain_value(weight: int, chain, batch: _Batch):
    L = _jet_order(chain) + 1
    state = {0: batch.initial()[:, :, :L]}
    for op in reversed(chain):       # rightmost factor acts first
        state = _apply(op, state, L, batch)
        L -= op.max_orders()[1]
    total = np.zeros(batch.T, complex)
    for d, jet in state.items():
        total += jet[0, 0, 0] * batch.r ** (batch.s + d)
    return weight * total * np.exp(batch.c * batch.r ** 2)


# ---------------------------------------------------------------------------
# checks and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    status: str                  # "pass" | "fail"
    trials: int
    max_rel_dev: float
    num_over_tol: int
    tol: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _finish(lhs_tot, rhs_tot, scale, trials, tol, seed) -> OracleReport:
    dev = np.abs(lhs_tot - rhs_tot) / scale
    max_dev = float(dev.max()) if trials else 0.0
    over = int((dev > tol).sum())
    return OracleReport(
        status="pass" if over == 0 else "fail",
        trials=trials, max_rel_dev=max_dev, num_over_tol=over,
        tol=tol, seed=seed,
    )


def _run_ops(ctx, lhs, rhs, trials, tol, seed, invariant) -> OracleReport:
    rng = np.random.default_rng(seed)
    J = max((_jet_order(chain) for _, chain in [*lhs, *rhs]), default=0)
    batch = _Batch.draw(rng, trials, ctx, J, invariant)
    for _ in range(_MAX_ROUNDS):
        parts_l = [_chain_value(wgt, chain, batch) for wgt, chain in lhs]
        parts_r = [_chain_value(wgt, chain, batch) for wgt, chain in rhs]
        scale = np.zeros(batch.T)
        for part in parts_l + parts_r:
            scale = np.maximum(scale, np.abs(part))
        bad = scale < _DEGENERATE
        n_bad = int(bad.sum())
        if not n_bad:
            break
        batch.splice(bad, _Batch.draw(rng, n_bad, ctx, J, invariant))
    else:
        raise OracleError("sample kept degenerating after redraws")
    lhs_tot = sum(parts_l, np.zeros(batch.T, complex))
    rhs_tot = sum(parts_r, np.zeros(batch.T, complex))
    return _finish(lhs_tot, rhs_tot, scale, trials, tol, seed)


def _run_angle(k, f, g, trials, tol, seed) -> OracleReport:
    """f and g map an array of angles to the array of their values."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, math.pi / (2 * k), trials)
    for _ in range(_MAX_ROUNDS):
        bad = ((np.abs(np.sin(k * phi)) < _MARGIN)
               | (np.abs(np.cos(k * phi)) < _MARGIN))
        lv, rv = f(phi), g(phi)
        scale = np.maximum(np.abs(lv), np.abs(rv))
        bad |= scale < _DEGENERATE
        n_bad = int(bad.sum())
        if not n_bad:
            break
        phi[bad] = rng.uniform(0.0, math.pi / (2 * k), n_bad)
    else:  # pragma: no cover - constants on one side keep the scale up
        raise OracleError("sample kept degenerating after redraws")
    return _finish(lv, rv, scale, trials, tol, seed)


def _per_angle(f):
    return lambda phi: np.array([f(x) for x in phi])


def numeric_check(lhs: OpExpr, rhs: OpExpr, trials: int = 100,
                  tol: float = 1e-9, seed: int = DEFAULT_SEED) -> OracleReport:
    """Compare two operators on ``trials`` random (test function, point)
    pairs; pass iff the largest relative deviation stays below ``tol``."""
    if trials < 1:
        raise OracleError("trials must be at least 1")
    if lhs.ctx is not rhs.ctx:
        raise OracleError("operands live in different field contexts")
    return _run_ops(lhs.ctx, [(1, [lhs])], [(1, [rhs])],
                    trials, tol, seed, invariant=False)


def numeric_check_spec(spec, k: int, trials: int = 100, tol: float = 1e-9,
                       seed: int = DEFAULT_SEED) -> OracleReport:
    """Run one numeric specification as produced by the suite rows:
    ("ops", lhs, rhs), ("ops-invariant", lhs, rhs) with lists of weighted
    operator chains, ("angle-array", f, g) with callables of an array of
    angles, or ("angle", f, g) with plain callables of one angle."""
    if trials < 1:
        raise OracleError("trials must be at least 1")
    kind = spec[0]
    if kind in ("angle", "angle-array"):
        f, g = spec[1], spec[2]
        if kind == "angle":
            f, g = _per_angle(f), _per_angle(g)
        return _run_angle(k, f, g, trials, tol, seed)
    if kind in ("ops", "ops-invariant"):
        ctx = ctx_new(k)
        return _run_ops(ctx, spec[1], spec[2], trials, tol, seed,
                        invariant=(kind == "ops-invariant"))
    raise OracleError(f"unknown numeric spec kind {kind!r}")
