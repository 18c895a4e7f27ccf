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
place in the chain reads, mostly order 0 alone.  Atom and denominator jets
are built to exactly the orders their coefficient asks for and dropped once
it is formed.  Per batch, the jet of P, the powers z^j, the parameter
products and the coefficient weights are kept, each weight the longest
built so far, and a shorter request gets a prefix: the first L orders of a
jet do not depend on the later ones.  No exact ring operation,
normal ordering or operator product runs here, so a defect in the exact
engine cannot reach this witness.

This is the only module of the package that imports numpy; ``dunklops``
loads it on first use (``shadow_reports``, ``dunklops oracle`` or one of the
names below).

``numeric_check`` / ``numeric_check_spec`` evaluate all trials as numpy
columns; this is what the verification suite's numeric shadow uses.  Its
trigonometric rows read the closed forms of ``_TRIG_LEAVES``, not ``trig``.

>>> from dunklops.opalgebra import op_dphi
>>> dphi = op_dphi(ctx_new(3))
>>> numeric_check(dphi, dphi).max_rel_dev        # the same chain, bit for bit
0.0
>>> numeric_check(dphi, -dphi, trials=20).status
'fail'
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .coeffring import ATOM_Z
from .cyclofield import CycloScalar, FieldCtx, ctx_new
from .errors import OracleError
from .identities import DEFAULT_SEED, MAX_TRIALS
from .opalgebra import OpExpr

__all__ = ["OracleReport", "numeric_check", "numeric_check_spec",
           "DEFAULT_SEED"]

_DEGENERATE = 1e-6
_MARGIN = 0.05
_MAX_ROUNDS = 50
_GENERIC_SLOTS = tuple(range(-3, 4))    # the powers of z in a generic P


def _near_pole(k: int, phi):
    """The angles within ``_MARGIN`` of a zero of sin(k phi) or cos(k phi),
    where the tan/cot-type coefficients blow up; they are redrawn."""
    return ((np.abs(np.sin(k * phi)) < _MARGIN)
            | (np.abs(np.cos(k * phi)) < _MARGIN))


# ---------------------------------------------------------------------------
# batched jet engine
# ---------------------------------------------------------------------------
# A jet is a complex array [2, 2k, L, T]: sign sigma (index 0 for +1, 1 for
# -1), image n, derivative order m < L, trial.  A weight that does not
# depend on phi is a complex number or an array [T] instead.


def _leibniz(u, a):
    """The jet of u * a, to the orders a carries: (u a)^(j) is the sum over
    i of C(j, i) u^(i) a^(j - i)."""
    if a.shape[2] == 1:
        return u[:, :, :1] * a
    out = np.empty(a.shape, complex)
    for j in range(a.shape[2]):
        acc = u[:, :, 0] * a[:, :, j]
        for i in range(1, j + 1):
            acc += math.comb(j, i) * (u[:, :, i] * a[:, :, j - i])
        out[:, :, j] = acc
    return out


def _is_jet(w) -> bool:
    return isinstance(w, np.ndarray) and w.ndim == 4


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
    point (r, phi, a, b, w2), the jet of P to order J and the coefficient
    weights computed from them.  They live only as long as the batch's
    columns stay unchanged."""

    __slots__ = ("ctx", "J", "T", "s", "c", "P", "r", "phi", "a", "b", "w2",
                 "_x", "_zpow", "_initial", "_weights", "_ppow")

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
            bad = _near_pole(k, phi)
            n_bad = int(bad.sum())
            if not n_bad:
                break
            phi[bad] = rng.uniform(0.0, math.pi / (2 * k), n_bad)
        else:  # pragma: no cover - acceptance ratio is ~0.94 per draw
            raise OracleError("could not draw sample angles inside the margin")
        return cls(ctx, J, s, c, P, r=rng.uniform(0.6, 2.5, T), phi=phi,
                   a=rng.uniform(0.5, 3.0, T), b=rng.uniform(0.5, 3.0, T),
                   w2=rng.uniform(0.5, 3.0, T))

    def _refresh(self):
        k = self.ctx.k
        sigma = np.array([1.0, -1.0])[:, None, None]
        shift = (np.arange(2 * k) * (math.pi / k))[None, :, None]
        self._x = sigma * self.phi + shift                  # [2, 2k, T]
        self._zpow = {}
        self._initial = None
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
        orders = np.arange(L)[:, None]
        out = np.zeros((2, 2 * self.ctx.k, L, self.T), complex)
        for j, cj in coeffs.items():
            out += (1j * j) ** orders * (cj * self.zpow(j))[:, :, None]
        return out

    def initial(self):
        """The jet of P, the test functions' angular factor, to order J."""
        if self._initial is None:
            self._initial = self._fourier_jet(self.P, self.J + 1)
        return self._initial

    def _atom_inverse(self, atom, L: int):
        """The first L orders of the jet of 1 / atom: z^-1, 1 / (z - zeta^t)
        or 1 / (z^2 - zeta^t).  Order m reads only the lower orders."""
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

    def coefficient(self, u, L: int):
        """The first L orders of the jet of a ZRat, or its value if it does
        not depend on phi.  Not cached: ``weights`` keeps the sums."""
        if not u.den and len(u.num) <= 1:
            return complex(CycloScalar(self.ctx, u.num[0])) if u.num else 0j
        jet = self._fourier_jet({j: complex(CycloScalar(self.ctx, c))
                                 for j, c in enumerate(u.num) if any(c)}, L)
        if u.den:
            jet = _leibniz(self._denominator(u.den, L), jet)
        return jet

    def _denominator(self, den: tuple, L: int):
        """The first L orders of the jet of 1 / den, multiplied together
        atom by atom (expanding the product first would lose precision)."""
        jet = None
        for atom, mult in den:
            q = self._atom_inverse(atom, L)
            for _ in range(mult):
                jet = q if jet is None else _leibniz(q, jet)
        return jet

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
            moved = (np.arange(k2) + i) % k2
            st = {d: jet[:, moved] for d, jet in st.items()}
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
                _add(out, d + m, _leibniz(w, jet) if _is_jet(w) else w * jet)
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


def _on_arrays(fn):
    """``fn`` of one float (a ``math`` function or ``pow``) applied to every
    element of an array, in a C loop.  numpy's own tan and power differ from
    the C library in the last bit on some inputs; the closed forms keep the
    C library's rounding, so the worst deviations stay as they were."""
    return lambda x: np.fromiter(map(fn, x.tolist()), float, len(x))


_tan, _sin, _cos = map(_on_arrays, (math.tan, math.sin, math.cos))
_square = _on_arrays(partial(pow, exp=2))

# The trig leaves' closed forms, independent of ``coeffring.trig``: kind ->
# (angle phi + j pi/k rather than k phi, value 1 / fn rather than fn, fn).
_TRIG_LEAVES = {
    "tan_shift": (True, False, _tan),
    "cot_shift": (True, True, _tan),
    "sec2_shift": (True, True, lambda x: _square(_cos(x))),
    "csc2_shift": (True, True, lambda x: _square(_sin(x))),
    "sec2_k": (False, True, lambda x: _square(_cos(x))),
    "csc2_k": (False, True, lambda x: _square(_sin(x))),
    "cot_k": (False, True, _tan),
    "half_diff_inv2": (False, True, lambda x: 1.0 - _sin(x)),
    "half_sum_inv2": (False, True, lambda x: 1.0 + _sin(x)),
}


def _trig_sum(chains, k: int, phi):
    """The sum of weighted leaf products at an array of angles.  The weight
    is the first leaf's numerator (w / h, not w * (1 / h)): the last bit of
    the worst deviations depends on that order."""
    total = 0
    for weight, leaves in chains:
        prod = None if leaves else np.full(len(phi), float(weight))
        for kind, j in leaves:
            if kind not in _TRIG_LEAVES:
                raise OracleError(f"unknown trig leaf kind {kind!r}")
            shifted, inverse, fn = _TRIG_LEAVES[kind]
            val = fn(phi + j * math.pi / k if shifted else k * phi)
            num = weight if prod is None else 1.0
            val = num / val if inverse else num * val
            prod = val if prod is None else prod * val
        total = total + prod
    return total


def _run_trig(k, lhs, rhs, trials, tol, seed) -> OracleReport:
    """Both sides at ``trials`` random angles inside the margin."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, math.pi / (2 * k), trials)
    for _ in range(_MAX_ROUNDS):
        bad = _near_pole(k, phi)
        lv, rv = _trig_sum(lhs, k, phi), _trig_sum(rhs, k, phi)
        scale = np.maximum(np.abs(lv), np.abs(rv))
        bad |= scale < _DEGENERATE
        n_bad = int(bad.sum())
        if not n_bad:
            break
        phi[bad] = rng.uniform(0.0, math.pi / (2 * k), n_bad)
    else:  # pragma: no cover - constants on one side keep the scale up
        raise OracleError("sample kept degenerating after redraws")
    return _finish(lv, rv, scale, trials, tol, seed)


def _check_run(trials: int, tol: float) -> None:
    if trials < 1:
        raise OracleError("trials must be at least 1")
    if trials > MAX_TRIALS:
        raise OracleError(f"trials must be at most {MAX_TRIALS}")
    # no deviation exceeds a NaN or infinite tolerance, so every run would
    # pass, and every one exceeds a tolerance <= 0, so every run would fail
    if not (math.isfinite(tol) and tol > 0):
        raise OracleError(f"tol must be finite and positive, got {tol!r}")


def numeric_check(lhs: OpExpr, rhs: OpExpr, trials: int = 100,
                  tol: float = 1e-9, seed: int = DEFAULT_SEED) -> OracleReport:
    """Compare two operators on ``trials`` random (test function, point)
    pairs; pass iff the largest relative deviation stays below ``tol``."""
    _check_run(trials, tol)
    if lhs.ctx is not rhs.ctx:
        raise OracleError("operands live in different field contexts")
    return _run_ops(lhs.ctx, [(1, [lhs])], [(1, [rhs])],
                    trials, tol, seed, invariant=False)


def numeric_check_spec(spec, k: int, trials: int = 100, tol: float = 1e-9,
                       seed: int = DEFAULT_SEED) -> OracleReport:
    """Run one numeric specification as produced by the suite rows:
    ("ops", lhs, rhs) or ("ops-invariant", lhs, rhs) with lists of weighted
    operator chains, or ("trig", lhs, rhs) with lists of weighted leaf
    products, a leaf (kind, j) one of the closed forms of ``_TRIG_LEAVES``
    at the angle phi + j pi/k (shifted kinds) or k phi."""
    _check_run(trials, tol)
    kind = spec[0]
    if kind == "trig":
        return _run_trig(k, spec[1], spec[2], trials, tol, seed)
    if kind in ("ops", "ops-invariant"):
        ctx = ctx_new(k)
        return _run_ops(ctx, spec[1], spec[2], trials, tol, seed,
                        invariant=(kind == "ops-invariant"))
    raise OracleError(f"unknown numeric spec kind {kind!r}")
