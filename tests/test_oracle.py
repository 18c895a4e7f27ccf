"""Numeric oracle: analytic action on the Gaussian test family."""

import math
from functools import cached_property

import numpy as np
import pytest

from dunklops import oracle
from dunklops.builders import build_Dphi, build_Dr
from dunklops.coeffring import ZRat, trig
from dunklops.cyclofield import ctx_new
from dunklops.errors import OracleError
from dunklops.identities import (MAX_TRIALS, OperatorSet, iter_rows,
                                 operator_set, shadow_reports)
from dunklops.opalgebra import (commutator, op_coeff, op_I, op_param, op_R,
                                op_dphi, op_dr)
from dunklops.oracle import (DEFAULT_SEED, _Batch, _apply, _chain_value,
                             _jet_order, _leibniz, numeric_check,
                             numeric_check_spec)
from ring_helpers import zrat_eval


def rel_close(x, y, tol=1e-12):
    """Elementwise relative closeness of two columns of values."""
    return np.all(np.abs(x - y) <= tol * np.maximum(1.0, np.maximum(
        np.abs(x), np.abs(y))))


def draw(seed, T, k, chain=(), invariant=False):
    """T columns of the numeric checks' own draw, with the jet of P long
    enough for ``chain``; ``invariant`` restricts P to z^0 and
    z^{2k} + z^{-2k}."""
    return _Batch.draw(np.random.default_rng(seed), T, ctx_new(k),
                       _jet_order(chain), invariant)


def one_column(k, chain, s, c, P, r, phi, a=1.0, b=1.0, w2=1.0):
    """The batch of one trial: the test function (s, c, P) at the sample
    point (r, phi, a, b, w2)."""
    col = np.atleast_1d
    return _Batch(ctx_new(k), _jet_order(chain), col(s), col(float(c)),
                  {j: col(complex(v)) for j, v in P.items()}, col(r),
                  col(phi), col(a), col(b), col(w2))


def closed_form(batch, phi=None, order=0):
    """d^order/dphi^order of r^s e^{c r^2} sum_j P_j e^{i j phi} for every
    column, at the sample angle or at the angles ``phi``."""
    phi = batch.phi if phi is None else phi
    poly = sum((1j * j) ** order * p * np.exp(1j * j * phi)
               for j, p in batch.P.items())
    return batch.r ** batch.s * np.exp(batch.c * batch.r ** 2) * poly


def test_angular_derivative_multiplies_fourier_modes():
    ctx = ctx_new(3)
    for n in (-2, 0, 1, 3):
        batch = one_column(3, [op_dphi(ctx)], s=1, c=-0.5, P={n: 0.8 - 0.3j},
                           r=1.1, phi=0.37, a=2.0, b=0.7, w2=1.3)
        assert rel_close(_chain_value(1, [op_dphi(ctx)], batch),
                         1j * n * closed_form(batch))


def test_full_rotation_is_the_identity():
    for k in (2, 3):
        batch = draw(8, 4, k)
        assert rel_close(_chain_value(1, [op_R(ctx_new(k), 2 * k)], batch),
                         closed_form(batch))


def test_group_action_convention():
    # (R^m I f)(phi) = f(-phi - m pi/k): the reflection acts first, and
    # its phi-derivative is -f'(-phi - m pi/k)
    k = 3
    ctx = ctx_new(k)
    batch = draw(21, 3, k, [op_dphi(ctx)])
    for m in range(2 * k):
        moved = -batch.phi - m * math.pi / k
        group = op_R(ctx, m) * op_I(ctx)
        assert rel_close(_chain_value(1, [group], batch),
                         closed_form(batch, moved))
        assert rel_close(_chain_value(1, [op_dphi(ctx), group], batch),
                         -closed_form(batch, moved, order=1))


def _radial(batch):
    """d/dr of the test functions, in closed form."""
    return (batch.s / batch.r + 2 * batch.c * batch.r) * closed_form(batch)


def test_radial_derivative():
    batch = draw(5, 5, 2)
    assert rel_close(_chain_value(1, [op_dr(ctx_new(2))], batch),
                     _radial(batch))


def _reflected(batch, m, k):
    """(R^m I f) at the sample point: f at the angle -phi - m pi/k."""
    return closed_form(batch, -batch.phi - m * math.pi / k)


def test_angular_dunkl_matches_explicit_form_k3():
    k = 3
    op = build_Dphi(k)
    batch = draw(20260815, 10, k, [op])
    expect = closed_form(batch, order=1)
    for i in range(k):
        shift = batch.phi + i * math.pi / k
        expect = expect + (batch.a * np.tan(shift)
                           * _reflected(batch, (k + 2 * i) % (2 * k), k))
        expect = expect - batch.b / np.tan(shift) * _reflected(batch, 2 * i, k)
    assert rel_close(_chain_value(1, [op], batch), expect, tol=1e-9)


def test_radial_dunkl_matches_explicit_form_k3():
    k = 3
    op = build_Dr(k)
    batch = draw(77, 10, k, [op])
    expect = _radial(batch)
    for i in range(k):
        expect = expect - (batch.a * _reflected(batch, 2 * i + 1, k)
                           + batch.b * _reflected(batch, 2 * i, k)) / batch.r
    assert rel_close(_chain_value(1, [op], batch), expect, tol=1e-9)


# ---------------------------------------------------------------------------
# numeric_check
# ---------------------------------------------------------------------------


def test_self_comparison_is_exactly_zero():
    x = build_Dphi(3)
    rep = numeric_check(x, x, trials=10)
    assert rep.status == "pass"
    assert rep.max_rel_dev == 0.0
    assert rep.num_over_tol == 0
    assert rep.trials == 10
    assert rep.seed == DEFAULT_SEED


def test_unequal_operators_fail_every_trial():
    ctx = ctx_new(2)
    rep = numeric_check(op_dphi(ctx), -op_dphi(ctx), trials=20)
    assert rep.status == "fail"
    assert rep.num_over_tol == 20
    assert rep.max_rel_dev > 0.1


def test_argument_validation():
    ctx = ctx_new(2)
    with pytest.raises(OracleError):
        numeric_check(op_dphi(ctx), op_dphi(ctx), trials=0)
    with pytest.raises(OracleError):
        numeric_check(op_dphi(ctx), op_dphi(ctx_new(3)))
    with pytest.raises(OracleError):
        numeric_check_spec(("ops", [], []), 2, trials=0)
    with pytest.raises(OracleError):
        numeric_check_spec(("nonsense", None, None), 2)
    with pytest.raises(OracleError, match="unknown trig leaf"):
        numeric_check_spec(("trig", [(1, [("nonsense", 0)])], []), 2)


def test_too_many_trials_are_refused_before_any_draw(monkeypatch):
    """The batch arrays grow with the trial count, so a count over
    MAX_TRIALS is refused before either runner draws a sample."""
    def runner(*_args, **_kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(oracle, "_run_ops", runner)
    monkeypatch.setattr(oracle, "_run_trig", runner)
    ctx, over = ctx_new(2), MAX_TRIALS + 1
    with pytest.raises(OracleError, match=f"at most {MAX_TRIALS}"):
        numeric_check(op_R(ctx), op_R(ctx), trials=over)
    with pytest.raises(OracleError, match=f"at most {MAX_TRIALS}"):
        numeric_check_spec(("ops", [(1, [op_R(ctx)])], [(1, [op_R(ctx)])]),
                           2, trials=over)
    with pytest.raises(OracleError, match=f"at most {MAX_TRIALS}"):
        numeric_check_spec(("trig", [(1, [("tan_shift", 0)])],
                            [(1, [("tan_shift", 0)])]), 2, trials=over)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_tolerance_is_refused(tol):
    ctx = ctx_new(2)
    with pytest.raises(OracleError, match="tol must be finite"):
        numeric_check(op_R(ctx), op_I(ctx), tol=tol)
    with pytest.raises(OracleError, match="tol must be finite"):
        numeric_check_spec(("ops", [(1, [op_R(ctx)])], [(1, [op_I(ctx)])]),
                           2, tol=tol)
    with pytest.raises(OracleError, match="tol must be finite"):
        numeric_check_spec(("trig", [(1, [("tan_shift", 0)])],
                            [(1, [("cot_shift", 0)])]), 2, tol=tol)
    for cid, k in (("dr_props", 2), ("trig_tan_tan", 1)):  # rows, none
        with pytest.raises(OracleError, match="tol must be finite"):
            shadow_reports(cid, k, tol=tol)


def test_report_is_deterministic_and_seed_sensitive():
    x, y = build_Dr(2), build_Dr(2, mutation="dr-drop")
    first = numeric_check(x, y, trials=25, seed=42)
    again = numeric_check(x, y, trials=25, seed=42)
    assert first == again                       # bitwise, frozen dataclass
    other = numeric_check(x, y, trials=25, seed=43)
    assert other.max_rel_dev != first.max_rel_dev
    d = first.to_dict()
    assert list(d) == ["status", "trials", "max_rel_dev", "num_over_tol",
                       "tol", "seed"]


def test_trig_sum_rows_pass_at_k5():
    for cid in ("trig_tan_tan", "trig_csc2"):
        for row_id, _residual, numeric in iter_rows(cid, 5):
            rep = numeric_check_spec(numeric(), 5, trials=100, tol=1e-9)
            assert rep.status == "pass", (row_id, rep)


def test_two_extension_forms_agree_numerically_k4():
    lhs, rhs = operator_set(4).HkExtPhi, operator_set(4).HkExtDr
    rep = numeric_check(lhs, rhs, trials=50, tol=1e-8)
    assert rep.status == "pass"
    assert rep.max_rel_dev < 1e-8


def test_chain_composition_matches_product():
    ctx = ctx_new(2)
    dr, dphi = build_Dr(2), build_Dphi(2)
    spec = ("ops",
            [(1, [dr, dphi]), (-1, [dphi, dr])],
            [(1, [commutator(dr, dphi)])])
    rep = numeric_check_spec(spec, 2, trials=40)
    assert rep.status == "pass"


def test_invariant_sampling_mode():
    r_op = op_R(ctx_new(3))
    pass_spec = ("ops-invariant", [(1, [r_op])], [(1, [])])
    assert numeric_check_spec(pass_spec, 3, trials=30).status == "pass"
    # the same claim on generic test functions is false
    fail_spec = ("ops", [(1, [r_op])], [(1, [])])
    assert numeric_check_spec(fail_spec, 3, trials=30).status == "fail"


def test_angle_specs():
    good = ("trig", [(1, [("tan_shift", 1), ("cot_shift", 1)])], [(1, [])])
    assert numeric_check_spec(good, 2, trials=50).status == "pass"
    bad = ("trig", [(1, [("tan_shift", 0)])], [(1, [("cot_shift", 0)])])
    assert numeric_check_spec(bad, 2, trials=50).status == "fail"


@pytest.mark.parametrize("k", range(1, 7))
def test_trig_closed_forms_match_the_exact_atoms(k):
    """Every closed form of the oracle's leaf table, at every shift
    j = 0..3k (unreduced), against the exact atom evaluated at e^{i phi}."""
    ctx = ctx_new(k)
    rng = np.random.default_rng(k)
    phi = rng.uniform(0.0, math.pi / (2 * k), 200)
    phi = phi[~oracle._near_pole(k, phi)][:40]
    z = np.exp(1j * phi)
    for kind, (shifted, _inverse, _fn) in oracle._TRIG_LEAVES.items():
        if kind.startswith("half_") and k % 2:
            continue                             # even k only
        for j in range(3 * k + 1) if shifted else [0]:
            exact = trig(ctx, kind, j)
            want = np.array([zrat_eval(exact, complex(v)) for v in z])
            got = oracle._trig_sum([(1, [(kind, j)])], k, phi)
            rel = np.abs(got - want) / np.abs(want)
            assert rel.max() < 1e-12, (kind, j, rel.max())


def test_only_the_oracle_imports_numpy():
    import ast
    import pathlib

    import dunklops
    importers = set()
    for path in sorted(pathlib.Path(dunklops.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                importers.add(path.name)
    assert importers == {"oracle.py"}


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------


def test_random_test_func_generic_shape():
    batch = draw(1, 20, 3)
    assert ((0 <= batch.s) & (batch.s < 4)).all()
    assert ((-1.2 <= batch.c) & (batch.c <= -0.3)).all()
    assert set(batch.P) == set(range(-3, 4))
    assert all(p.shape == (20,) for p in batch.P.values())


def test_random_test_func_invariant_shape():
    for k in (2, 3):
        batch = draw(2, 3, k, invariant=True)
        assert set(batch.P) == {0, 2 * k, -2 * k}
        assert np.array_equal(batch.P[2 * k], batch.P[-2 * k])
        # numerically invariant under both generators
        ctx = ctx_new(k)
        for op in (op_R(ctx), op_I(ctx)):
            assert rel_close(_chain_value(1, [op], batch), closed_form(batch))


def test_random_sample_point_ranges():
    for k in (1, 4):
        batch = draw(3, 50, k)
        assert ((0.6 <= batch.r) & (batch.r <= 2.5)).all()
        assert ((0.0 <= batch.phi) & (batch.phi <= math.pi / (2 * k))).all()
        assert (np.abs(np.sin(k * batch.phi)) >= 0.05).all()
        assert (np.abs(np.cos(k * batch.phi)) >= 0.05).all()
        for v in (batch.a, batch.b, batch.w2):
            assert ((0.5 <= v) & (v <= 3.0)).all()


# ---------------------------------------------------------------------------
# mutation sensitivity
# ---------------------------------------------------------------------------


def test_mutations_exceed_tolerance_in_95_percent_of_trials():
    jobs = [("b-shift", "dphi_squared", 3), ("dr-drop", "dr_props", 4)]
    for mutation, cid, k in jobs:
        rows = iter_rows(cid, k, mutation)
        assert rows
        flipped = 0
        for _row_id, residual, numeric in rows:
            if residual().is_zero():
                continue                      # rows the defect leaves alone
            rep = numeric_check_spec(numeric(), k, trials=40, tol=1e-9)
            assert rep.status == "fail"
            assert rep.num_over_tol >= 38     # >= 95% of 40
            flipped += 1
        assert flipped >= 1


# ---------------------------------------------------------------------------
# independence from the exact engine
# ---------------------------------------------------------------------------


def test_ring_defects_do_not_reach_the_oracle(monkeypatch):
    """A seeded defect in the exact ring cancels out of the exact residual
    of an identity; the oracle, which never calls the ring, flags it."""
    k = 3
    ctx = ctx_new(k)
    t = trig(ctx, "tan_shift", 1)
    tc, dphi, rot = op_coeff(ctx, t), op_dphi(ctx), op_R(ctx)
    true_dphi, true_rotate = ZRat.d_phi, ZRat.rotate_n

    def commutator_identity():          # [dphi, t] = t'
        rhs = op_coeff(ctx, t.d_phi())
        return (dphi * tc - tc * dphi - rhs,
                ("ops", [(1, [dphi, tc]), (-1, [tc, dphi])], [(1, [rhs])]))

    def rotation_identity():            # R t = t(rho z) R
        moved = op_coeff(ctx, t.rotate_n(1))
        return (rot * tc - moved * rot,
                ("ops", [(1, [rot, tc])], [(1, [moved, rot])]))

    defects = [
        ("d_phi", lambda self: true_dphi(self) * 2, commutator_identity),
        ("rotate_n", lambda self, n: true_rotate(self, -n),
         rotation_identity),
    ]
    for name, defect, identity in defects:
        with monkeypatch.context() as patch:
            patch.setattr(ZRat, name, defect)
            residual, spec = identity()
            assert residual.is_zero(), name
            rep = numeric_check_spec(spec, k, trials=100, tol=1e-9)
        assert rep.num_over_tol >= 95, (name, rep)
        residual, spec = identity()     # the sound ring: both witnesses agree
        assert residual.is_zero(), name
        assert numeric_check_spec(spec, k, trials=100).status == "pass"


def test_oracle_does_no_ring_arithmetic(monkeypatch):
    k = 4
    lhs, rhs = operator_set(k).HkExtPhi, operator_set(k).HkExtDr
    dphi = build_Dphi(k)
    spec = ("ops", [(1, [lhs, dphi, dphi]), (-1, [dphi, dphi, rhs])], [])
    batch = draw(4, 5, k, [dphi, lhs])

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the oracle called exact ring arithmetic")

    for name in ("d_phi", "rotate_n", "reflect", "conj", "inv", "__mul__",
                 "__rmul__", "__add__", "__radd__", "__sub__", "__neg__"):
        monkeypatch.setattr(ZRat, name, forbidden)
    assert numeric_check_spec(spec, k, trials=20).status == "pass"
    assert np.isfinite(_chain_value(1, [dphi, lhs], batch)).all()


def test_no_oracle_state_outlives_a_call():
    reports = shadow_reports("integral_commutes", 3)
    assert reports and all(r.status == "pass" for r in reports)
    assert len(ctx_new(3).oracle_cache) == 0


def _members(k):
    """Every member of ``operator_set(k)``, built, as the shadow's set-up
    leaves them."""
    ops = operator_set(k)
    return [getattr(ops, n) for n, v in vars(OperatorSet).items()
            if isinstance(v, cached_property) and (n != "S" or k % 2 == 0)]


def test_weights_to_L_orders_are_prefixes_of_the_full_jets():
    """A weight asked for L orders is bit for bit the first L orders of the
    weight to order J, also after shorter ones were built and cached."""
    J = 4
    for k in (3, 4):
        coeffs = {c for op in _members(k) for c in op.terms.values()}
        draw = lambda: _Batch.draw(np.random.default_rng(k), 7, ctx_new(k), J,
                                   invariant=False)
        full, growing = draw(), draw()
        for coeff in coeffs:
            ref = full.weights(coeff, J + 1)
            for L in range(1, J + 2):
                got = growing.weights(coeff, L)
                assert got.keys() == ref.keys()
                for m, w in ref.items():
                    if isinstance(w, np.ndarray) and w.ndim == 4:
                        assert np.array_equal(got[m], w[:, :, :L]), (k, L)
                    else:
                        assert np.array_equal(got[m], w), (k, L)


def test_a_shadow_check_keeps_a_bounded_working_set():
    """Atom and denominator jets are built where they are read and not kept
    on the batch, so the k = 5 ``integral_commutes`` rows, the largest of a
    shadow pass, peak at under 5 MB of traced allocations (8.8 MB when the
    batch kept every jet it built)."""
    import tracemalloc

    _members(5)
    tracemalloc.start()
    try:
        shadow_reports("integral_commutes", 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000, peak


def _leibniz_reference(u, a):
    """The truncated Leibniz product as a double loop over every order."""
    out = np.empty(a.shape, complex)
    for j in range(a.shape[2]):
        acc = u[:, :, 0] * a[:, :, j]
        for i in range(1, j + 1):
            acc += math.comb(j, i) * (u[:, :, i] * a[:, :, j - i])
        out[:, :, j] = acc
    return out


def _fourier_jet_reference(batch, coeffs, L):
    """The Fourier jet built order-major, [L, 2, 2k, T], then moved to
    [2, 2k, L, T] and copied."""
    orders = np.arange(L)[:, None, None, None]
    out = np.zeros((L,) + batch._x.shape, complex)
    for j, cj in coeffs.items():
        out += (1j * j) ** orders * (cj * batch.zpow(j))
    return np.ascontiguousarray(np.moveaxis(out, 0, 2))


@pytest.mark.parametrize("k", range(1, 6))
def test_jet_helpers_match_their_loop_references(k):
    """The one-order Leibniz product, the Fourier jet written in its final
    layout and the rotation as one gather are bit for bit the double loop,
    the moveaxis copy and ``np.roll``, for constant and jet weights."""
    ctx = ctx_new(k)
    k2 = 2 * k
    neg = (-np.arange(k2)) % k2
    weights = [op_R(ctx, 0),                                 # 1
               op_coeff(ctx, 2) * op_param(ctx, "a"),        # 2 a, per trial
               op_coeff(ctx, trig(ctx, "tan_shift", 1))]     # a jet
    for L in range(1, 6):
        batch = _Batch.draw(np.random.default_rng(L), 6, ctx, L - 1,
                            invariant=False)
        jet = batch.initial()
        assert np.array_equal(jet, _fourier_jet_reference(batch, batch.P, L))
        coeffs = {-2: 0.5 - 1.5j, 0: batch.a + 0j, 3: batch.b * 1j}
        assert np.array_equal(batch._fourier_jet(coeffs, L),
                              _fourier_jet_reference(batch, coeffs, L))
        long = _fourier_jet_reference(batch, coeffs, L + 2)
        assert np.array_equal(_leibniz(long, jet),
                              _leibniz_reference(long, jet))
        for w_op in weights:
            (_key, coeff), = w_op.terms.items()
            (w,) = batch.weights(coeff, L).values()
            for i in range(k2):
                for e in (0, 1):
                    op = w_op * op_R(ctx, i) * (op_I(ctx) if e else 1)
                    moved = jet
                    if e:
                        sign = (-1.0) ** np.arange(L)[:, None]
                        moved = moved[::-1][:, neg] * sign
                    moved = np.roll(moved, -i, axis=1)
                    want = (_leibniz_reference(w, moved)
                            if isinstance(w, np.ndarray) and w.ndim == 4
                            else w * moved)
                    got = _apply(op, {0: jet}, L, batch)
                    assert got.keys() == {0}
                    assert np.array_equal(got[0], want), (k, L, i, e)
