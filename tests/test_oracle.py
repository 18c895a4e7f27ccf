"""Numeric oracle: analytic action on the Gaussian test family."""

import cmath
import math

import numpy as np
import pytest

from dunklops.builders import build_Dphi, build_Dr, build_extended_Hk, build_R
from dunklops.coeffring import ZRat, trig
from dunklops.cyclofield import ctx_new
from dunklops.errors import OracleError
from dunklops.identities import iter_rows, shadow_reports
from dunklops.opalgebra import (commutator, op_coeff, op_I, op_R, op_dphi,
                                op_dr)
from dunklops.oracle import (DEFAULT_SEED, OracleReport, SamplePoint,
                             TestFunc, TestFuncSum, apply, f_value,
                             numeric_check, numeric_check_spec,
                             random_sample_point, random_test_func)


def rel_close(x, y, tol=1e-12):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def test_f_value_formula():
    f = TestFunc(s=2, c=-0.5, P={1: 1 + 2j, -3: 0.25})
    pt = SamplePoint(r=1.7, phi=0.4, a_val=1.0, b_val=1.0, w2_val=1.0)
    z = cmath.exp(1j * pt.phi)
    expect = pt.r ** 2 * math.exp(-0.5 * pt.r ** 2) \
        * ((1 + 2j) * z + 0.25 * z ** -3)
    assert rel_close(f_value(f, pt), expect)


def test_lift_value_matches_f_value():
    ctx = ctx_new(2)
    rng = np.random.default_rng(3)
    f = random_test_func(rng, 2)
    lifted = TestFuncSum.lift(ctx, f)
    for _ in range(5):
        pt = random_sample_point(rng, 2)
        assert rel_close(lifted.value(pt), f_value(f, pt))


def test_angular_derivative_multiplies_fourier_modes():
    ctx = ctx_new(3)
    for n in (-2, 0, 1, 3):
        f = TestFunc(s=1, c=-0.5, P={n: 0.8 - 0.3j})
        g = apply(op_dphi(ctx), f)
        pt = SamplePoint(r=1.1, phi=0.37, a_val=2.0, b_val=0.7, w2_val=1.3)
        assert rel_close(g.value(pt), 1j * n * f_value(f, pt))


def test_full_rotation_is_the_identity():
    rng = np.random.default_rng(8)
    for k in (2, 3):
        ctx = ctx_new(k)
        f = random_test_func(rng, k)
        g = apply(build_R(ctx, 2 * k), f)
        for _ in range(4):
            pt = random_sample_point(rng, k)
            assert rel_close(g.value(pt), f_value(f, pt))


def test_group_action_convention():
    # (R^m I f)(phi) = f(-phi - m pi/k): the reflection acts first
    k = 3
    ctx = ctx_new(k)
    rng = np.random.default_rng(21)
    f = random_test_func(rng, k)
    for m in range(2 * k):
        g = apply(op_R(ctx, m) * op_I(ctx), f)
        for _ in range(3):
            pt = random_sample_point(rng, k)
            moved = SamplePoint(pt.r, -pt.phi - m * math.pi / k,
                                pt.a_val, pt.b_val, pt.w2_val)
            assert rel_close(g.value(pt), f_value(f, moved))


def test_radial_derivative():
    ctx = ctx_new(2)
    rng = np.random.default_rng(5)
    f = random_test_func(rng, 2)
    g = apply(op_dr(ctx), f)
    for _ in range(5):
        pt = random_sample_point(rng, 2)
        expect = (f.s / pt.r + 2 * f.c * pt.r) * f_value(f, pt)
        assert rel_close(g.value(pt), expect)


def _exact_dphi(f, pt):
    z = cmath.exp(1j * pt.phi)
    poly = sum(1j * j * coeff * z ** j for j, coeff in f.P.items())
    return pt.r ** f.s * math.exp(float(f.c) * pt.r ** 2) * poly


def _reflected(f, pt, m, k):
    moved = SamplePoint(pt.r, -pt.phi - m * math.pi / k,
                        pt.a_val, pt.b_val, pt.w2_val)
    return f_value(f, moved)


def test_angular_dunkl_matches_explicit_form_k3():
    k = 3
    op = build_Dphi(k)
    rng = np.random.default_rng(20260815)
    f = random_test_func(rng, k)
    g = apply(op, f)
    for _ in range(10):
        pt = random_sample_point(rng, k)
        expect = _exact_dphi(f, pt)
        for i in range(k):
            shift = pt.phi + i * math.pi / k
            expect += (pt.a_val * math.tan(shift)
                       * _reflected(f, pt, (k + 2 * i) % (2 * k), k))
            expect -= (pt.b_val / math.tan(shift)
                       * _reflected(f, pt, 2 * i, k))
        got = g.value(pt)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(got), abs(expect))


def test_radial_dunkl_matches_explicit_form_k3():
    k = 3
    op = build_Dr(k)
    rng = np.random.default_rng(77)
    f = random_test_func(rng, k)
    g = apply(op, f)
    for _ in range(10):
        pt = random_sample_point(rng, k)
        expect = (f.s / pt.r + 2 * f.c * pt.r) * f_value(f, pt)
        for i in range(k):
            expect -= (pt.a_val * _reflected(f, pt, 2 * i + 1, k)
                       + pt.b_val * _reflected(f, pt, 2 * i, k)) / pt.r
        got = g.value(pt)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(got), abs(expect))


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
    lhs = build_extended_Hk(4, "via_Dphi")
    rhs = build_extended_Hk(4, "via_Dr")
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
    r_op = build_R(3)
    pass_spec = ("ops-invariant", [(1, [r_op])], [(1, [])])
    assert numeric_check_spec(pass_spec, 3, trials=30).status == "pass"
    # the same claim on generic test functions is false
    fail_spec = ("ops", [(1, [r_op])], [(1, [])])
    assert numeric_check_spec(fail_spec, 3, trials=30).status == "fail"


def test_angle_specs():
    good = ("angle", lambda p: math.cos(2 * p),
            lambda p: 1 - 2 * math.sin(p) ** 2)
    assert numeric_check_spec(good, 2, trials=50).status == "pass"
    bad = ("angle", math.cos, math.sin)
    assert numeric_check_spec(bad, 2, trials=50).status == "fail"


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------


def test_random_test_func_generic_shape():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_test_func(rng, 3)
        assert 0 <= f.s < 4
        assert -1.2 <= f.c <= -0.3
        assert set(f.P) == set(range(-3, 4))


def test_random_test_func_invariant_shape():
    rng = np.random.default_rng(2)
    for k in (2, 3):
        f = random_test_func(rng, k, invariant=True)
        assert set(f.P) == {0, 2 * k, -2 * k}
        assert f.P[2 * k] == f.P[-2 * k]
        # numerically invariant under both generators
        ctx = ctx_new(k)
        rot = apply(op_R(ctx), f)
        refl = apply(op_I(ctx), f)
        for _ in range(3):
            pt = random_sample_point(rng, k)
            assert rel_close(rot.value(pt), f_value(f, pt))
            assert rel_close(refl.value(pt), f_value(f, pt))


def test_random_sample_point_ranges():
    rng = np.random.default_rng(3)
    for k in (1, 4):
        for _ in range(50):
            pt = random_sample_point(rng, k)
            assert 0.6 <= pt.r <= 2.5
            assert 0.0 <= pt.phi <= math.pi / (2 * k)
            assert abs(math.sin(k * pt.phi)) >= 0.05
            assert abs(math.cos(k * pt.phi)) >= 0.05
            for v in (pt.a_val, pt.b_val, pt.w2_val):
                assert 0.5 <= v <= 3.0


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
    lhs = build_extended_Hk(k, "via_Dphi")
    rhs = build_extended_Hk(k, "via_Dr")
    dphi = build_Dphi(k)
    spec = ("ops", [(1, [lhs, dphi, dphi]), (-1, [dphi, dphi, rhs])], [])
    f = random_test_func(np.random.default_rng(4), k)
    pt = random_sample_point(np.random.default_rng(5), k)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the oracle called exact ring arithmetic")

    for name in ("d_phi", "rotate_n", "reflect", "conj", "inv", "__mul__",
                 "__rmul__", "__add__", "__radd__", "__sub__", "__neg__"):
        monkeypatch.setattr(ZRat, name, forbidden)
    assert numeric_check_spec(spec, k, trials=20).status == "pass"
    steps = apply(dphi, apply(lhs, f))
    assert np.isfinite(steps.value(pt))


def test_no_oracle_state_outlives_a_call():
    reports = shadow_reports("integral_commutes", 3)
    assert reports and all(r.status == "pass" for r in reports)
    assert len(ctx_new(3).oracle_cache) == 0
