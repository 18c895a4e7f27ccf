"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one summary line (visible with ``pytest -s`` and in
failure reports); the pytest verdict for the test is the criterion verdict.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

import pytest

from dunklops.builders import (build_counterterm, build_Dphi,
                               build_Dphi_squared_expanded, build_Dr,
                               explicit_k2_counterterm, explicit_k2_Dphi,
                               explicit_k2_Dphi_squared, explicit_k2_Dr,
                               explicit_k3_counterterm, explicit_k3_Dphi,
                               explicit_k3_Dphi_squared, explicit_k3_Dr)
from dunklops.coeffring import ZRat, trig
from dunklops.cyclofield import CycloScalar, FieldCtx, ctx_new
from dunklops.exprparse import parse_op, pretty
from dunklops.identities import iter_rows, operator_set, run_suite
from dunklops.opalgebra import (op_I, op_R, op_coeff, op_dphi, op_dr,
                                op_param, op_r, op_zero)
from dunklops.oracle import DEFAULT_SEED, numeric_check, numeric_check_spec

K_RANGE = range(1, 9)


@contextlib.contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {n} ({label}): FAIL")
        raise
    print(f"CRITERION {n} ({label}): PASS")


@pytest.fixture(scope="module")
def shadowed_suite():
    """One full symbolic + oracle pass over k = 1..8, shared by criteria."""
    return run_suite(K_RANGE, oracle=True, trials=100, tol=1e-9,
                     seed=DEFAULT_SEED)


def test_criterion_1_symbolic_suite_k1_to_8():
    with criterion(1, "all checks pass exactly for k=1..8 in under 120 s"):
        start = time.perf_counter()
        reports = run_suite(K_RANGE)
        elapsed = time.perf_counter() - start
        per_k: dict = {}
        for r in reports:
            per_k[r.k] = per_k.get(r.k, 0.0) + r.elapsed_ms / 1000
        by_k = ", ".join(f"k={k}: {s:.1f} s" for k, s in sorted(per_k.items()))
        assert elapsed < 120.0, f"suite took {elapsed:.1f} s ({by_k})"
        assert reports
        for r in reports:
            assert r.status in ("pass", "skipped"), r
            assert r.residual_term_count == 0, r


def test_criterion_2_extension_commutes_with_angular_square():
    with criterion(2, "the extension commutes with the angular square,"
                      " exactly, k=1..8"):
        for k in K_RANGE:
            ops = operator_set(k)
            residual = ops.HkExtPhi * ops.Dphi2 - ops.Dphi2 * ops.HkExtPhi
            assert residual.is_zero(), k


def test_criterion_3_oracle_shadow(shadowed_suite):
    with criterion(3, "every symbolic verdict repeats numerically at"
                      " 100 trials, tol 1e-9, fixed seed"):
        symbolic = [r for r in shadowed_suite
                    if not r.check_id.startswith("oracle:")]
        shadow = {(r.check_id[len("oracle:"):], r.k): r
                  for r in shadowed_suite
                  if r.check_id.startswith("oracle:")}
        ran = [r for r in symbolic if r.status != "skipped"]
        assert ran
        for r in ran:
            assert r.status == "pass"
            twin = shadow[(r.check_id, r.k)]   # every row has its witness
            assert twin.status == "pass", twin
        assert len(shadow) == len(ran)
        # determinism: re-running a sample of rows reproduces the verdicts
        for k in (3, 6):
            again = run_suite([k], suite_filter="dr_props,trig_*",
                              oracle=True, trials=100, tol=1e-9,
                              seed=DEFAULT_SEED)
            for r in again:
                if r.check_id.startswith("oracle:"):
                    first = shadow[(r.check_id[len("oracle:"):], k)]
                    assert (r.status, r.residual_term_count) \
                        == (first.status, first.residual_term_count)
        rep1 = numeric_check(build_Dr(5), build_Dr(5, "dr-drop"),
                             trials=100, seed=DEFAULT_SEED)
        rep2 = numeric_check(build_Dr(5), build_Dr(5, "dr-drop"),
                             trials=100, seed=DEFAULT_SEED)
        assert rep1 == rep2                 # bitwise-identical reports


def test_criterion_4_mutations_flip_their_targets():
    with criterion(4, "seeded defects flip the targeted checks both ways,"
                      " >= 95% of trials over tolerance"):
        # each seeded defect, its k and the checks it must fail
        jobs = [("b-shift", 3, ("dphi_squared", "dphi_props")),
                ("dr-drop", 4, ("dr_props", "dr_dphi_commutator"))]
        for mutation, k, targets in jobs:
            failing = {r.check_id.split("[")[0]
                       for r in run_suite([k], mutation=mutation)
                       if r.status == "fail"}
            assert set(targets) <= failing, (mutation, failing)
            for cid in targets:
                flipped = 0
                for _row, residual, numeric in iter_rows(cid, k, mutation):
                    if residual().is_zero():
                        continue
                    rep = numeric_check_spec(numeric(), k, trials=100,
                                             tol=1e-9, seed=DEFAULT_SEED)
                    assert rep.status == "fail", (mutation, cid, _row)
                    assert rep.num_over_tol >= 95, (mutation, cid, _row, rep)
                    flipped += 1
                assert flipped >= 1, (mutation, cid)


def test_criterion_5_low_k_explicit_forms_reproduced():
    with criterion(5, "general-k builders reproduce the k=3 and k=2"
                      " operators term for term"):
        pairs = [
            (build_Dr(3), explicit_k3_Dr()),
            (build_Dphi(3), explicit_k3_Dphi()),
            (build_counterterm(3), explicit_k3_counterterm()),
            (build_Dphi_squared_expanded(3), explicit_k3_Dphi_squared()),
            (build_Dr(2), explicit_k2_Dr()),
            (build_Dphi(2), explicit_k2_Dphi()),
            (build_counterterm(2), explicit_k2_counterterm()),
            (build_Dphi_squared_expanded(2), explicit_k2_Dphi_squared()),
        ]
        for built, explicit in pairs:
            assert sorted(built.terms) == sorted(explicit.terms)
            for key, coeff in built.terms.items():
                assert coeff == explicit.terms[key], key
            assert built == explicit


def _operator_pool(ctx, rng):
    return [
        op_dr(ctx), op_dphi(ctx), op_R(ctx), op_I(ctx),
        op_r(ctx, rng.choice([-2, -1, 1, 2])),
        op_param(ctx, rng.choice(["a", "b", "w2"])),
        op_coeff(ctx, trig(ctx, "tan_shift", rng.randrange(ctx.k))),
        op_coeff(ctx, trig(ctx, "csc2_shift", rng.randrange(ctx.k))),
        op_coeff(ctx, ctx.imag_unit()),
        op_coeff(ctx, Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
        op_coeff(ctx, ZRat.z_power(ctx, rng.choice([-2, 1, 3]))),
    ]


def _random_operator(ctx, rng):
    pool = _operator_pool(ctx, rng)
    total = op_zero(ctx)
    for _ in range(rng.randint(1, 2)):
        term = rng.choice(pool)
        for _ in range(rng.randint(0, 1)):
            term = term * rng.choice(pool)
        total = total + term
    return total


def test_criterion_6_random_laws_and_roundtrip():
    with criterion(6, "200 random algebra-law cases and 100 printer"
                      " round-trips"):
        rng = random.Random(915)
        cases = 0
        while cases < 200:
            ctx = ctx_new(rng.choice([1, 2, 3]))
            x = _random_operator(ctx, rng)
            y = _random_operator(ctx, rng)
            z = _random_operator(ctx, rng)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z
            assert (x * y).adjoint() == y.adjoint() * x.adjoint()
            assert x.adjoint().adjoint() == x
            cases += 1
        trips = 0
        while trips < 100:
            ctx = ctx_new(rng.choice([1, 2, 3, 4]))
            op = _random_operator(ctx, rng)
            if op.is_zero():
                continue
            assert parse_op(pretty(op), ctx) == op
            trips += 1


def test_criterion_7_scalar_field_behaves():
    with criterion(7, "field axioms and conjugation agree with the numeric"
                      " embedding to 1e-12 for k=1..12"):
        rng = random.Random(62)
        for k in range(1, 13):
            ctx = FieldCtx(k)

            def draw():
                coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(ctx.deg)]
                return CycloScalar(ctx, tuple(coeffs))

            for _ in range(10):
                x, y, z = draw(), draw(), draw()
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert x + (-x) == ctx.zero()
                if not x.is_zero():
                    assert x * x.inv() == ctx.one()
                assert (x * y).conj() == x.conj() * y.conj()
                assert x.conj().conj() == x
                for value in (x, x * y, x.conj()):
                    num = complex(value)
                    ref = complex(value.conj()).conjugate()
                    assert abs(num - ref) <= 1e-12 * max(1.0, abs(num))
            for j in range(ctx.N):
                root = complex(ctx.root_power(j))
                expect = complex(math.cos(2 * math.pi * j / ctx.N),
                                 math.sin(2 * math.pi * j / ctx.N))
                assert abs(root - expect) <= 1e-12
