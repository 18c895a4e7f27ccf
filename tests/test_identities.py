"""The identity suite: registry, reports, gating, filters, mutations."""

from fractions import Fraction

import pytest

from dunklops import identities
from dunklops.builders import MUTATIONS
from dunklops.coeffring import Coefficient, ZRat, _den_tuple, trig
from dunklops.errors import AlgebraError
from dunklops.exprparse import pretty_zrat
from dunklops.identities import (CHECK_IDS, DEFAULT_CHECK_IDS, CheckReport,
                                 applicable, iter_rows, operator_set,
                                 run_check, run_suite, shadow_reports)
from dunklops.opalgebra import op_dr
from dunklops.oracle import numeric_check_spec

EXPECTED_IDS = {
    "group_relations", "dr_props", "dphi_props", "dr_dphi_commutator",
    "trig_sec2", "trig_csc2", "trig_tan_tan", "trig_cot_cot", "trig_mixed",
    "trig_half_angle", "trig_cot_sum", "dphi_squared", "s_props",
    "hk_two_forms", "hk_invariance", "hk_projection", "integral_commutes",
    "integral_projection", "k3_specialization", "k2_specialization",
    "hk_selfadjoint",
}


def strip_timing(reports):
    return [(r.check_id, r.k, r.status, r.residual_term_count,
             r.residual_sample) for r in reports]


def test_registry_contents():
    assert set(CHECK_IDS) == EXPECTED_IDS
    assert set(DEFAULT_CHECK_IDS) == EXPECTED_IDS - {"hk_selfadjoint"}


def test_applicability_matrix():
    odd_only = {"trig_sec2"}
    even_only = {"trig_half_angle", "trig_cot_sum", "s_props"}
    odd_pairs = {"trig_tan_tan", "trig_cot_cot", "trig_mixed"}
    for cid in EXPECTED_IDS:
        for k in range(1, 7):
            expect = True
            if cid in odd_only:
                expect = k % 2 == 1
            elif cid in even_only:
                expect = k % 2 == 0
            elif cid in odd_pairs:
                expect = k % 2 == 1 and k >= 3
            elif cid == "k3_specialization":
                expect = k == 3
            elif cid == "k2_specialization":
                expect = k == 2
            assert applicable(cid, k) is expect, (cid, k)


def test_unknown_check_id():
    with pytest.raises(AlgebraError):
        applicable("nope", 3)
    with pytest.raises(AlgebraError):
        run_check("nope", 3)


def test_report_shape():
    (report,) = run_check("dr_dphi_commutator", 2)
    assert isinstance(report, CheckReport)
    assert report.check_id == "dr_dphi_commutator[main]"
    assert report.k == 2
    assert report.status == "pass"
    assert report.residual_term_count == 0
    assert report.residual_sample == ""
    assert report.elapsed_ms >= 0
    d = report.to_dict()
    assert list(d) == ["check_id", "k", "status", "residual_term_count",
                       "residual_sample", "elapsed_ms"]


def test_row_suffixes():
    ids = [r.check_id for r in run_check("group_relations", 2)]
    assert ids == ["group_relations[R-order]", "group_relations[I-square]",
                   "group_relations[braid]", "group_relations[R-dagger]",
                   "group_relations[I-dagger]"]


def test_skip_is_one_base_report():
    (report,) = run_check("s_props", 3)
    assert report.check_id == "s_props"
    assert report.status == "skipped"
    assert report.residual_term_count == 0
    assert iter_rows("s_props", 3) == []


def test_pair_family_rows_scale_with_k():
    ids = [r.check_id for r in run_check("trig_tan_tan", 5)]
    assert ids == [f"trig_tan_tan[j={j}]" for j in range(1, 5)]
    mixed = [r.check_id for r in run_check("trig_mixed", 3)]
    assert mixed == ["trig_mixed[j=1]", "trig_mixed[j=2]"]


def test_default_suite_all_pass_k1_to_4():
    reports = run_suite([1, 2, 3, 4])
    assert len(reports) == 137
    assert {r.status for r in reports} <= {"pass", "skipped"}
    for r in reports:
        if r.status == "pass":
            assert r.residual_term_count == 0
            assert r.residual_sample == ""
    # ordered by k, then check id within each k
    ks = [r.k for r in reports]
    assert ks == sorted(ks)
    for k in (1, 2, 3, 4):
        ids = [r.check_id for r in reports if r.k == k]
        assert ids == sorted(ids)


def test_suite_accepts_unsorted_k_and_filter():
    reports = run_suite([3, 1], suite_filter="trig_*")
    assert [r.k for r in reports] == sorted(r.k for r in reports)
    assert all(r.check_id.startswith("trig_") for r in reports)
    both = run_suite([2], suite_filter="group_*, s_props")
    bases = {r.check_id.split("[")[0] for r in both}
    assert bases == {"group_relations", "s_props"}


def test_optional_check_is_opt_in():
    assert not any(r.check_id.startswith("hk_selfadjoint")
                   for r in run_suite([2]))
    opted = run_suite([2], suite_filter="hk_selfadjoint",
                      include_optional=True)
    assert [r.status for r in opted] == ["pass"]
    # and it genuinely holds
    assert [r.status for r in run_check("hk_selfadjoint", 3)] == ["pass"]


def test_mutation_b_shift_flips_documented_checks():
    reports = run_suite([3], mutation="b-shift")
    failing = {r.check_id.split("[")[0] for r in reports
               if r.status == "fail"}
    assert failing == {"dphi_props", "dphi_squared", "dr_dphi_commutator",
                       "hk_invariance", "hk_projection", "integral_commutes",
                       "integral_projection", "k3_specialization"}
    assert {"dphi_squared", "dphi_props"} <= failing


def test_mutation_dr_drop_flips_documented_checks():
    reports = run_suite([4], mutation="dr-drop")
    failing = {r.check_id.split("[")[0] for r in reports
               if r.status == "fail"}
    assert failing == {"dr_props", "dr_dphi_commutator", "hk_two_forms"}
    assert {"dr_props", "dr_dphi_commutator"} <= failing


def test_fail_reports_carry_a_sample():
    reports = [r for r in run_suite([3], mutation="b-shift")
               if r.status == "fail"]
    for r in reports:
        assert r.residual_term_count > 0
        assert r.residual_sample
        assert len(r.residual_sample) <= 250


def test_operator_set_caching():
    assert operator_set(3) is operator_set(3)
    assert operator_set(3, "b-shift") is not operator_set(3)
    assert operator_set(3, "b-shift").Dphi != operator_set(3).Dphi


def test_shadow_reports_deterministic():
    kwargs = dict(trials=8, tol=1e-9, seed=123)
    first = shadow_reports("dphi_props", 2, **kwargs)
    second = shadow_reports("dphi_props", 2, **kwargs)
    assert strip_timing(first) == strip_timing(second)
    assert all(r.check_id.startswith("oracle:dphi_props[") for r in first)
    assert all(r.status == "pass" for r in first)
    third = shadow_reports("dphi_props", 2, trials=8, tol=1e-9, seed=124)
    assert strip_timing(third) != strip_timing(first) or all(
        r.residual_sample == "" for r in first)


def test_suite_with_oracle_interleaves_blocks():
    reports = run_suite([2], oracle=True, trials=6, seed=5)
    names = [r.check_id for r in reports]
    sym = [n for n in names if not n.startswith("oracle:")]
    shadow = [n for n in names if n.startswith("oracle:")]
    assert sym and shadow
    # oracle block follows the symbolic block
    assert names.index(shadow[0]) > names.index(sym[-1])
    # shadow rows mirror exactly the non-skipped symbolic rows
    ran = {r.check_id for r in reports if r.status != "skipped"
           and not r.check_id.startswith("oracle:")}
    assert {n[len("oracle:"):] for n in shadow} == ran
    # skipped checks contribute no oracle rows (trig_sec2 is odd-k only)
    assert not any(n.startswith("oracle:trig_sec2") for n in shadow)
    assert all(r.status == "pass" for r in reports if r.check_id in shadow)


def test_oracle_rows_flag_mutations():
    reports = run_suite([3], suite_filter="dphi_squared", mutation="b-shift",
                        oracle=True, trials=10, seed=9)
    oracle_fail = [r for r in reports if r.check_id.startswith("oracle:")
                   and r.status == "fail"]
    assert oracle_fail
    for r in oracle_fail:
        assert r.residual_term_count >= 9      # over-tol in >= 90% of trials
        assert "max rel dev" in r.residual_sample


@pytest.mark.parametrize("mutation", [None, *sorted(MUTATIONS)])
def test_every_row_is_one_spec(mutation):
    """Every row of every check is (row_id, spec_fn), and spec_fn() is the
    one (kind, lhs, rhs) statement both witnesses read."""
    for k in range(1, 9):
        ops = operator_set(k, mutation)
        for cid in CHECK_IDS:
            if not applicable(cid, k):
                continue
            for row in identities._REGISTRY[cid][1](ops):
                assert len(row) == 2, (cid, k, row)
                rid, spec_fn = row
                assert isinstance(rid, str) and rid.startswith("["), cid
                kind, lhs, rhs = spec_fn()
                assert kind in ("ops", "ops-invariant", "trig"), cid + rid
                assert isinstance(lhs, list) and isinstance(rhs, list)


def _hand_listed_hk_two_forms(ops):
    """Both assemblies of the extension written out as the chains the
    oracle applies: the generic dr via Dphi against Dr."""
    dr, dphi = op_dr(ops.ctx), ops.Dphi
    lhs = [(-1, [dr, dr]), (-1, [ops.inv_r, dr]),
           (-1, [ops.inv_r2, dphi, dphi]),
           (1, [ops.inv_r2, ops.counterterm]), (1, [ops.osc])]
    rhs = [(-1, [ops.Dr, ops.Dr]), (-1, [ops.inv_r, ops.bracket, ops.Dr]),
           (-1, [ops.inv_r2, dphi, dphi]), (1, [ops.osc])]
    return ("ops", lhs, rhs)


@pytest.mark.parametrize("mutation", [None, *sorted(MUTATIONS)])
def test_hk_two_forms_spreads_into_the_hand_listed_chains(mutation):
    """The oracle reads the same chains in the same order, each factor with
    the same terms and monomials in the same order, so its sums stay bit
    for bit."""
    for k in range(1, 9):
        ops = operator_set(k, mutation)
        [(_row_id, _residual_fn, numeric_fn)] = iter_rows("hk_two_forms", k,
                                                          mutation)
        kind, lhs, rhs = numeric_fn()
        want_kind, want_lhs, want_rhs = _hand_listed_hk_two_forms(ops)
        assert kind == want_kind
        for got, want in ((lhs, want_lhs), (rhs, want_rhs)):
            assert [w for w, _ in got] == [w for w, _ in want], k
            for (_, got_chain), (_, want_chain) in zip(got, want):
                assert len(got_chain) == len(want_chain), k
                for g, w in zip(got_chain, want_chain):
                    assert g == w, k
                    assert list(g.terms) == list(w.terms), k
                    for key, c in g.terms.items():
                        assert list(c.terms) == list(w.terms[key].terms), k


def test_exact_and_numeric_witnesses_agree_on_every_row():
    # Both witnesses read one spec per operator row; on every default row,
    # with and without a mutation, they must reach the same verdict.
    disagree, rows = [], 0
    for mutation in (None, *sorted(MUTATIONS)):
        for k in (1, 2, 3, 4):
            for cid in DEFAULT_CHECK_IDS:
                for row_id, residual_fn, numeric_fn in iter_rows(cid, k,
                                                                 mutation):
                    rows += 1
                    exact = residual_fn().is_zero()
                    numeric = numeric_check_spec(numeric_fn(), k,
                                                 trials=40).status == "pass"
                    if exact != numeric:
                        disagree.append((mutation, k, row_id, exact))
    assert rows == 342
    assert not disagree


# ---------------------------------------------------------------------------
# trig rows: one statement, both witnesses
# ---------------------------------------------------------------------------

_SHIFTED_SUMS = {"trig_sec2": ("sec2_shift", "sec2_k", 2),
                 "trig_csc2": ("csc2_shift", "csc2_k", 2),
                 "trig_cot_sum": ("cot_shift", "cot_k", 1)}
_PAIR_FAMILIES = {"trig_tan_tan": ("tan_shift", "tan_shift", False, -1),
                  "trig_cot_cot": ("cot_shift", "cot_shift", False, -1),
                  "trig_mixed": ("tan_shift", "cot_shift", True, 2)}


def _reference_trig(ctx, check_id, row_id):
    """(sum(lhs), residual) of a trig row, by the left-fold ZRat sums the
    rows were once written with, independent of the row's statement."""
    k, total = ctx.k, ZRat.const(ctx, 0)
    if check_id in _SHIFTED_SUMS:
        shift, target, p = _SHIFTED_SUMS[check_id]
        for i in range(k):
            total = total + trig(ctx, shift, i)
        rhs = ctx.scalar(k ** p) * (trig(ctx, "tan_k").inv()
                                    if target == "cot_k"
                                    else trig(ctx, target))
    elif check_id == "trig_half_angle":
        total = trig(ctx, "half_diff_inv2") + trig(ctx, "half_sum_inv2")
        rhs = ctx.scalar(2) * trig(ctx, "sec2_k")
    else:
        first, second, mixed, per_k = _PAIR_FAMILIES[check_id]
        j = int(row_id[len(check_id) + len("[j="):-1])
        for i in range(k):
            total = total + trig(ctx, first, i + j) * trig(ctx, second,
                                                           i + 2 * j)
            if mixed:
                total = total + (trig(ctx, second, i + j)
                                 * trig(ctx, first, i + 2 * j))
        rhs = ctx.scalar(per_k * k)
    return total, total - rhs


def _assert_canonical(zr):
    assert not zr.num or any(zr.num[-1]), zr
    assert all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for row in zr.num for v in row), zr
    assert zr.den == _den_tuple(dict(zr.den)), zr
    assert zr == ZRat._make(zr.ctx, list(zr.num), dict(zr.den)), zr


def _lone_zrat(op):
    """The ZRat an operator multiplies by, for one with no r, parameter or
    generator: its lone (0, 0, 0, 0) coefficient's (0, 0, 0, 0) term."""
    assert set(op.terms) <= {(0, 0, 0, 0)}, op
    coeff = op.terms.get((0, 0, 0, 0), Coefficient(op.ctx, {}))
    assert set(coeff.terms) <= {(0, 0, 0, 0)}, op
    return coeff.terms.get((0, 0, 0, 0), ZRat.const(op.ctx, 0))


def _left_fold(ctx, spec):
    """sum(lhs) - sum(rhs) of a trig spec, by left-fold ZRat sums of its
    leaf products."""
    _kind, lhs, rhs = spec
    total = ZRat.const(ctx, 0)
    for sign, chains in ((1, lhs), (-1, rhs)):
        for weight, leaves in chains:
            product = ZRat.const(ctx, sign * weight)
            for kind, j in leaves:
                product = product * trig(ctx, kind, j)
            total = total + product
    return total


def _trig_specs(check_id, k):
    ops = operator_set(k)
    return ops, [(check_id + rid, spec_fn())
                 for rid, spec_fn in identities._REGISTRY[check_id][1](ops)]


@pytest.mark.parametrize("k", range(1, 9))
def test_trig_residuals_match_the_left_fold_reference(k):
    rows = 0
    for cid in [c for c in DEFAULT_CHECK_IDS if c.startswith("trig_")]:
        if not applicable(cid, k):
            continue
        ops, specs = _trig_specs(cid, k)
        for row_id, spec in specs:
            kind, lhs, rhs = spec
            assert kind == "trig"
            want_lhs, want = _reference_trig(ops.ctx, cid, row_id)
            got = _lone_zrat(identities._exact_residual(ops, spec))
            got_lhs = _lone_zrat(identities._exact_residual(ops,
                                                            ("trig", lhs, [])))
            assert got == want, row_id
            assert got_lhs == want_lhs, row_id
            _assert_canonical(got)
            _assert_canonical(got_lhs)
            rows += 1
    assert rows


def _seeded_defects():
    """Two wrong statements at k = 3: trig_csc2 with the weight k^2 + 1, and
    trig_mixed[j=1] with its first product's second shift one too high."""
    _ops, [(_rid, (kind, lhs, [(_w, target)]))] = _trig_specs("trig_csc2", 3)
    yield "csc2-weight", 3, (kind, lhs, [(3 ** 2 + 1, target)])
    _ops, [(_rid, (kind, lhs, rhs)), *_] = _trig_specs("trig_mixed", 3)
    (w, [u, (v, j)]), *rest = lhs
    yield "mixed-shift", 3, (kind, [(w, [u, (v, j + 1)]), *rest], rhs)


@pytest.mark.parametrize("name, k, spec", list(_seeded_defects()))
def test_seeded_trig_statement_defects_reach_both_witnesses(name, k, spec):
    residual = identities._exact_residual(operator_set(k), spec)
    assert not residual.is_zero()
    # the exact report: one operator term, shown as the left-fold residual
    rep = identities._residual_report(name, k, residual, 0)
    assert rep.status == "fail"
    assert rep.residual_term_count == 1
    assert rep.residual_sample == pretty_zrat(_left_fold(residual.ctx, spec))
    rep = numeric_check_spec(spec, k, trials=100)
    assert rep.status == "fail"
    assert rep.num_over_tol >= 95
