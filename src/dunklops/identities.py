"""The verification suite: named checks with exact symbolic residuals.

Each check computes LHS - RHS of one structural identity in canonical form;
``status`` is "pass" exactly when the residual has no terms.  Checks whose
parity precondition excludes the given k report "skipped".  A check may have
several rows (one per j value, per relation, per explicit sub-identity);
every row becomes its own CheckReport with a ``base[row]`` id, and
``run_check`` returns them in row order, never folded into one report.

Every row states its identity once, as weighted chains (lhs, rhs), and
both witnesses read that one statement.  An operator row's exact
residual is sum(lhs) - sum(rhs) computed with the symbolic product (each
chain goes into one accumulator by ``opalgebra.deposit_product``, so the
parts the chains share cancel as numerators over common denominators); the
oracle module applies the same chains factor by factor to random test
functions, so the numeric witness never relies on the product routine it is
shadowing.  A trigonometric row's chains are products of leaves such as
sec^2(phi + j pi/k).  On the exact side a leaf is the multiplication
operator by its ``trig`` coefficient, filed like any other factor; the oracle
evaluates its own closed forms.  ``hk_two_forms`` sets the two assemblies of
the extension against each other as ``Assembly`` factors: the exact side
subtracts the two cached sums, the oracle applies the chains that
``OperatorSet.hk_ext`` states for each.

    >>> [r.status for r in run_check("trig_sec2", 3)]
    ['pass']
    >>> [r.status for r in run_check("trig_tan_tan", 1)]  # empty j range
    ['skipped']
    >>> [r.status for r in run_check("dphi_squared", 3, mutation="b-shift")]
    ['fail', 'fail']
"""

from __future__ import annotations

import time
from fnmatch import fnmatchcase
from typing import NamedTuple

# build_Dphi is not called here: perfbench's tracer patches the builders
# imported by value into this module, and its self-test reads this one.
from .builders import (Assembly, OperatorSet, build_Dphi,
                       explicit_k2_counterterm, explicit_k2_Dphi,
                       explicit_k2_Dphi_squared, explicit_k2_Dr,
                       explicit_k3_counterterm, explicit_k3_Dphi,
                       explicit_k3_Dphi_squared, explicit_k3_Dr)
from .coeffring import trig
from .cyclofield import ctx_new
from .errors import AlgebraError
from .opalgebra import OpExpr, op_R, op_coeff, settle

__all__ = ["CheckReport", "CHECK_IDS", "DEFAULT_CHECK_IDS", "DEFAULT_SEED",
           "run_check", "run_suite", "shadow_reports", "iter_rows",
           "applicable", "operator_set", "OperatorSet"]

DEFAULT_SEED = 20260815         # the oracle's sampling seed (re-exported there)
MAX_TRIALS = 10_000             # the oracle's arrays grow with the trials


class CheckReport(NamedTuple):
    check_id: str
    k: int
    status: str                 # "pass" | "fail" | "skipped"
    residual_term_count: int
    residual_sample: str
    elapsed_ms: int

    def to_dict(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# shared operator cache
# ---------------------------------------------------------------------------

_OPSETS: dict = {}


def operator_set(k: int, mutation: str | None = None) -> OperatorSet:
    key = (k, mutation)
    ops = _OPSETS.get(key)
    if ops is None:
        ops = OperatorSet(ctx_new(k), mutation)
        _OPSETS[key] = ops
    return ops


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------
# A row is (row_id, spec_fn); spec_fn() states the identity once:
#     (kind, lhs, rhs)   kind "ops", or "ops-invariant" on group-invariant
#                        functions; lhs/rhs: list[(int, [factor, ...])]
#     ("trig", lhs, rhs) lhs/rhs: list[(int, [(leaf_kind, j), ...])]
# A factor is an OpExpr, a tuple of them (a sub-product) or an Assembly (a
# sum of chains).  OperatorSet.deposit_chain files (Dphi, Dphi) as the
# cached Dphi2 and an Assembly as its cached sum; the oracle
# applies a tuple's members one by one and an Assembly's chains.  A leaf is
# a ``trig`` kind with its unreduced shift j; the exact side files it as
# op_coeff(trig(ctx, kind, j)).  The exact residual is sum(lhs) - sum(rhs),
# with sum(lhs) projected for "ops-invariant".
# iter_rows makes (row_id, residual_fn, numeric_fn) of every row:
#   residual_fn() -> OpExpr                     exact residual, zero iff pass
#   numeric_fn()  -> (kind, lhs, rhs), with plain chains for operators


def _equal(lhs: list, rhs: list, kind: str = "ops"):
    """One chain equals another."""
    return (kind, [(1, lhs)], [(1, rhs)])


def _commutes(x, y, sign: int = -1):
    """x y - y x = 0 (x y + y x = 0 with ``sign`` = 1)."""
    return ("ops", [(1, [x, y]), (sign, [y, x])], [])


def _rows_group_relations(ops: OperatorSet):
    two_k = 2 * ops.ctx.k
    R, I = ops.R, ops.I
    r_inv = op_R(ops.ctx, two_k - 1)
    return [
        ("[R-order]", lambda: _equal([R] * two_k, [])),
        ("[I-square]", lambda: _equal([I, I], [])),
        ("[braid]", lambda: _equal([I, R], [r_inv, I])),
        ("[R-dagger]", lambda: _equal([R.adjoint()], [r_inv])),
        ("[I-dagger]", lambda: _equal([I.adjoint()], [I])),
    ]


def _rows_dr_props(ops: OperatorSet):
    return [
        ("[dagger]", lambda: ("ops", [(1, [ops.Dr.adjoint()])],
                              [(-1, [ops.Dr]),
                               (-1, [ops.inv_r, ops.bracket])])),
        ("[R-commute]", lambda: _commutes(ops.R, ops.Dr)),
        ("[I-commute]", lambda: _commutes(ops.I, ops.Dr)),
    ]


def _rows_dphi_props(ops: OperatorSet):
    return [
        ("[dagger]", lambda: ("ops", [(1, [ops.Dphi.adjoint()])],
                              [(-1, [ops.Dphi])])),
        ("[R-commute]", lambda: _commutes(ops.R, ops.Dphi)),
        ("[I-anticommute]", lambda: _commutes(ops.I, ops.Dphi, sign=1)),
    ]


def _rows_dr_dphi_commutator(ops: OperatorSet):
    return [
        ("[main]", lambda: ("ops", [(1, [ops.Dr, ops.Dphi]),
                                    (-1, [ops.Dphi, ops.Dr])],
                            [(-2, [ops.inv_r, ops.tail, ops.Dphi])])),
    ]


def _rows_shifted_sum(ops: OperatorSet, shift_kind: str, target_kind: str,
                      p: int):
    """sum_i f(phi + i pi/k) = k^p f(k phi), f the leaf ``shift_kind`` and
    f(k phi) the leaf ``target_kind``."""
    k = ops.ctx.k
    return [("[sum]", lambda: ("trig", [(1, [(shift_kind, i)])
                                        for i in range(k)],
                               [(k ** p, [(target_kind, 0)])]))]


def _rows_trig_pair_family(ops: OperatorSet, first: str, second: str,
                           mixed: bool, target: int):
    """Rows for the shifted product sums: for each j in 1..k-1 the sum over i
    of products of shifted tan/cot at offsets i+j and i+2j is the constant
    ``target`` (times 1; the mixed family sums both orders)."""
    k = ops.ctx.k
    pairs = [(first, second), (second, first)] if mixed else [(first, second)]
    spec = lambda j: ("trig", [(1, [(u, i + j), (v, i + 2 * j)])
                               for i in range(k) for u, v in pairs],
                      [(target, [])])
    return [(f"[j={j}]", lambda j=j: spec(j)) for j in range(1, k)]


def _rows_trig_half_angle(ops: OperatorSet):
    return [("[sum]", lambda: ("trig", [(1, [("half_diff_inv2", 0)]),
                                        (1, [("half_sum_inv2", 0)])],
                               [(2, [("sec2_k", 0)])]))]


def _rows_dphi_squared(ops: OperatorSet):
    rows = [("[main]", lambda: _equal([(ops.Dphi, ops.Dphi)],
                                      [ops.Dphi2_expanded]))]
    if ops.ctx.k == 3:
        rows.append(("[k3-explicit]",
                     lambda: _equal([(ops.Dphi, ops.Dphi)],
                                    [explicit_k3_Dphi_squared()])))
    return rows


def _rows_s_props(ops: OperatorSet):
    k = ops.ctx.k
    return [
        ("[R-commute]", lambda: _commutes(ops.R, ops.S)),
        ("[R4-fix]", lambda: _equal([op_R(ops.ctx, 4), ops.S], [ops.S])),
        ("[idempotent]", lambda: ("ops", [(2, [ops.S, ops.S])],
                                  [(k, [ops.S])])),
        ("[I-commute]", lambda: _commutes(ops.I, ops.S)),
        ("[dagger]", lambda: _equal([ops.S.adjoint()], [ops.S])),
    ]


def _rows_hk_two_forms(ops: OperatorSet):
    return [("[main]", lambda: _equal([ops.hk_ext("via_Dphi")],
                                      [ops.hk_ext("via_Dr")]))]


def _rows_hk_invariance(ops: OperatorSet):
    return [
        ("[R-commute]", lambda: _commutes(ops.R, ops.HkExtPhi)),
        ("[I-commute]", lambda: _commutes(ops.I, ops.HkExtPhi)),
    ]


def _rows_hk_projection(ops: OperatorSet):
    return [
        ("[main]", lambda: _equal([ops.HkExtPhi], [ops.Hk], "ops-invariant")),
    ]


def _rows_integral_commutes(ops: OperatorSet):
    return [
        ("[main]", lambda: _commutes(ops.HkExtPhi, (ops.Dphi, ops.Dphi))),
        ("[projected]", lambda: _commutes(ops.Hk, ops.Xk)),
    ]


def _rows_integral_projection(ops: OperatorSet):
    return [
        ("[main]", lambda: ("ops-invariant", [(-1, [(ops.Dphi, ops.Dphi)])],
                            [(1, [ops.Xk]), (-1, [ops.proj_shift])])),
    ]


def _rows_specialization(ops: OperatorSet, pairs):
    """The general-k operator ``getattr(ops, name)`` equals the hand-written
    ``explicit()`` for one k."""
    return [(rid, lambda name=name, explicit=explicit:
             _equal([getattr(ops, name)], [explicit()]))
            for rid, name, explicit in pairs]


def _rows_k3_specialization(ops: OperatorSet):
    return _rows_specialization(ops, [
        ("[Dr]", "Dr", explicit_k3_Dr),
        ("[Dphi]", "Dphi", explicit_k3_Dphi),
        ("[counterterm]", "counterterm", explicit_k3_counterterm),
    ])


def _rows_k2_specialization(ops: OperatorSet):
    return _rows_specialization(ops, [
        ("[Dr]", "Dr", explicit_k2_Dr),
        ("[Dphi]", "Dphi", explicit_k2_Dphi),
        ("[Dphi-squared]", "Dphi2", explicit_k2_Dphi_squared),
        ("[counterterm]", "counterterm", explicit_k2_counterterm),
    ])


def _rows_hk_selfadjoint(ops: OperatorSet):
    return [
        ("[main]", lambda: _equal([ops.HkExtPhi.adjoint()], [ops.HkExtPhi])),
    ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ALWAYS = lambda k: True
_ODD = lambda k: k % 2 == 1
_EVEN = lambda k: k % 2 == 0

_REGISTRY: dict = {
    "group_relations": (_ALWAYS, _rows_group_relations),
    "dr_props": (_ALWAYS, _rows_dr_props),
    "dphi_props": (_ALWAYS, _rows_dphi_props),
    "dr_dphi_commutator": (_ALWAYS, _rows_dr_dphi_commutator),
    "trig_sec2": (_ODD, lambda ops: _rows_shifted_sum(
        ops, "sec2_shift", "sec2_k", 2)),
    "trig_csc2": (_ALWAYS, lambda ops: _rows_shifted_sum(
        ops, "csc2_shift", "csc2_k", 2)),
    "trig_tan_tan": (lambda k: k % 2 == 1 and k >= 3,
                     lambda ops: _rows_trig_pair_family(
                         ops, "tan_shift", "tan_shift", False, -ops.ctx.k)),
    "trig_cot_cot": (lambda k: k % 2 == 1 and k >= 3,
                     lambda ops: _rows_trig_pair_family(
                         ops, "cot_shift", "cot_shift", False, -ops.ctx.k)),
    "trig_mixed": (lambda k: k % 2 == 1 and k >= 3,
                   lambda ops: _rows_trig_pair_family(
                       ops, "tan_shift", "cot_shift", True, 2 * ops.ctx.k)),
    "trig_half_angle": (_EVEN, _rows_trig_half_angle),
    "trig_cot_sum": (_EVEN, lambda ops: _rows_shifted_sum(
        ops, "cot_shift", "cot_k", 1)),
    "dphi_squared": (_ALWAYS, _rows_dphi_squared),
    "s_props": (_EVEN, _rows_s_props),
    "hk_two_forms": (_ALWAYS, _rows_hk_two_forms),
    "hk_invariance": (_ALWAYS, _rows_hk_invariance),
    "hk_projection": (_ALWAYS, _rows_hk_projection),
    "integral_commutes": (_ALWAYS, _rows_integral_commutes),
    "integral_projection": (_ALWAYS, _rows_integral_projection),
    "k3_specialization": (lambda k: k == 3, _rows_k3_specialization),
    "k2_specialization": (lambda k: k == 2, _rows_k2_specialization),
    # Opt-in probe: self-adjointness of the extension is not asserted by the
    # source identities, so the default suite leaves it out; it is available
    # by name (and does hold).
    "hk_selfadjoint": (_ALWAYS, _rows_hk_selfadjoint),
}

CHECK_IDS = tuple(_REGISTRY)
DEFAULT_CHECK_IDS = tuple(cid for cid in _REGISTRY if cid != "hk_selfadjoint")


def applicable(check_id: str, k: int) -> bool:
    if check_id not in _REGISTRY:
        raise AlgebraError(f"unknown check {check_id!r}")
    return _REGISTRY[check_id][0](k)


def _trig_chains(ctx, chains) -> list:
    """Trig chains as operator chains: a leaf (kind, j) is the
    multiplication by ``trig(ctx, kind, j)``."""
    return [(weight, [op_coeff(ctx, trig(ctx, kind, j)) for kind, j in leaves])
            for weight, leaves in chains]


def _exact_residual(ops: OperatorSet, spec) -> OpExpr:
    """sum(lhs) - sum(rhs) of a spec; sum(lhs) is projected onto the
    invariant sector for "ops-invariant".  Every chain, a trig row's as
    multiplication operators, goes into one accumulator through
    ``ops.deposit_chain``, which is settled once."""
    kind, lhs, rhs = spec
    if kind == "trig":
        lhs, rhs = _trig_chains(ops.ctx, lhs), _trig_chains(ops.ctx, rhs)
    acc: dict = {}
    for sign, project, chains in ((1, kind == "ops-invariant", lhs),
                                  (-1, False, rhs)):
        for weight, chain in chains:
            ops.deposit_chain(acc, chain, sign * weight, project)
    return settle(ops.ctx, acc)


def _spread(chains) -> list:
    """Weighted chains as the oracle applies them: a tuple factor spreads
    into its members, an Assembly into its own chains, over which the rest
    of the chain distributes."""
    out = []
    for weight, chain in chains:
        terms = [(weight, [])]
        for f in chain:
            parts = (_spread(f.chains) if isinstance(f, Assembly)
                     else [(1, list(f) if isinstance(f, tuple) else [f])])
            terms = [(w0 * w1, c0 + c1)
                     for w0, c0 in terms for w1, c1 in parts]
        out.extend(terms)
    return out


def _numeric_spec(spec):
    """The spec as the oracle takes it, its chains spread."""
    kind, lhs, rhs = spec
    if kind == "trig":
        return spec
    return kind, _spread(lhs), _spread(rhs)


def iter_rows(check_id: str, k: int, mutation: str | None = None):
    """The (row_id, residual_fn, numeric_fn) rows of one applicable check;
    both functions read the row's one spec."""
    if not applicable(check_id, k):
        return []
    ops = operator_set(k, mutation)
    return [(check_id + rid, lambda spec=spec: _exact_residual(ops, spec()),
             lambda spec=spec: _numeric_spec(spec()))
            for rid, spec in _REGISTRY[check_id][1](ops)]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

_SAMPLE_LIMIT = 240


def _residual_report(row_id: str, k: int, value, elapsed_ms: int) -> CheckReport:
    count = value.term_count()
    sample = ""
    if count:
        from .exprparse import pretty
        key, coeff = value.items()[0]
        sample = pretty(OpExpr(value.ctx, {key: coeff}))
        if len(sample) > _SAMPLE_LIMIT:
            sample = sample[:_SAMPLE_LIMIT] + "..."
    return CheckReport(
        check_id=row_id, k=k,
        status="pass" if count == 0 else "fail",
        residual_term_count=count, residual_sample=sample,
        elapsed_ms=elapsed_ms,
    )


def run_check(check_id: str, k: int, mutation: str | None = None) -> list:
    """All reports of one check at one k (one per row; one "skipped" row when
    the parity precondition excludes k)."""
    if not applicable(check_id, k):
        return [CheckReport(check_id, k, "skipped", 0, "", 0)]
    reports = []
    for row_id, residual_fn, _numeric_fn in iter_rows(check_id, k, mutation):
        start = time.perf_counter()
        value = residual_fn()
        elapsed = int((time.perf_counter() - start) * 1000)
        reports.append(_residual_report(row_id, k, value, elapsed))
    return reports


def _match(check_id: str, pattern: str | None) -> bool:
    if not pattern:
        return True
    return any(fnmatchcase(check_id, pat.strip())
               for pat in pattern.split(",") if pat.strip())


def _row_seed(row_id: str, k: int, seed: int) -> int:
    from zlib import crc32
    return crc32(f"{row_id}:{k}:{seed}".encode())


def shadow_reports(check_id: str, k: int, mutation: str | None = None,
                   trials: int = 100, tol: float = 1e-9,
                   seed: int | None = None) -> list:
    """Numeric-witness reports for one check: each row's specification is
    run through the oracle on ``trials`` random samples.  The report ids are
    prefixed "oracle:"; ``residual_term_count`` carries the number of trials
    whose relative deviation exceeded ``tol``."""
    from .oracle import numeric_check_spec      # loads numpy
    if seed is None:
        seed = DEFAULT_SEED
    reports = []
    for row_id, _residual_fn, numeric_fn in iter_rows(check_id, k, mutation):
        start = time.perf_counter()
        rep = numeric_check_spec(numeric_fn(), k, trials, tol,
                                 _row_seed(row_id, k, seed))
        elapsed = int((time.perf_counter() - start) * 1000)
        sample = ("" if rep.status == "pass"
                  else f"max rel dev {rep.max_rel_dev:.3e}")
        reports.append(CheckReport(
            check_id="oracle:" + row_id, k=k, status=rep.status,
            residual_term_count=rep.num_over_tol, residual_sample=sample,
            elapsed_ms=elapsed,
        ))
    return reports


def run_suite(k_list, suite_filter: str | None = None,
              mutation: str | None = None,
              include_optional: bool = False, oracle: bool = False,
              trials: int = 100, tol: float = 1e-9,
              seed: int | None = None) -> list:
    """Run every applicable check for every k; reports sorted by
    (k, check_id).  ``suite_filter`` is a comma list of glob patterns over
    base check ids ("trig_*,dphi_squared").  With ``oracle`` each row is
    additionally run through the numeric witness; the shadow reports follow
    the symbolic block of the same k."""
    base_ids = CHECK_IDS if include_optional else DEFAULT_CHECK_IDS
    selected = [cid for cid in base_ids if _match(cid, suite_filter)]
    reports = []
    for k in sorted(set(k_list)):
        k_reports = []
        for cid in selected:
            k_reports.extend(run_check(cid, k, mutation))
        k_reports.sort(key=lambda r: r.check_id)
        reports.extend(k_reports)
        if oracle:
            o_reports = []
            for cid in selected:
                o_reports.extend(shadow_reports(cid, k, mutation,
                                                trials, tol, seed))
            o_reports.sort(key=lambda r: r.check_id)
            reports.extend(o_reports)
    return reports
