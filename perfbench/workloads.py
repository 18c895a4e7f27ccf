"""The three benchmark workloads and their known-answer gates.

Each workload has a set-up step, a list of requests per pass, a timed call
per request and a check of each outcome that runs after the timed phase.
Why each workload exists is written down in README.md next to this file.

The known answers are stated here, not derived from the program: which
checks apply at which k, and which checks each documented mutation breaks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

# Base check ids of the default suite and the k in 1..5 at which each
# applies; every other (check, k) must report "skipped".
ALL_K = frozenset(range(1, 6))
CHECKS = {
    "group_relations": ALL_K,
    "dr_props": ALL_K,
    "dphi_props": ALL_K,
    "dr_dphi_commutator": ALL_K,
    "trig_sec2": frozenset({1, 3, 5}),
    "trig_csc2": ALL_K,
    "trig_tan_tan": frozenset({3, 5}),
    "trig_cot_cot": frozenset({3, 5}),
    "trig_mixed": frozenset({3, 5}),
    "trig_half_angle": frozenset({2, 4}),
    "trig_cot_sum": frozenset({2, 4}),
    "dphi_squared": ALL_K,
    "s_props": frozenset({2, 4}),
    "hk_two_forms": ALL_K,
    "hk_invariance": ALL_K,
    "hk_projection": ALL_K,
    "integral_commutes": ALL_K,
    "integral_projection": ALL_K,
    "k3_specialization": frozenset({3}),
    "k2_specialization": frozenset({2}),
}

# (mutation, k, checks it must break): the criterion-4 sentinels.
SENTINELS = (
    ("b-shift", 3, ("dphi_squared", "dphi_props")),
    ("dr-drop", 4, ("dr_props", "dr_dphi_commutator")),
)

TRIALS = 100
TOL = 1e-9
MIN_FLIPPED = 95            # trials over tolerance a mutated row must show


def _capture(fn, *args):
    """Run ``fn`` with stdout and stderr captured; (result, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue()


def _requests(ks, mislabel: bool) -> list:
    """(k, checks, mutation, expected mutation): the default suite at each
    k, then the sentinels.  With ``mislabel`` the sentinels are expected to
    pass, which is a wrong answer the gate must catch."""
    reqs = [(k, tuple(CHECKS), None, None) for k in ks]
    return reqs + [(k, targets, mutation, None if mislabel else mutation)
                   for mutation, k, targets in SENTINELS]


def _problem(req, rows, skipped_row: bool, broken):
    """Why ``rows`` (base check id, row id, status, count) are not the
    answer to ``req``, or None.  Unmutated, every check passes where it
    applies; elsewhere it has one "skipped" row if ``skipped_row``, else
    none.  Mutated, ``broken(row)`` holds for some row of every target."""
    k, cids, _mutation, label = req
    stray = {r[0] for r in rows} - set(cids)
    if stray:
        return f"k={k}: rows of unexpected checks {sorted(stray)}"
    for cid in cids:
        mine = [r for r in rows if r[0] == cid]
        if label is not None:
            if not any(broken(r) for r in mine):
                return f"k={k}: {label} left {cid} unbroken"
        elif k not in CHECKS[cid]:
            want = [(cid, cid, "skipped", 0)] if skipped_row else []
            if mine != want:
                return f"k={k}: {cid} should be skipped"
        elif not mine:
            return f"k={k}: {cid} has no rows"
        else:
            for _cid, row_id, status, count in mine:
                if status != "pass" or count:
                    return f"k={k}: row {row_id} {status}"
    return None


class Workload:
    """Common shape: requests are tuples, outcomes whatever ``call`` returns
    and ``check`` returns None for a right outcome or a reason."""

    ks: tuple = ()

    def __init__(self, seed: int, mislabel: bool = False):
        self.seed = seed
        self.mislabel = mislabel

    def setup(self):
        from dunklops import cli  # noqa: F401  (the import is the set-up)

    def requests(self, pass_index: int) -> list:
        raise NotImplementedError

    def call(self, req):
        raise NotImplementedError

    def check(self, req, outcome):
        raise NotImplementedError

    def check_all(self, pairs) -> list:
        return [self.check(req, outcome) for req, outcome in pairs]


# ---------------------------------------------------------------------------
# suite: the exact identity suite through the CLI
# ---------------------------------------------------------------------------


class Suite(Workload):
    """``dunklops verify --k K`` for K = 1..5, then the two mutation
    sentinels, ``--k 3 --mutate b-shift --suite dphi_squared,dphi_props``
    and ``--k 4 --mutate dr-drop --suite dr_props,dr_dphi_commutator``.
    The suite has no random input; the seed is recorded only."""

    ks = (1, 2, 3, 4, 5)

    def requests(self, pass_index):
        return _requests(self.ks, self.mislabel)

    def call(self, req):
        from dunklops import cli
        k, cids, mutation, _label = req
        argv = ["verify", "--k", str(k), "--json"]
        if mutation:
            argv += ["--suite", ",".join(cids), "--mutate", mutation]
        return _capture(cli.main, argv)

    def check(self, req, outcome):
        rc, text = outcome
        try:
            rows = [(r["check_id"].split("[")[0], r["check_id"], r["status"],
                     r["residual_term_count"]) for r in json.loads(text)]
        except (ValueError, KeyError, TypeError, AttributeError):
            return f"unreadable report (exit {rc})"
        if rc != (1 if req[3] else 0):
            return f"exit {rc}"
        return _problem(req, rows, True,
                        lambda r: r[2] == "fail" and r[3] > 0)


# ---------------------------------------------------------------------------
# shadow: the numeric oracle on prebuilt operators
# ---------------------------------------------------------------------------


class Shadow(Workload):
    """``shadow_reports`` of every default check at k = 3, 4, 5 on operator
    sets built during set-up, then the oracle side of the sentinels.  The
    seed is the oracle's sampling seed."""

    ks = (3, 4, 5)

    def setup(self):
        from functools import cached_property

        from dunklops.identities import OperatorSet, operator_set
        names = [n for n, v in vars(OperatorSet).items()
                 if isinstance(v, cached_property)]
        for k in self.ks:
            ops = operator_set(k)
            for name in names:
                if name != "S" or k % 2 == 0:       # S exists for even k only
                    getattr(ops, name)

    def requests(self, pass_index):
        return _requests(self.ks, self.mislabel)

    def call(self, req):
        from dunklops import identities
        k, cids, mutation, _label = req
        return [r for cid in cids
                for r in identities.shadow_reports(
                    cid, k, mutation, trials=TRIALS, tol=TOL, seed=self.seed)]

    def check(self, req, outcome):
        rows = []
        for r in outcome:
            row_id = r.check_id.removeprefix("oracle:")
            rows.append((row_id.split("[")[0], row_id, r.status,
                         r.residual_term_count))
        return _problem(req, rows, False,
                        lambda r: r[2] == "fail" and r[3] >= MIN_FLIPPED)


# ---------------------------------------------------------------------------
# repl: many small interactive requests
# ---------------------------------------------------------------------------

REGISTRY = ("R", "I", "S", "Dr", "Dphi", "Hk", "Xk", "HkExt", "HkExtViaDr")
COMMANDS = ("norm", "commute", "adjoint", "project")
EXPR_PER_REGISTRY = 3          # random expressions per registry request
ORACLE_TRIALS = 8


def _registry_names(k):
    return [n for n in REGISTRY if n != "S" or k % 2 == 0]


def _factor(rng: random.Random, k: int, kind: str) -> str:
    if kind == "scalar":
        return rng.choice([f"{rng.randint(1, 9)}/{rng.randint(2, 7)}",
                           "i", "zeta", f"(-{rng.randint(2, 5)})",
                           "(1 + i)", f"zeta^{rng.randint(2, 5)}"])
    if kind == "param":
        return rng.choice(["a", "b", "w2", "a^2", "(a + b)", "(a - b)"])
    if kind == "radial":
        return rng.choice(["r", "r^-1", "r^-2", "r^2"])
    if kind == "angular":
        return rng.choice(["z", "z^-1", "z^2", "z^-2"])
    if kind == "trig":
        j = rng.randrange(2 * k)
        arg = "phi" if j == 0 else f"phi {rng.choice('+-')} {j}*pi/k"
        name = rng.choice(["tan", "cot", "sec2", "csc2"])
        return rng.choice([f"{name}({arg})", f"{name}({arg})", "seck(phi)",
                           "tank(phi)", f"(tan({arg}))^-1", "(1 - z^2)^-1",
                           "(1 + z^2)^-1"])
    if kind == "group":
        options = ["R", f"R^{rng.randrange(2 * k)}", "I", "R*I"]
        if k % 2 == 0:
            options.append("S")
        return rng.choice(options)
    return rng.choice(["dr", "dphi", "dr", "dphi", "dphi^2"])


_KINDS = ("scalar", "param", "radial", "angular", "trig", "group", "diff")


def _expression(rng: random.Random, k: int, max_terms: int) -> str:
    """A random expression; never starts with '-', which the CLI would take
    for an option."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        kinds = rng.sample(_KINDS, rng.randint(1, 4))
        term = "*".join(_factor(rng, k, kind) for kind in kinds)
        if term not in terms:               # "x - x" would be the zero op
            terms.append(term)
    text = terms[0]
    for term in terms[1:]:
        text += f" {rng.choice('+-')} {term}"
    return text


class Repl(Workload):
    """One client, closed loop: each request is a ``norm``/``commute``/
    ``adjoint``/``project`` command run in-process with stdout captured.

    A pass holds every (command, k, registry name) once, the commutators
    pairing each name with ``Dr`` (``Dr`` with ``Dphi``), plus three random
    grammar expressions per registry request with the same command and k.
    So the registry share is fixed at 1/4 and every pass carries the same
    heavy requests, which keeps the tail percentile comparable between
    seeds; the seed draws the expressions and the order."""

    ks = (1, 2, 3, 4)

    def requests(self, pass_index):
        rng = random.Random(f"{self.seed}:{pass_index}")
        reqs = []
        for k in self.ks:
            for name in _registry_names(k):
                for cmd in COMMANDS:
                    if cmd == "commute":
                        partner = "Dphi" if name == "Dr" else "Dr"
                        reqs.append((cmd, k, (name, partner)))
                        for _ in range(EXPR_PER_REGISTRY):
                            reqs.append((cmd, k, (_expression(rng, k, 2),
                                                  _expression(rng, k, 2))))
                    else:
                        reqs.append((cmd, k, (name,)))
                        for _ in range(EXPR_PER_REGISTRY):
                            reqs.append((cmd, k, (_expression(rng, k, 4),)))
        rng.shuffle(reqs)
        return reqs

    def call(self, req):
        from dunklops import cli
        cmd, k, exprs = req
        return _capture(cli.main, [cmd, "--k", str(k), *exprs])

    def check_all(self, pairs):
        """Exit 0, a printed result that re-parses to itself, and for
        commutators agreement with the oracle's un-normalized chains
        x*y - y*x.  Repeated outcomes are checked once."""
        memo: dict = {}
        verdicts = []
        for (cmd, k, exprs), (rc, text) in pairs:
            key = (cmd, k, exprs, rc, text)
            if key not in memo:
                memo[key] = self._verdict(cmd, k, exprs, rc, text)
            verdicts.append(memo[key])
        return verdicts

    def _verdict(self, cmd, k, exprs, rc, text):
        from dunklops.builders import OPERATORS
        from dunklops.cyclofield import ctx_new
        from dunklops.errors import DunklopsError, OracleError
        from dunklops.exprparse import parse_op, pretty
        from dunklops.oracle import numeric_check_spec

        if rc != 0:
            return f"exit {rc}"
        ctx = ctx_new(k)
        printed = text.strip()
        try:
            result = parse_op(printed, ctx)
            if pretty(result) != printed:
                return "printed result is not a fixed point"
            if cmd != "commute":
                return None
            x, y = (OPERATORS[e](ctx) if e in OPERATORS else parse_op(e, ctx)
                    for e in exprs)
            if self.mislabel:
                x, y = y, x
            spec = ("ops", [(1, [result])], [(1, [x, y]), (-1, [y, x])])
            try:
                report = numeric_check_spec(spec, k, trials=ORACLE_TRIALS,
                                            tol=TOL, seed=self.seed)
            except OracleError:
                # Every chain vanished on every sample (x*y = y*x = 0, as
                # for x = 1 + I, y = 1 - I), so the commutator must be 0.
                return None if result.is_zero() else "nonzero commutator"
        except DunklopsError as exc:
            return f"{type(exc).__name__}: {exc}"
        if report.status != "pass":
            return f"oracle disagrees (max rel dev {report.max_rel_dev:.2e})"
        return None


WORKLOADS = {"suite": Suite, "shadow": Shadow, "repl": Repl}
