"""Command-line front end.

    dunklops verify   --k 1..6 [--suite PAT] [--mutate NAME] [--oracle]
    dunklops show     --k 2 --op Dphi          (or positional expressions)
    dunklops norm     --k 3 "I*R*I"
    dunklops commute  --k 3 "Dr" "Dphi"
    dunklops adjoint  --k 3 "Dr"
    dunklops project  --k 4 "HkExt"
    dunklops oracle   --k 4 "HkExt" "HkExtViaDr" [--trials N] [--tol X]

Expressions are first matched whole against the named-operator registry
(R, I, S, Dr, Dphi, Hk, Xk, HkExt, HkExtViaDr) and otherwise parsed with
the expression grammar.  A named operator is built once per process per k,
in the same ``operator_set(k)`` that ``verify`` uses, and shared from then
on.  ``--k`` accepts a single value, a comma list ("1,3,5") or a range
("1..6"); the expression commands want exactly one k.
Exit codes: 0 all pass, 1 any fail, 2 usage or parse error.  The
DUNKLOPS_MAX_K environment variable overrides the ceiling on k.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from fnmatch import fnmatchcase

from .builders import MUTATIONS, OPERATORS
from .cyclofield import ctx_new, max_k_ceiling
from .errors import DunklopsError, ParseError
from .exprparse import parse_op, pretty
from .identities import (CHECK_IDS, DEFAULT_SEED, MAX_TRIALS,
                         operator_set, run_suite)
from .opalgebra import commutator

__all__ = ["main", "parse_k_list"]


def parse_k_list(text: str) -> list:
    """Expand "3", "1,3,5" or "1..6" into k values up to max_k_ceiling()."""
    max_k = max_k_ceiling()
    text = text.strip()
    try:
        if ".." in text:
            lo_txt, hi_txt = text.split("..", 1)
            # a range is checked lazily, so no list of a huge range is built
            ks = range(int(lo_txt), int(hi_txt) + 1)
        else:
            ks = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse k list {text!r}")
    if not ks:
        raise ValueError(f"empty k list {text!r}")
    for k in ks:
        if not 1 <= k <= max_k:
            raise ValueError(f"k={k} outside [1, {max_k}]"
                             " (set DUNKLOPS_MAX_K to change the ceiling)")
    return list(ks)


# The OperatorSet attributes whose names differ from the registry's.
_OPSET_ATTR = {"HkExt": "HkExtPhi", "HkExtViaDr": "HkExtDr"}


def _resolve(text: str, ctx):
    name = text.strip()
    if name in OPERATORS:
        return getattr(operator_set(ctx.k), _OPSET_ATTR.get(name, name))
    return parse_op(text, ctx)


def _print_parse_error(exc: ParseError) -> None:
    print(f"parse error: {exc.args[0]} (at position {exc.pos})",
          file=sys.stderr)
    if exc.text:
        print("  " + exc.text, file=sys.stderr)
        print("  " + " " * exc.pos + "^", file=sys.stderr)


def _report_lines(reports) -> list:
    lines = []
    for r in reports:
        line = (f"{r.status.upper():7} k={r.k:<2} {r.check_id:34} "
                f"residual={r.residual_term_count} ({r.elapsed_ms} ms)")
        if r.status == "fail" and r.residual_sample:
            line += f"\n        sample: {r.residual_sample}"
        lines.append(line)
    return lines


def _emit(reports, args) -> None:
    if args.json:
        payload = json.dumps([r.to_dict() for r in reports], indent=2)
    else:
        payload = "\n".join(_report_lines(reports))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out!r}: {exc.strerror}") \
                from None
    else:
        print(payload)


def _check_numeric_flags(args) -> None:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_TRIALS}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError("--tol must be finite and positive")


def _check_suite_patterns(text: str) -> None:
    """Refuse a --suite list with a pattern that matches no check id, so a
    typo does not verify nothing and pass."""
    patterns = [pat.strip() for pat in text.split(",") if pat.strip()]
    if not patterns:
        raise ValueError("--suite names no check pattern")
    unmatched = [pat for pat in patterns
                 if not any(fnmatchcase(cid, pat) for cid in CHECK_IDS)]
    if unmatched:
        raise ValueError("--suite pattern matches no check id: "
                         + ", ".join(unmatched))


def _check_out_path(path: str) -> None:
    """Refuse an --out path that is a directory or lies in no directory
    before the suite runs; nothing is created.  Other write errors show up
    when the report is written."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise ValueError(f"cannot write {path!r}: {os.strerror(code)}")


def cmd_verify(args) -> int:
    _check_numeric_flags(args)
    if args.suite is not None:
        _check_suite_patterns(args.suite)
    if args.out:
        _check_out_path(args.out)
    ks = parse_k_list(args.k)
    reports = run_suite(
        ks, suite_filter=args.suite, mutation=args.mutate,
        include_optional=bool(args.suite), oracle=args.oracle,
        trials=args.trials, tol=args.tol, seed=args.seed,
    )
    _emit(reports, args)
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        counts[r.status] += 1
    if not args.json and not args.out:
        print(f"-- {counts['pass']} pass, {counts['fail']} fail, "
              f"{counts['skipped']} skipped")
    return 1 if counts["fail"] else 0


def _single_k(args) -> int:
    ks = parse_k_list(args.k)
    if len(ks) != 1:
        raise ValueError("this command wants exactly one k")
    return ks[0]


def cmd_show(args) -> int:
    ctx = ctx_new(_single_k(args))
    names = list(args.expr)
    if args.op:
        names.insert(0, args.op)
    if not names:
        raise ValueError("nothing to show: give --op NAME or an expression")
    for name in names:
        print(pretty(_resolve(name, ctx)))
    return 0


# The expression commands: name -> (help, operands, what is printed).  The
# methods are called through lambdas, so that a patched OpExpr method runs.
_EXPR_COMMANDS = {
    "norm": ("normal-order an expression", ("expr",), lambda x: x),
    "commute": ("commutator of two expressions", ("lhs", "rhs"), commutator),
    "adjoint": ("formal adjoint of an expression", ("expr",),
                lambda x: x.adjoint()),
    "project": ("identity-representation projection of an expression",
                ("expr",), lambda x: x.project_identity()),
}


def cmd_expr(args) -> int:
    _, operands, fn = _EXPR_COMMANDS[args.command]
    ctx = ctx_new(_single_k(args))
    print(pretty(fn(*[_resolve(getattr(args, name), ctx)
                      for name in operands])))
    return 0


def cmd_oracle(args) -> int:
    from .oracle import numeric_check       # loads numpy
    _check_numeric_flags(args)
    ctx = ctx_new(_single_k(args))
    lhs, rhs = _resolve(args.lhs, ctx), _resolve(args.rhs, ctx)
    report = numeric_check(lhs, rhs, trials=args.trials, tol=args.tol,
                           seed=args.seed)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"{report.status}: max rel dev {report.max_rel_dev:.3e} "
              f"over {report.trials} trials (tol {report.tol:g}, "
              f"seed {report.seed})")
    return 0 if report.status == "pass" else 1


class _ArgParser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops a failed write of the help; let a closed stdout
        # raise, as any other output does
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    top = _ArgParser(
        prog="dunklops",
        description="Exact verification suite for dihedral differential-"
                    "difference operators.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, summary, fn, operands=()):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--k", required=True,
                       help="k value, comma list, or range like 1..6")
        for operand in operands:
            p.add_argument(operand)
        p.set_defaults(fn=fn)
        return p

    def numeric(p):
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    verify = command("verify", "run the identity suite", cmd_verify)
    verify.add_argument("--suite", help="comma list of check-id globs")
    verify.add_argument("--mutate", choices=MUTATIONS,
                        help="apply a documented mutation (expect failures)")
    verify.add_argument("--oracle", action="store_true",
                        help="also run the numeric shadow of every row")
    numeric(verify)
    verify.add_argument("--json", action="store_true",
                        help="emit the reports as a JSON array")
    verify.add_argument("--out", help="write the report to a file")

    show = command("show", "print named or ad-hoc operators", cmd_show)
    show.add_argument("--op", help="a name from the operator registry")
    show.add_argument("expr", nargs="*", help="operator expressions")

    for name, (summary, operands, _) in _EXPR_COMMANDS.items():
        command(name, summary, cmd_expr, operands)

    orc = command("oracle", "numeric comparison of two expressions",
                  cmd_oracle, ("lhs", "rhs"))
    numeric(orc)
    orc.add_argument("--json", action="store_true")
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:           # --help, or a usage error
            code = int(exc.code or 0)
        else:
            code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): flush what is still buffered
        # into devnull, so that the flush at exit cannot fail again, then
        # give the descriptor its pipe back, so a later call fails as well
        fd = sys.stdout.fileno()
        saved, devnull = os.dup(fd), os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fd)
            sys.stdout.flush()
        finally:
            os.dup2(saved, fd)
            os.close(saved)
            os.close(devnull)
        return 1
    except ParseError as exc:
        _print_parse_error(exc)
        return 2
    except (ValueError, DunklopsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    sys.exit(main())
