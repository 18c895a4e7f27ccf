"""Self-tests of the benchmark: the known-answer gate, the tracer and the
metric names.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Exit code 0 when every check holds; each broken check is printed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

PROBLEMS: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        PROBLEMS.append(what)


def gate_rejects_wrong_answers():
    from workloads import CHECKS, Repl, Shadow, Suite

    targets = ("dphi_squared", "dphi_props")
    broken = (3, targets, "b-shift", "b-shift")
    suite = Suite(seed=1)
    outcome = suite.call(broken)
    expect(suite.check(broken, outcome) is None,
           "suite gate accepts a mutated report labelled mutated")
    expect(suite.check(broken[:3] + (None,), outcome) is not None,
           "suite gate rejects a mutated report labelled unmutated")
    clean = suite.call((3, targets, None, None))
    expect(suite.check((3, targets, None, None), clean) is not None,
           "suite gate rejects a report missing checks")
    clean = suite.call((2, tuple(CHECKS), None, None))
    expect(suite.check((2, tuple(CHECKS), None, None), clean) is None,
           "suite gate accepts the unmutated suite")
    expect(suite.check((2, tuple(CHECKS), None, "b-shift"), clean)
           is not None,
           "suite gate rejects an unmutated report labelled mutated")
    expect(suite.check((3, tuple(CHECKS), None, None), clean) is not None,
           "suite gate rejects the k = 2 report as the k = 3 answer")

    shadow = Shadow(seed=1)
    outcome = shadow.call(broken)
    expect(shadow.check(broken, outcome) is None,
           "shadow gate accepts flipped oracle rows")
    expect(shadow.check(broken[:3] + (None,), outcome) is not None,
           "shadow gate rejects mutated oracle rows labelled unmutated")

    repl = Repl(seed=1)
    req = ("commute", 3, ("Dr", "z*dphi"))
    rc, text = repl.call(req)
    expect(repl.check_all([(req, (rc, text))]) == [None],
           "repl gate accepts a right commutator")
    expect(repl.check_all([(req, (rc, text + " + a"))])[0] is not None,
           "repl gate rejects a wrong commutator")
    expect(repl.check_all([(req, (2, text))])[0] is not None,
           "repl gate rejects a nonzero exit")
    expect(Repl(seed=1, mislabel=True).check_all([(req, (rc, text))])[0]
           is not None, "repl gate rejects a mislabelled commutator")


def mislabelled_run_fails():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "repl",
         "--seed", "1", "--seconds", "1", "--mislabel"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode != 0 and result["failed"] > 0
           and not result["correct"],
           "a mislabelled run reports failures and exits nonzero"
           f" (exit {proc.returncode}, failed {result['failed']})")
    return result


def tracer_accounts_for_wall_time():
    from dunklops import cli, identities
    from dunklops.coeffring import ZRat
    from dunklops.cyclofield import CycloScalar, ctx_new
    from tracer import Tracer
    from workloads import _capture

    tracer = Tracer()
    tracer.install()
    try:
        expect(CycloScalar.__radd__ is CycloScalar.__add__
               and ZRat.__rmul__ is ZRat.__mul__,
               "aliases share the wrapper of their twin")
        expect(hasattr(identities.build_Dphi, "__wrapped__"),
               "builders imported by value into identities are patched")
        ctx = ctx_new(2)
        x = ctx.root_power(1)
        before = tracer.stats["cyclofield.scalar_add"].calls
        _ = (x + 1, 1 + x, x - 1)
        expect(tracer.stats["cyclofield.scalar_add"].calls == before + 3,
               "x + 1, 1 + x and x - 1 count as three scalar adds")

        start = perf_counter()
        harness_calls = 0.0
        for argv in (["verify", "--k", "3", "--suite",
                      "dphi_squared,hk_two_forms", "--json"],
                     ["commute", "--k", "2", "HkExt", "Dr"]):
            t0 = perf_counter()
            _capture(cli.main, argv)
            harness_calls += perf_counter() - t0
        identities.shadow_reports("dr_props", 2, trials=10)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    harness = wall - snap["root_s"]
    expect(abs(snap["self_total_s"] + harness - wall) <= 1e-6 * wall
           and harness >= 0,
           "self times plus harness time make up the traced wall time")
    cli_root = snap["stats"]["cli.main"]["incl_s"]
    expect(abs(cli_root - harness_calls) <= 0.02 * harness_calls,
           "cli.main spans match the harness's own timing of the calls")
    expect(snap["stats"]["oracle.spec"]["calls"] > 0
           and snap["stats"]["identities.check.dr_props"]["calls"] == 1,
           "shadow_reports and its call-time import of the oracle traced")
    expect(not hasattr(identities.build_Dphi, "__wrapped__"),
           "uninstall restores the original functions")
    return snap


def names_match_benchmark_json(e2e_result, snap):
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [m["name"] for m in spec["end_to_end"]]
    expect(sorted(e2e) == sorted(e2e_result["metrics"]),
           "end-to-end metrics printed are the ones BENCHMARK.json names")
    fake = {"layers": snap, "interval_s": 1.0, "oracle_cache_entries": 0}
    layer_names = sorted(run.layer_metrics(fake, fake))
    expect(sorted(m["name"] for m in spec["per_layer"]) == layer_names,
           "per-layer metrics printed are the ones BENCHMARK.json names")


def main() -> int:
    gate_rejects_wrong_answers()
    snap = tracer_accounts_for_wall_time()
    result = mislabelled_run_fails()
    names_match_benchmark_json(result, snap)
    if PROBLEMS:
        print(f"{len(PROBLEMS)} self-test(s) failed")
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
