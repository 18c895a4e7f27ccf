"""Benchmark of dunklops: the exact suite, its numeric shadow and a
request loop of interactive commands.

    python3 perfbench/run.py --workload suite|shadow|repl|all --seed N
                             --seconds S --trace 0|1 [--mislabel]

Run from the root of a checkout; the program is imported from ./src.
Every measured run is a fresh interpreter (perfbench/child.py), because
the program's operator sets, field contexts and oracle caches live for the
whole process and a second run in the same process would time cache hits.

With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer ones from a traced run next to an untraced one.  Timed
end-to-end figures are scaled by the host's speed, sampled during each
pass with a fixed reference computation (see README.md).  Every
outcome is checked against a known answer; the last stdout line is a JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit code
is nonzero when any operation failed.  ``--mislabel`` feeds the gate wrong
expected answers, so it must report failures.  Exit code 2, without a
result, means the program could not be run at all.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("suite", "shadow", "repl")
SETUP_SAMPLES = 5           # set-ups per run whose median is setup_s
RUN_LIMIT_S = 170.0         # one workload must end within 180 s
# Time of child.reference_work on the reference machine at its median
# speed.  Timed figures are scaled by REF_S over the reference time sampled
# during the same pass, so they read as seconds on that machine at that
# speed; verdict_wall_s and host_speed show the unscaled wall and the scale.
REF_S = 0.020
# Printed but left out of the result.  On a shared 2-core VM the median of
# the seven suite requests, one of them well under a second, spread by 0.20
# of itself over ten runs even scaled (the scale is per pass, not per
# request); req_per_s carries the same information as verdict_s.
PRINTED_ONLY = ("req_p50_ms", "req_per_s", "verdict_wall_s", "host_speed")

# Layer operations reported with calls and self time, and with calls only.
TIMED_OPS = (
    "cyclofield.scalar_mul", "cyclofield.scalar_add",
    "coeffring.zrat_add", "coeffring.zrat_mul", "coeffring.zrat_dphi",
    "coeffring.coeff_add", "coeffring.coeff_mul",
    "opalgebra.product", "opalgebra.adjoint", "opalgebra.project",
    "oracle.spec", "exprparse.parse_op", "exprparse.pretty", "cli.main",
)
COUNTED_OPS = (
    "cyclofield.scalar_inv", "coeffring.zrat_rotate",
    "coeffring.zrat_reflect", "coeffring.zrat_inv", "coeffring.trig",
)


class BenchError(Exception):
    """The program could not be run; no result is printed."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DUNKLOPS_MAX_K", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, deadline: float, **opts) -> dict:
    """Run one child to completion; its JSON result plus ``setup_s`` and
    ``wall_s`` as seen from here."""
    argv = [sys.executable, CHILD, "--workload", args.workload,
            "--seed", str(args.seed),
            "--mode", opts.get("mode", "pass"),
            "--seconds", str(opts.get("seconds", 0))]
    if opts.get("trace"):
        argv.append("--trace")
    if args.mislabel:
        argv.append("--mislabel")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: a measured process ran past the"
                         f" {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args.workload}: measured process exited"
                         f" {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = ((result["first_call"] - spawned
                          - result["setup_busy_s"])
                         * REF_S / result["setup_ref_s"])
    result["wall_s"] = time.monotonic() - spawned
    return result


# ---------------------------------------------------------------------------
# end-to-end and per-layer runs
# ---------------------------------------------------------------------------


def _percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(args, deadline: float):
    """Set-ups, then whole timed passes while another fits in --seconds.
    The repl runs all its passes in one process; suite and shadow
    need a fresh process per pass."""
    setups = [_spawn(args, deadline, mode="setup")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    runs = []
    if args.workload == "repl":
        runs.append(_spawn(args, deadline, seconds=args.seconds))
    else:
        start = time.monotonic()
        while True:
            runs.append(_spawn(args, deadline))
            used = time.monotonic() - start
            if used + runs[-1]["wall_s"] > args.seconds:
                break
    setups += [r["setup_s"] for r in runs]
    walls, scaled, latencies, speeds = [], [], [], []
    for r in runs:
        for wall, ref, lats in zip(r["pass_walls_s"], r["pass_ref_s"],
                                   r["latencies_s"]):
            speeds.append(REF_S / ref)
            walls.append(wall)
            scaled.append(wall * speeds[-1])
            latencies += [x * speeds[-1] for x in lats]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (statistics.median(scaled), "s"),
        "req_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "req_p99_ms": (_percentile(latencies, 99) * 1e3, "ms"),
        "req_per_s": (len(latencies) / sum(scaled), "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "verdict_wall_s": (statistics.median(walls), "s"),
        "host_speed": (statistics.median(speeds), "ratio"),
    }
    notes = {"setup_s": f"median of {len(setups)} set-ups, scaled",
             "verdict_s": f"median of {len(walls)} passes, scaled",
             "req_p50_ms": f"{len(latencies)} requests, scaled",
             "req_p99_ms": f"{len(latencies)} requests, scaled",
             "req_per_s": f"{len(latencies)} requests, scaled",
             "peak_rss_mb": "max over measured processes",
             "verdict_wall_s": "unscaled",
             "host_speed": "REF_S over the reference time, per pass"}
    return runs, metrics, notes


def layer_metrics(traced: dict, untraced: dict) -> dict:
    layers = traced["layers"]
    stats = layers["stats"]

    def field(name, key):
        return stats.get(name, {}).get(key, 0)

    m = {}
    for op in TIMED_OPS:
        m[op + ".calls"] = (field(op, "calls"), "count")
        m[op + ".self_s"] = (field(op, "self_s"), "s")
    for op in COUNTED_OPS:
        m[op + ".calls"] = (field(op, "calls"), "count")
    trig_calls = field("coeffring.trig", "calls")
    m["coeffring.trig.hit_ratio"] = (
        layers["trig_hits"] / trig_calls if trig_calls else 0.0, "ratio")
    m["opalgebra.product.out_terms"] = (layers["product_terms"], "count")
    m["builders.build.calls"] = (field("builders.build", "calls"), "count")
    m["builders.build.s"] = (field("builders.build", "incl_s"), "s")
    from workloads import CHECKS
    for cid in CHECKS:
        m[f"identities.check.{cid}.s"] = (
            field("identities.check." + cid, "incl_s"), "s")
    oracle_s = field("oracle.spec", "incl_s")
    exact_s = sum(st["oracle_self_s"] for st in stats.values())
    m["oracle.coeffring_share"] = (exact_s / oracle_s if oracle_s else 0.0,
                                   "ratio")
    m["oracle.cache_entries"] = (traced["oracle_cache_entries"], "count")
    m["trace.overhead"] = (traced["interval_s"] / untraced["interval_s"],
                           "ratio")
    m["trace.unattributed_share"] = (
        1.0 - layers["root_s"] / traced["interval_s"], "ratio")
    return m


def _accounting_error(traced: dict):
    """Self times plus harness time must make up the traced wall time:
    the self times add up to the outermost spans, which fit in the wall."""
    layers, wall = traced["layers"], traced["interval_s"]
    harness = wall - layers["root_s"]
    if abs(layers["self_total_s"] + harness - wall) > 1e-6 * wall:
        return (f"self times {layers['self_total_s']:.6f} s + harness"
                f" {harness:.6f} s != traced wall {wall:.6f} s")
    if harness < 0:
        return "traced spans exceed the traced wall time"
    return None


def run_workload(args, deadline: float):
    """(metrics, notes, attempted, failed, failures, env) of one
    workload."""
    if args.trace:
        untraced = _spawn(args, deadline)
        traced = _spawn(args, deadline, trace=True)
        runs = [untraced, traced]
        metrics = layer_metrics(traced, untraced)
        notes = {}
    else:
        runs, metrics, notes = end_to_end(args, deadline)
    failures = [f for r in runs for f in r["failures"]]
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        why = _accounting_error(runs[1])
        if why:
            failures.append("trace accounting: " + why)
            failed += 1
    attempted = sum(r["attempted"] for r in runs)
    return metrics, notes, attempted, failed, failures, runs[-1]["env"]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _commit():
    """HEAD of the checkout's own repository; None outside git."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="timed passes are repeated while another fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mislabel", action="store_true",
                    help="expect wrong answers (the gate must fail)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "dunklops", "__init__.py")):
        print(f"no dunklops sources under {SRC}", file=sys.stderr)
        return 2
    for tree in (SRC, HERE):          # children then never compile on import
        compileall.compile_dir(tree, quiet=1)
    sys.path.insert(0, HERE)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, env = {}, 0, 0, None
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            m, notes, n_att, n_fail, failures, env = run_workload(one,
                                                                  deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        attempted += n_att
        failed += n_fail
        for why in failures[:20]:
            print(f"{name} FAILED {why}")
        for key, (value, unit) in m.items():
            note = f"  ({notes[key]})" if key in notes else ""
            print(f"{name:6} {key:38} {value:14.6g} {unit}{note}")
            if key not in PRINTED_ONLY:
                metrics[key if len(names) == 1 else f"{name}.{key}"] = {
                    "value": value, "unit": unit}
        print(f"{name:6} {'failed_share':38} {n_fail}/{n_att}"
              f" = {n_fail / n_att:.4g}")
    print(json.dumps({"env": {**env, "nproc": os.cpu_count(),
                              "commit": _commit(),
                              "src_sha256": _source_digest(),
                              "seed": args.seed}}))
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
