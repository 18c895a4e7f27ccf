"""One measured process of the benchmark; started by run.py, never by hand.

    python3 perfbench/child.py --workload W --seed N --mode setup|pass
                               [--seconds S] [--trace] [--mislabel]

``setup`` stops right before the first timed call.  ``pass`` runs timed
passes, at least one, while another pass of the last pass's length still
fits in ``--seconds`` (0 means exactly one), then checks every outcome.
The last stdout line is a JSON object; ``first_call`` is a
``time.monotonic()`` reading, comparable with the parent's clock.  Every
interval reported leaves out the time of the host-speed samples, and each
comes with the mean reference time sampled during it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SAMPLE_PERIOD_S = 0.2       # how often the host's speed is sampled
MIN_SETUP_SAMPLES = 5       # fewest samples the set-up time is scaled by


def _reference_poly(seed: int, n: int) -> dict:
    """A fixed polynomial in three variables with rational coefficients."""
    poly, x = {}, seed
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2147483648
        poly[(x % 5, (x >> 8) % 5, (x >> 16) % 3)] = Fraction(
            x % 97 - 48, 1 + (x >> 20) % 9)
    return poly


_REF_A, _REF_B = _reference_poly(1, 140), _reference_poly(2, 140)


def reference_work() -> dict:
    """A fixed piece of pure-Python exact arithmetic of the program's kind
    (dicts from exponents to rationals), independent of the program."""
    acc: dict = {}
    for ea, ca in _REF_A.items():
        for eb, cb in _REF_B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            acc[e] = acc.get(e, 0) + ca * cb
    return acc


class HostSpeed:
    """Times ``reference_work`` every SAMPLE_PERIOD_S from a SIGALRM
    handler, so the samples fall inside long requests as well as between
    short ones.  The shared host's speed swings by more than half within
    minutes; run.py scales each pass by the reference time sampled during
    it.  ``busy_s`` is the time the samples took, which every interval
    measured here leaves out."""

    def __init__(self):
        self.samples: list = []
        self.busy_s = 0.0
        self._sampling = False

    def sample(self, *_signal):
        if self._sampling:          # the alarm fired inside a sample
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()        # a collection would scan the program's heap
        t0 = perf_counter()
        reference_work()
        took = perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.busy_s += took
        self._sampling = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _import_program():
    """Import dunklops from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import dunklops
    where = os.path.dirname(os.path.abspath(dunklops.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"dunklops imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--mislabel", action="store_true")
    args = ap.parse_args(argv)

    speed = HostSpeed()
    if not args.trace:        # samples would land in the traced spans
        speed.start()
    _import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.mislabel)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    begin, begin_busy = perf_counter(), speed.busy_s
    workload.setup()
    first_call = time.monotonic()
    setup = {"first_call": first_call, "setup_busy_s": speed.busy_s}
    while len(speed.samples) < MIN_SETUP_SAMPLES:   # a short set-up has few
        speed.sample()
    setup["setup_ref_s"] = statistics.mean(speed.samples)
    if args.mode == "setup":
        speed.stop()
        print(json.dumps(setup))
        return 0

    pairs, latencies, pass_walls, pass_refs = [], [], [], []
    timed_start, timed_busy = perf_counter(), speed.busy_s
    index = 0
    while True:
        reqs = workload.requests(index)
        first = len(speed.samples)
        speed.sample()                  # at least one sample per pass
        start, start_busy = perf_counter(), speed.busy_s
        walls = []
        for req in reqs:
            t0, busy = perf_counter(), speed.busy_s
            try:
                outcome = workload.call(req)
            except Exception as exc:    # a raised request counts as failed
                outcome = exc
            walls.append(perf_counter() - t0 - (speed.busy_s - busy))
            pairs.append((req, outcome))
        latencies.append(walls)
        pass_walls.append(perf_counter() - start
                          - (speed.busy_s - start_busy))
        pass_refs.append(statistics.mean(speed.samples[first:]))
        index += 1
        elapsed = perf_counter() - timed_start - (speed.busy_s - timed_busy)
        if elapsed + pass_walls[-1] > args.seconds:
            break
    speed.stop()
    interval = perf_counter() - begin - (speed.busy_s - begin_busy)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from dunklops._rat import HAVE_GMPY2
    from dunklops.cyclofield import ctx_new
    cache_entries = sum(len(ctx_new(k).oracle_cache) for k in workload.ks)
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.snapshot()

    answered = [p for p in pairs if not isinstance(p[1], Exception)]
    reasons = [f"{req}: {type(out).__name__}: {out}" for req, out in pairs
               if isinstance(out, Exception)]
    reasons += [f"{req}: {why}" for (req, _), why
                in zip(answered, workload.check_all(answered)) if why]

    print(json.dumps({
        **setup,
        "latencies_s": latencies,
        "pass_walls_s": pass_walls,
        "pass_ref_s": pass_refs,
        "interval_s": interval,
        "attempted": len(pairs),
        "failed": len(reasons),
        "failures": reasons[:20],
        "peak_rss_mb": peak_rss_mb,
        "oracle_cache_entries": cache_entries,
        "layers": layers,
        "env": {"python": platform.python_version(),
                "have_gmpy2": HAVE_GMPY2},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
