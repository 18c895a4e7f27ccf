"""Identity golden for the numeric oracle on the benchmark's own traffic:
``(status, repr(max_rel_dev), num_over_tol)`` of every ``shadow_reports`` row
of the default checks at k = 3, 4, 5, and of the oracle side of the two
mutation sentinels (b-shift at k = 3 on ``dphi_squared`` and ``dphi_props``,
dr-drop at k = 4 on ``dr_props`` and ``dr_dphi_commutator``), at 100 trials
for the sampling seeds 1, 2 and 3.

``tests/golden/outputs.json`` pins the oracle at 40 trials and the suite's
default seed only; this golden pins the 100-trial runs the shadow benchmark
makes.  ``repr`` keeps every bit of the deviation, so a change in the order
in which the oracle sums or multiplies its floats shows here.

Regenerate the golden only for an intended change of output:

    PYTHONPATH=src python tests/test_shadow_golden.py
"""

import json
import pathlib

from dunklops.identities import DEFAULT_CHECK_IDS, _row_seed, iter_rows
from dunklops.oracle import numeric_check_spec

GOLDEN = pathlib.Path(__file__).parent / "golden" / "shadow_outputs.json"
SEEDS = (1, 2, 3)
TRIALS = 100
TOL = 1e-9
RUNS = ([(k, None, DEFAULT_CHECK_IDS) for k in (3, 4, 5)]
        + [(3, "b-shift", ("dphi_squared", "dphi_props")),
           (4, "dr-drop", ("dr_props", "dr_dphi_commutator"))])


def shadow_outputs() -> dict:
    """"seed=S/k=K/MUTATION/ROW" -> [status, repr(max_rel_dev),
    num_over_tol], each row run as ``shadow_reports`` runs it."""
    items = {}
    for seed in SEEDS:
        for k, mutation, cids in RUNS:
            for cid in cids:
                for row_id, _residual_fn, numeric_fn in iter_rows(
                        cid, k, mutation):
                    rep = numeric_check_spec(numeric_fn(), k, TRIALS, TOL,
                                             _row_seed(row_id, k, seed))
                    key = f"seed={seed}/k={k}/{mutation or 'none'}/{row_id}"
                    items[key] = [rep.status, repr(rep.max_rel_dev),
                                  rep.num_over_tol]
    return items


def test_shadow_outputs_match_the_golden():
    expect = json.loads(GOLDEN.read_text())
    got = shadow_outputs()
    assert list(got) == list(expect)
    differ = [key for key in expect if got[key] != expect[key]]
    assert not differ, (f"first row that differs: {differ[0]}: "
                        f"{got[differ[0]]} != {expect[differ[0]]}")


if __name__ == "__main__":
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(item)}"
        for key, item in shadow_outputs().items()) + "\n}\n")
