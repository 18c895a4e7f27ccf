"""Identity golden for what the suite and the oracle report: one sha256 per
item, so a refactor of the exact engine that changes any output fails here.

The items are:

- ``verify/k=K``: ``run_suite([K], include_optional=True)`` for K = 1..8,
  every report with ``elapsed_ms`` zeroed;
- ``verify/k=K/MUTATION``: the same under b-shift at k = 2, 3, 5 and under
  dr-drop at k = 2, 4;
- ``oracle/k=K/MUTATION/ROW``: ``(status, repr(max_rel_dev), num_over_tol)``
  of every oracle row, the optional ``hk_selfadjoint`` included, for
  k = 1..5 unmutated and under both mutations, at 40 trials with the
  suite's row seeds.  ``repr`` keeps every bit of the deviation, so a
  change in the order in which the oracle sums its floats shows here.

Regenerate the golden only for an intended change of output:

    PYTHONPATH=src python tests/test_output_golden.py
"""

import hashlib
import json
import pathlib

from dunklops.identities import (CHECK_IDS, DEFAULT_SEED, _row_seed,
                                 iter_rows, run_suite)
from dunklops.oracle import numeric_check_spec

GOLDEN = pathlib.Path(__file__).parent / "golden" / "outputs.json"
VERIFY_RUNS = ([(k, None) for k in range(1, 9)]
               + [(k, "b-shift") for k in (2, 3, 5)]
               + [(k, "dr-drop") for k in (2, 4)])
ORACLE_KS = range(1, 6)
MUTATIONS = (None, "b-shift", "dr-drop")
TRIALS = 40


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def output_digests() -> dict:
    """"verify/..." and "oracle/..." items -> sha256 of that output."""
    digests = {}
    for k, mutation in VERIFY_RUNS:
        reports = [dict(r.to_dict(), elapsed_ms=0) for r in
                   run_suite([k], mutation=mutation, include_optional=True)]
        name = f"verify/k={k}" + (f"/{mutation}" if mutation else "")
        digests[name] = _sha(reports)
    for k in ORACLE_KS:
        for mutation in MUTATIONS:
            for cid in CHECK_IDS:
                for row_id, _residual_fn, numeric_fn in iter_rows(
                        cid, k, mutation):
                    rep = numeric_check_spec(
                        numeric_fn(), k, TRIALS,
                        seed=_row_seed(row_id, k, DEFAULT_SEED))
                    digests[f"oracle/k={k}/{mutation or 'none'}/{row_id}"] = \
                        _sha([rep.status, repr(rep.max_rel_dev),
                              rep.num_over_tol])
    return digests


def test_outputs_match_the_golden():
    expect = json.loads(GOLDEN.read_text())
    got = output_digests()
    assert list(got) == list(expect)
    differ = [key for key in expect if got[key] != expect[key]]
    assert not differ, f"first item that differs: {differ[0]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(output_digests(), indent=1) + "\n")
