"""Identity golden for the shared operators: one sha256 per (k, mutation,
member) of ``OperatorSet``, over the exact data in insertion order.

The digest covers each operator's terms in insertion order, each
coefficient's monomials in insertion order, every numerator row with the
type name of each coordinate, and the denominators.  The oracle sums its
floats in term order, so an order change is an output change too.

Regenerate the golden only for an intended change of output:

    PYTHONPATH=src python tests/test_operator_set_golden.py
"""

import hashlib
import json
import pathlib
from functools import cached_property

from dunklops.cyclofield import ctx_new
from dunklops.errors import AlgebraError
from dunklops.identities import OperatorSet

GOLDEN = pathlib.Path(__file__).parent / "golden" / "operator_sets.json"
KS = range(1, 6)
MUTATIONS = (None, "b-shift", "dr-drop")
MEMBERS = [name for name, attr in vars(OperatorSet).items()
           if isinstance(attr, cached_property)]


def _operator_data(op) -> list:
    out = []
    for key, coeff in op.terms.items():
        monos = []
        for mono, zr in coeff.terms.items():
            num = [[(type(v).__name__, str(v)) for v in row]
                   for row in zr.num]
            monos.append([list(mono), num, [[list(a), m] for a, m in zr.den]])
        out.append([list(key), monos])
    return out


def operator_set_digests() -> dict:
    """"k=K/MUTATION/MEMBER" -> sha256 of that member's exact data."""
    digests = {}
    for k in KS:
        for mutation in MUTATIONS:
            ops = OperatorSet(ctx_new(k), mutation)
            for name in MEMBERS:
                try:
                    data = json.dumps(_operator_data(getattr(ops, name)))
                except AlgebraError as exc:     # S needs an even k
                    data = f"refused: {exc}"
                digests[f"k={k}/{mutation or 'none'}/{name}"] = \
                    hashlib.sha256(data.encode()).hexdigest()
    return digests


def test_operator_sets_match_the_golden():
    expect = json.loads(GOLDEN.read_text())
    got = operator_set_digests()
    assert list(got) == list(expect)
    differ = [key for key in expect if got[key] != expect[key]]
    assert not differ, f"first member that differs: {differ[0]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(operator_set_digests(), indent=1) + "\n")
