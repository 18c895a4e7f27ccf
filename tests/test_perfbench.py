"""The benchmark's own self-test, run as one subprocess.

``perfbench`` reads names and shapes from the package that no other test
checks: ``_rat.HAVE_GMPY2``, ``FieldCtx.oracle_cache``,
``identities.build_Dphi``, ``builders.OPERATORS``, and
``CycloScalar.__sub__``, which keeps ``x - 1`` one traced scalar add.  A
refactor that breaks one of them fails here, not only in a benchmark run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
