"""Identity golden for what the command line prints: for each stored request,
the exit code and the sha256 of stdout of an in-process ``cli.main`` run.

The requests are stored in the golden itself.  They are the 946 distinct
argv of the benchmark's repl pass 0 at seeds 1 and 2: ``norm``, ``commute``,
``adjoint`` and ``project`` at k = 1..4, on registry names and on random
grammar expressions, 597 of which raise a factor to a negative power.

Regenerate the digests only for an intended change of output; the stored
requests are kept:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

from dunklops import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_outputs.json"


def run(argv) -> list:
    """[exit code, sha256 of stdout] of ``cli.main(argv)``, in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return [rc, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def dump(entries) -> str:
    """The golden text: one [argv, exit code, sha256] entry per line."""
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def test_cli_outputs_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 946
    differ = [argv for argv, *want in golden if run(argv) != want]
    assert not differ, (f"{len(differ)} requests differ, the first: "
                        f"{differ[0]}")


if __name__ == "__main__":
    requests = [argv for argv, *_ in json.loads(GOLDEN.read_text())]
    GOLDEN.write_text(dump([[argv, *run(argv)] for argv in requests]))
