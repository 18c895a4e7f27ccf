"""Command-line interface: exit codes, output formats, golden report."""

import contextlib
import io
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklops import cli, identities
from dunklops.builders import OPERATORS, build_Dphi
from dunklops.cli import _resolve, main, parse_k_list
from dunklops.cyclofield import ctx_new
from dunklops.identities import MAX_TRIALS
from dunklops.exprparse import pretty
from dunklops.opalgebra import commutator

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_text_mode(capsys):
    code, out, err = run_cli(capsys, "verify", "--k", "2")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "-- 32 pass, 0 fail, 5 skipped"
    assert any(line.startswith("PASS") and "k=2" in line for line in lines)
    assert any(line.startswith("SKIPPED") for line in lines)
    assert not any(line.startswith("FAIL") for line in lines)


def test_verify_json_matches_golden(capsys):
    # the mutated runs pin the printed residual samples of failing rows
    for args, golden, want in (
            (["--k", "2"], "verify_k2.json", 0),
            (["--k", "3", "--mutate", "b-shift"], "verify_k3_b_shift.json", 1),
            (["--k", "4", "--mutate", "dr-drop"], "verify_k4_dr_drop.json", 1)):
        code, out, _ = run_cli(capsys, "verify", *args, "--json")
        assert code == want, args
        got = json.loads(out)
        for row in got:
            row["elapsed_ms"] = 0
        expect = json.loads((GOLDEN / golden).read_text())
        assert got == expect, args


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--k", "1", "--json",
                           "--out", str(target))
    assert code == 0
    assert out == ""                      # no stdout chatter with --out
    rows = json.loads(target.read_text())
    assert all(row["k"] == 1 for row in rows)
    assert all(row["status"] in ("pass", "skipped") for row in rows)


def test_verify_mutation_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "3",
                           "--mutate", "b-shift")
    assert code == 1
    assert "FAIL" in out
    assert "sample:" in out
    summary = out.splitlines()[-1]
    assert " fail" in summary and " 0 fail" not in summary


def test_verify_suite_filter_and_optional(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2",
                           "--suite", "group_*", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows
    assert all(row["check_id"].startswith("group_relations") for row in rows)
    code, out, _ = run_cli(capsys, "verify", "--k", "2",
                           "--suite", "hk_selfadjoint", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [row["check_id"] for row in rows] == ["hk_selfadjoint[main]"]
    assert rows[0]["status"] == "pass"


def test_verify_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k", "2", "--oracle",
                           "--trials", "5", "--json")
    assert code == 0
    rows = json.loads(out)
    oracle_rows = [r for r in rows if r["check_id"].startswith("oracle:")]
    assert oracle_rows
    assert all(r["status"] == "pass" for r in oracle_rows)


def test_verify_flag_validation(capsys):
    for argv in (["verify", "--k", "2", "--trials", "0"],
                 ["verify", "--k", "2", "--tol", "-1"],
                 ["verify", "--k", "0"],
                 ["verify", "--k", "1..x"],
                 ["verify", "--k", "99"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
    code, _, err = run_cli(capsys, "verify", "--k", "2", "--mutate", "bogus")
    assert code == 2                      # argparse rejects the choice


def test_too_many_trials_exit_2(capsys):
    """The oracle's arrays grow with --trials; both commands refuse a count
    over MAX_TRIALS before running anything."""
    over = str(MAX_TRIALS + 1)
    for argv in (["verify", "--k", "2", "--suite", "dr_props", "--oracle",
                  "--trials", over],
                 ["oracle", "--k", "2", "dr", "dr", "--trials", over]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: --trials must be at most {MAX_TRIALS}\n", argv


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_exits_2(capsys, tol):
    """No deviation exceeds NaN or infinity, so such a --tol would pass
    every comparison; both commands refuse it before running anything."""
    for argv in (["verify", "--k", "1", "--oracle", f"--tol={tol}"],
                 ["oracle", "--k", "2", "R", "I", f"--tol={tol}"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: --tol"), argv


def test_verify_out_to_an_unwritable_path_exits_2(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "report.json"):
        code, out, err = run_cli(capsys, "verify", "--k", "1", "--json",
                                 "--out", str(target))
        assert code == 2, target
        assert out == ""
        assert err.startswith("error: cannot write")
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


def test_verify_out_is_checked_before_the_suite_runs(tmp_path, capsys,
                                                     monkeypatch):
    def run_suite(*args, **kwargs):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    for target, reason in ((tmp_path, "Is a directory"),
                           (tmp_path / "missing" / "report.json",
                            "No such file or directory"),
                           (tmp_path / "file" / "report.json",
                            "Not a directory")):
        code, out, err = run_cli(capsys, "verify", "--k", "1", "--json",
                                 "--out", str(target))
        assert (code, out) == (2, ""), target
        assert err == f"error: cannot write {str(target)!r}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_verify_suite_pattern_matching_nothing_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--k", "2",
                             "--suite", "dr_prop")
    assert (code, out) == (2, "")
    assert err == "error: --suite pattern matches no check id: dr_prop\n"
    code, out, err = run_cli(capsys, "verify", "--k", "2",
                             "--suite", "dr_props, trig_x,nothing*")
    assert (code, out) == (2, "")
    assert err.rstrip().endswith("no check id: trig_x, nothing*")
    code, _, err = run_cli(capsys, "verify", "--k", "2", "--suite", " , ")
    assert code == 2 and err.startswith("error: --suite")
    code, out, _ = run_cli(capsys, "verify", "--k", "2",
                           "--suite", "dr_props,trig_*")
    assert code == 0
    assert out.splitlines()[-1] == "-- 6 pass, 0 fail, 4 skipped"


def test_k_ceiling_message(capsys):
    code, _, err = run_cli(capsys, "verify", "--k", "99")
    assert code == 2
    assert "DUNKLOPS_MAX_K" in err


def test_k_parsing_unit(monkeypatch):
    monkeypatch.delenv("DUNKLOPS_MAX_K", raising=False)     # the default, 12
    assert parse_k_list("3") == [3]
    assert parse_k_list("1,3,5") == [1, 3, 5]
    assert parse_k_list("1..4") == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        parse_k_list("x")
    with pytest.raises(ValueError):
        parse_k_list("5..3")
    with pytest.raises(ValueError):
        parse_k_list("13")
    with pytest.raises(ValueError):
        parse_k_list("0")
    # the first k out of range, in ascending order, is named
    with pytest.raises(ValueError, match=r"^k=13 outside \[1, 12\] "):
        parse_k_list("1..20")
    with pytest.raises(ValueError, match=r"^k=-3 outside "):
        parse_k_list("-3..5")
    # a huge range is refused without being expanded
    with pytest.raises(ValueError, match=r"^k=13 outside "):
        parse_k_list(f"1..{10**12}")
    # the ceiling is read on every call
    monkeypatch.setenv("DUNKLOPS_MAX_K", "4")
    with pytest.raises(ValueError, match=r"^k=5 outside \[1, 4\] "):
        parse_k_list("3..5")


def test_env_ceiling_override(capsys, monkeypatch):
    monkeypatch.setenv("DUNKLOPS_MAX_K", "2")
    code, _, err = run_cli(capsys, "norm", "--k", "3", "R")
    assert code == 2
    assert "k=3" in err
    monkeypatch.setenv("DUNKLOPS_MAX_K", "13")
    code, out, _ = run_cli(capsys, "norm", "--k", "13", "R")
    assert code == 0
    assert out.strip() == "R"


# ---------------------------------------------------------------------------
# expression commands
# ---------------------------------------------------------------------------


def test_show_named_operator(capsys):
    code, out, _ = run_cli(capsys, "show", "--k", "2", "--op", "Dphi")
    assert code == 0
    assert out.strip() == pretty(build_Dphi(2))


def test_show_positional_expressions(capsys):
    code, out, _ = run_cli(capsys, "show", "--k", "2", "dr", "R^2")
    assert code == 0
    assert out.splitlines() == ["dr", "R^2"]


def test_show_needs_input(capsys):
    code, _, err = run_cli(capsys, "show", "--k", "2")
    assert code == 2
    assert "nothing to show" in err


def test_norm_simplifies_group_words(capsys):
    code, out, _ = run_cli(capsys, "norm", "--k", "2", "I*R*I")
    assert code == 0
    assert out.strip() == "R^3"


def test_commute_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "commute", "--k", "3", "Dr", "Dphi")
    assert code == 0
    golden = (GOLDEN / "commutator_k3.txt").read_text().rstrip("\n")
    assert out.strip() == golden


def test_adjoint_and_project(capsys):
    code, out, _ = run_cli(capsys, "adjoint", "--k", "2", "dphi")
    assert code == 0
    assert out.strip() == "-dphi"
    code, out, _ = run_cli(capsys, "project", "--k", "2", "R^3")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "project", "--k", "4", "HkExt")
    assert code == 0
    assert out.strip()


# ---------------------------------------------------------------------------
# named operators, shared with verify through operator_set(k)
# ---------------------------------------------------------------------------

# Registry name -> the OperatorSet attribute that holds the same operator.
_SHARED = {"R": "R", "I": "I", "S": "S", "Dr": "Dr", "Dphi": "Dphi",
           "Hk": "Hk", "Xk": "Xk", "HkExt": "HkExtPhi",
           "HkExtViaDr": "HkExtDr"}


def _names(k):
    return [name for name in OPERATORS if name != "S" or k % 2 == 0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_named_operators_print_as_built_from_scratch(capsys, k):
    assert set(_SHARED) == set(OPERATORS)
    ctx = ctx_new(k)
    dr = OPERATORS["Dr"](ctx)
    for name in _names(k):
        op = OPERATORS[name](ctx)
        expected = {("norm",): pretty(op), ("adjoint",): pretty(op.adjoint()),
                    ("project",): pretty(op.project_identity()),
                    ("commute", "Dr"): pretty(commutator(op, dr))}
        for (cmd, *rest), text in expected.items():
            code, out, err = run_cli(capsys, cmd, "--k", str(k), name, *rest)
            assert (code, out, err) == (0, text + "\n", ""), (cmd, name)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_s_at_odd_k_exits_2(capsys, k):
    for cmd in ("norm", "adjoint", "project"):
        code, out, err = run_cli(capsys, cmd, "--k", str(k), "S")
        assert (code, out) == (2, "")
        assert err == f"error: S requires even k, got k={k}\n"


def test_resolve_returns_the_operator_set_members():
    for k in (1, 2, 3, 4):
        ctx, ops = ctx_new(k), identities.operator_set(k)
        for name in _names(k):
            first = _resolve(name, ctx)
            assert _resolve(f" {name} ", ctx) is first
            assert first is getattr(ops, _SHARED[name])


def test_repeated_requests_print_the_same_text(capsys):
    requests = [(cmd, "--k", str(k), name, *rest)
                for k in (2, 3) for name in _names(k)
                for cmd, *rest in (("norm",), ("adjoint",), ("project",),
                                   ("commute", "Dr"), ("commute", "Dphi"),
                                   ("show",))]
    first = [run_cli(capsys, *argv) for argv in requests]
    assert all(code == 0 for code, _, _ in first)
    assert [run_cli(capsys, *argv) for argv in requests] == first


def test_operator_sets_one_per_k_and_mutation(capsys, monkeypatch):
    monkeypatch.setattr(identities, "_OPSETS", {})
    for _ in range(3):
        for k in (1, 2, 3):
            for name in _names(k):
                for cmd in ("norm", "adjoint", "project"):
                    assert run_cli(capsys, cmd, "--k", str(k), name)[0] == 0
            assert run_cli(capsys, "commute", "--k", str(k), "Dr",
                           "Dphi")[0] == 0
        assert run_cli(capsys, "verify", "--k", "3", "--mutate", "b-shift",
                       "--suite", "dphi_props")[0] == 1
    assert sorted(identities._OPSETS, key=str) == [
        (1, None), (2, None), (3, "b-shift"), (3, None)]


def test_expression_commands_want_one_k(capsys):
    code, _, err = run_cli(capsys, "norm", "--k", "1,2", "dr")
    assert code == 2
    assert "exactly one k" in err


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--k", "2", "Dr", "Dr")
    assert code == 0
    assert out.startswith("pass:")
    # "--" keeps a leading-minus expression out of flag parsing
    code, out, _ = run_cli(capsys, "oracle", "--k", "2", "--trials", "10",
                           "--", "dphi", "-dphi")
    assert code == 1
    assert out.startswith("fail:")
    code, out, _ = run_cli(capsys, "oracle", "--k", "4", "HkExt",
                           "HkExtViaDr", "--trials", "20", "--tol", "1e-8",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["trials"] == 20


def test_parse_error_caret(capsys):
    code, _, err = run_cli(capsys, "norm", "--k", "2", "dr + ")
    assert code == 2
    lines = err.splitlines()
    assert lines[0].startswith("parse error:")
    assert lines[1] == "  dr + "
    assert lines[2] == "  " + " " * 5 + "^"


def test_an_over_long_integer_literal_exits_2_with_a_caret(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer text of any length")
    digits = "9" * (limit + 1)
    code, _, err = run_cli(capsys, "norm", "--k", "2", "dr + " + digits)
    assert code == 2
    lines = err.splitlines()
    assert lines[0] == (f"parse error: integer literal of {limit + 1} digits"
                        " is too long (at position 5)")
    assert lines[1] == "  dr + " + digits
    assert lines[2] == "  " + " " * 5 + "^"
    assert "Traceback" not in err


def test_deep_nesting_is_a_parse_error():
    # a subprocess, so that an uncaught error would show as a traceback
    env = dict(os.environ, PYTHONPATH=str(SRC))
    nest = lambda depth: "(" * depth + "dr" + ")" * depth
    cases = [(nest(200), 0, ""), (nest(300), 2, "nested deeper than 200"),
             ("R^1024", 0, ""), ("R^1025", 2, "exponent larger than 1024")]
    for text, code, message in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "dunklops", "norm", "--k", "2", text],
            capture_output=True, text=True, env=env)
        assert proc.returncode == code, proc.stderr[-500:]
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


def test_power_work_is_a_parse_error():
    # (dr + r*dphi)^64 ran for over 40 s before the derivative-term limit,
    # so each child gets a time and an address-space limit
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cap = 2 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    refused = "expands to more than 1025 derivative terms"
    cases = [("(dr + r*dphi)^24", 0, ""), ("dphi^1024", 0, ""),
             ("dr^1024", 0, ""),
             ("(dr + r*dphi)^32", 2, refused),
             ("(dr + r*dphi)^64", 2, refused),
             ("dphi^1024*dr", 2, refused)]
    for text, code, message in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "dunklops", "norm", "--k", "2", text],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=limit_memory)
        assert proc.returncode == code, (text, proc.stderr[-500:])
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


def test_constant_coefficients_end_the_leibniz_grid_early():
    # (dr + R)^1024 ran past 40 s while every grid cell was derived, though
    # the coefficients are constant: each dr-derivative of them is zero
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cap = 2 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "dunklops", "norm", "--k", "2",
         "(dr + R)^1024"],
        capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.count("dr^") > 1000


def test_numpy_loads_only_with_the_oracle():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = "\n".join([
        "import contextlib, io, sys",
        "import dunklops",
        "assert 'numpy' not in sys.modules, 'loaded by the import'",
        "from dunklops import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['verify', '--k', '2', '--json']) == 0",
        "assert 'numpy' not in sys.modules, 'loaded by verify'",
        "assert dunklops.numeric_check is dunklops.oracle.numeric_check",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-500:]
    proc = subprocess.run(
        [sys.executable, "-m", "dunklops", "verify", "--k", "2", "--oracle"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-500:]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = "\n".join([
        "import sys",
        "from dunklops import cli",
        "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))",
        "assert not loaded, loaded",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-500:]


@pytest.mark.parametrize("argv", [["verify", "--k", "1..4"],
                                  ["show", "--k", "2", "--op", "Dr"],
                                  ["--help"], ["verify", "--help"]],
                         ids=["verify", "show", "help", "verify-help"])
@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    # as in ``dunklops verify --k 1..4 | head -2``: the reader is gone
    # before the first write (unbuffered) or before the flush at exit (an
    # empty PYTHONUNBUFFERED leaves stdout buffered)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "dunklops", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1, err[-500:]
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open descriptors")
def test_a_closed_stdout_leaks_no_descriptor(monkeypatch):
    # in process, as a long-lived caller of main sees it: each stdout whose
    # reader is gone is sent to devnull, and no descriptor may stay open
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["norm", "--k", "2", "dr"]) == 1
    assert len(os.listdir("/proc/self/fd")) == before


def test_every_call_on_a_closed_stdout_exits_1(monkeypatch):
    # one stdout whose reader is gone, reused by three calls in one process:
    # only the bytes pending at the failure go to devnull, and the
    # descriptor keeps its pipe, so each call sees the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        codes = [main(["norm", "--k", "2", "dr"]) for _ in range(3)]
    assert codes == [1, 1, 1]


# Names, literals and trig sugar of the grammar, plus a few tokens that are
# valid only in other places, so that error paths are drawn too.
_LEAVES = ("a", "b", "w2", "r", "z", "zeta", "i", "dr", "dphi", "R", "I", "S",
           "0", "2", "3/4", "1/0", "tan(phi)", "cot(phi + 1*pi/k)",
           "sec2(phi - 2*pi/k)", "csc2(phi)", "seck(phi)", "tank(phi)",
           "phi", "Dr", "r^-1", "z^-2")


def _grow(parts):
    exponents = st.integers(-6, 6).map(str)
    return st.one_of(
        parts.map(lambda x: f"({x})"),
        parts.map(lambda x: f"-{x}"),
        st.tuples(parts, st.sampled_from(" + | - |*".split("|")), parts)
        .map("".join),
        st.tuples(parts, exponents).map(lambda t: f"{t[0]}^{t[1]}"),
    )


_EXPRESSIONS = st.recursive(st.sampled_from(_LEAVES), _grow, max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(cmd=st.sampled_from(["norm", "adjoint", "project"]),
       k=st.sampled_from(["1", "2", "3"]), text=_EXPRESSIONS)
def test_expression_commands_never_escape(cmd, k, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cmd, "--k", k, "--", text])
    assert code in (0, 2), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "verify")[0] == 2          # --k is required
    assert run_cli(capsys)[0] == 2                    # subcommand required


def _console_script() -> list:
    """The argv prefix of the ``dunklops`` console script: the installed
    script when it is on PATH, else its ``[project.scripts]`` entry point
    from pyproject.toml, run by this interpreter."""
    script = shutil.which("dunklops")
    if script:
        return [script]
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, func = target["dunklops"].split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {func}; sys.exit({func}())"]


def test_console_script_smoke():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([*_console_script(), "verify", "--k", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "pass" in proc.stdout
