"""The package's public surface: its exports, the README's examples and
command transcripts, the one module boundary its sources keep, and that its
sources use every public function and method they define."""

import ast
import doctest
import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import dunklops

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SRC = pathlib.Path(dunklops.__file__).resolve().parent


def test_every_export_resolves_and_is_listed():
    # the oracle's names resolve lazily, through the module's __getattr__
    assert len(set(dunklops.__all__)) == len(dunklops.__all__)
    listed = dir(dunklops)
    for name in dunklops.__all__:
        getattr(dunklops, name)
        assert name in listed, name
    assert set(dunklops._ORACLE_NAMES) <= set(dunklops.__all__)


@pytest.mark.parametrize("name", [info.name for info in
                                  pkgutil.iter_modules(dunklops.__path__)])
def test_every_submodule_export_resolves(name):
    # perfbench's tracer calls getattr on every name in builders.__all__
    module = importlib.import_module(f"dunklops.{name}")
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports), name
    for attr in exports:
        assert hasattr(module, attr), f"{name}.{attr}"


def test_readme_pycon_blocks_run_in_order():
    blocks = re.findall(r"^```pycon\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    namespace: dict = {}                 # shared, as in one session
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, namespace, f"README.md[{i}]",
                                  str(README), 0)
        runner.run(test, out=report.append, clear_globs=False)
        namespace = test.globs           # a DocTest runs in a copy
    assert runner.failures == 0, "".join(report)
    assert runner.tries == sum(b.count(">>> ") for b in blocks)


def _readme_transcripts() -> list:
    """(argv, output) of each ``$ dunklops`` line in a ``text`` block of
    the README whose output, the lines up to the next command or blank
    line, is shown in full: not elided with ``...`` and not left out."""
    out = []
    for block in re.findall(r"^```text\n(.*?)^```$", README.read_text(),
                            re.M | re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ dunklops "):
                continue
            shown = []
            for text in lines[i + 1:]:
                if not text or text.startswith("$ "):
                    break
                shown.append(text)
            if shown and not any("..." in text for text in shown):
                argv = shlex.split(line[2:], comments=True)[1:]
                out.append((argv, "\n".join(shown) + "\n"))
    return out


def test_readme_cli_transcripts_print_what_they_show(capsys):
    from dunklops.cli import main
    transcripts = _readme_transcripts()
    assert len(transcripts) >= 4
    for argv, shown in transcripts:
        main(argv)
        assert capsys.readouterr().out == shown, argv


def test_only_opalgebra_imports_private_names_from_coeffring():
    # the accumulator's format is known to coeffring and opalgebra alone
    importers = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("coeffring", "dunklops.coeffring")):
                importers.setdefault(path.stem, []).extend(
                    alias.name for alias in node.names
                    if alias.name.startswith("_"))
    private = {stem: names for stem, names in importers.items() if names}
    assert set(private) == {"opalgebra"}, private


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _surface(path, tree) -> list:
    """The nodes that state the surface rather than use it: docstrings,
    ``__all__`` and the package's re-exports."""
    out = [node.body[0] for node in ast.walk(tree)
           if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
           and node.body and _is_docstring(node.body[0])]
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            out.append(node)
        elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
            out.append(node)
    return out


def test_every_public_function_and_method_is_used_in_src():
    # A use is a name, an attribute, an import or an identifier string (an
    # Assembly's member name, say) anywhere in src outside the surface.
    public, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                public.append(node.name)
            elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
                public.extend(f"{node.name}.{item.name}" for item in node.body
                              if isinstance(item, ast.FunctionDef)
                              and item.name[0] != "_")
        skip = {id(n) for top in _surface(path, tree) for n in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                used.add(node.value)
    unused = [name for name in public
              if name.rpartition(".")[2] not in used]
    assert not unused, unused
