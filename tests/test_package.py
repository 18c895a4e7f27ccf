"""The package's public surface: its exports, the README's examples and
the one module boundary its sources keep."""

import ast
import doctest
import importlib
import pathlib
import pkgutil
import re

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
