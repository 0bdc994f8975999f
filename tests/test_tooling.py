"""Checks on the sources and the benchmark harness that need no run."""

import ast
import hashlib
import importlib
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from oesnn import cli
from test_figures import FIGURE_DIGESTS

ROOT = Path(__file__).parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
FIGURE_SCRIPT = ROOT / "scripts" / "make_figure_datasets.py"
README = ROOT / "README.md"


def _dotted(node: ast.expr) -> str:
    """``a.b.c`` for a chain of names and attributes; "" for anything else."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_probe_targets_exist():
    # The worker looks up every probes.wrap(owner, "attr", ...) target before its job runs, so a
    # renamed or deleted target fails every benchmark run.
    calls = [
        node
        for node in ast.walk(ast.parse(WORKER.read_text("utf-8")))
        if isinstance(node, ast.Call) and _dotted(node.func) == "probes.wrap"
    ]
    targets = set()
    for call in calls:
        module, *path = _dotted(call.args[0]).split(".")
        owner = importlib.import_module(f"oesnn.{module}")
        for name in path:
            owner = getattr(owner, name)
        attr = call.args[1].value
        assert hasattr(owner, attr), f"{_dotted(call.args[0])}.{attr}"
        targets.add(f"{_dotted(call.args[0])}.{attr}")
    assert {"simulator.SynapseReport.as_dict", "netgen.NetworkGraph.undirected_csr"} <= targets


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads; ``__future__`` imports and names in ``__all__`` count as read."""
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(_dotted(t) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "oesnn").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if (names := _unused_imports(ast.parse(path.read_text("utf-8"))))
    }
    assert unused == {}


def _reads(tree: ast.Module) -> set[str]:
    """Names and attribute names that ``tree`` loads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_no_unread_module_constants():
    # A module-level UPPER_CASE name in src/oesnn must be read by the package, the tests, the benchmark
    # or the scripts; an assignment alone does not count.
    sources = sorted((ROOT / "src" / "oesnn").glob("*.py"))
    readers = sources + [p for d in ("tests", "perfbench", "scripts") for p in sorted((ROOT / d).glob("*.py"))]
    read = set().union(*(_reads(ast.parse(path.read_text("utf-8"))) for path in readers))
    unread = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {target.id}"
        for path in sources
        for node in ast.parse(path.read_text("utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.lstrip("_").isupper() and target.id not in read
    ]
    assert unread == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figure_script_writes_the_golden_figures(fmt, tmp_path, monkeypatch):
    # Every bundled figure, each with the bytes of ``oesnn figure`` without overrides.
    monkeypatch.setattr(sys, "argv", [str(FIGURE_SCRIPT), "--out", str(tmp_path), "--format", fmt])
    runpy.run_path(str(FIGURE_SCRIPT), run_name="__main__")
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    golden = {f"{fig}.{form}": digest for (fig, form, sets), digest in FIGURE_DIGESTS.items() if form == fmt and not sets}
    assert written == golden


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # Each ``oesnn`` line of the README's CLI block, but the ones naming a file the reader supplies.
    block = README.read_text("utf-8").split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("oesnn ") and "path/to/" not in line]
    assert len(lines) == 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OESNN_OUT", raising=False)
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        assert code == 0, (line, capsys.readouterr().err)
