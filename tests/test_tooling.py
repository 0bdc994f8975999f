"""Checks on the sources and the benchmark harness that need no run."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


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
