"""Checks on the benchmark harness that need no benchmark run."""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).parents[1] / "perfbench" / "worker.py"


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
