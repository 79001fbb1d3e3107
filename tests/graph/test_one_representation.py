"""Only ``repro.graph`` builds graphs from dense matrices or snapshot lists.

Every other producer (dataset twins, baselines, ``perturb``, the model
rollouts) emits edge columns into a ``TemporalEdgeStoreBuilder`` or
rewrites a store's attribute block, so each graph is one
``TemporalEdgeStore`` from birth.  A ``GraphSnapshot(adjacency)`` or
``DynamicAttributedGraph(snapshots)`` call outside ``graph/`` would
bring back a per-step dense representation.
"""

import ast
from pathlib import Path

import repro

CONSTRUCTORS = ("GraphSnapshot", "DynamicAttributedGraph")


def _constructor_calls():
    """``(package, "module:line name")`` for every direct call of a
    graph constructor in ``src/repro`` (``from_store`` and other
    classmethods are attribute calls and do not count)."""
    src = Path(repro.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in CONSTRUCTORS:
                found.append((rel.parts[0], f"{rel}:{node.lineno} {name}"))
    return found


def test_no_graph_constructor_calls_outside_the_graph_package():
    outside = [call for package, call in _constructor_calls()
               if package != "graph"]
    assert outside == []


def test_scan_sees_the_graph_package_own_calls():
    inside = [call for package, call in _constructor_calls()
              if package == "graph"]
    assert any(call.startswith("graph/dynamic.py") for call in inside)
