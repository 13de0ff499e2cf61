"""The library's modules import each other without a cycle.

A stdlib ``ast`` scan: every ``from .x import ...`` in
``src/inputdp/*.py``, at module top or inside a function, is an edge
from the importing module to ``x``, and a depth-first search over those
edges must find no back edge.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "inputdp"


def import_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Module name -> the sibling modules it imports relatively."""
    graph: dict[str, set[str]] = {}
    for name, source in sources.items():
        graph[name] = {
            node.module.split(".")[0]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        } & sources.keys()
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path [a, b, ..., a], or None."""
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = "open"
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt) :] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        state[node] = "done"
        path.pop()
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_scanner_sees_function_level_imports():
    sources = {
        "a": "from .b import f\n",
        "b": "def f():\n    from .a import g  # deferred\n    return g\n",
        "c": "from .a import f\nimport numpy\n",
    }
    graph = import_graph(sources)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    assert find_cycle(graph) == ["a", "b", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_library_has_no_import_cycle():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    cycle = find_cycle(import_graph(sources))
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"
