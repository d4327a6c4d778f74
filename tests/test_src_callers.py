"""Source tripwire: ``src/`` holds what a run reaches.

Every top-level function and class under ``src/`` has a caller under
``src/`` or ``examples/`` — a name or attribute that reads it, or a
string naming it (a lookup by name) — unless it is on :data:`ALLOWED`
below. Test-only code lives in ``tests/reference.py``. Neither an
import nor an ``__all__`` entry is a caller: re-exported API is listed
here by hand.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: top-level definitions with no caller in ``src/`` or ``examples/``
ALLOWED = {
    # public API re-exported by the package ``__init__``s
    "InlineBackend",  # repro.exec: the inline backend as an object
    "from_edges",  # repro.graph
    "read_edge_list",  # repro.graph
    "write_edge_list",  # repro.graph
    "erdos_renyi",  # repro.graph
    "power_law_edge_batches",  # repro.graph
    "build_store",  # repro.graph
    # repro.graph.generators' small named graphs, the shapes every
    # graph-level test is written against
    "star_graph",
    "complete_graph",
    "cycle_graph",
    # the compiled order cost the order search's read-off cost
    # (_score_order) must equal bit for bit; it states the model
    "_order_cost",
}


def _top_level_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _references(tree):
    """Every name the module reads: names, attributes, and strings
    outside ``__all__``."""
    skipped = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            skipped.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_src_definition_has_a_caller():
    paths = sorted((ROOT / "src").rglob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    examples = [ast.parse(path.read_text())
                for path in sorted((ROOT / "examples").glob("*.py"))]
    referenced = {name for tree in [*trees.values(), *examples]
                  for name in _references(tree)}
    uncalled = [f"{path.relative_to(ROOT)}: {name}"
                for path, tree in trees.items()
                for name in _top_level_definitions(tree)
                if name not in referenced and name not in ALLOWED]
    assert not uncalled
    # the allowlist lists only what needs it
    defined = {name for tree in trees.values()
               for name in _top_level_definitions(tree)}
    assert ALLOWED <= defined
    assert not ALLOWED & referenced
