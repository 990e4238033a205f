"""Every name a ``bqfield`` module imports is read in that module.

A simplification that leaves an import behind (a ``Real`` whose check moved
away, a helper no longer called) fails here rather than lingering.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "bqfield"

# (module, name): imported and never read, on purpose
ALLOWED = {
    # perfbench/spans.py wraps these two bindings in ``diagnostics``
    ("diagnostics", "decompose_afield"),
    ("diagnostics", "decompose_theta"),
}


def unused_imports(tree: ast.Module) -> set[str]:
    """The names ``tree`` binds by import and never reads (a name its
    ``__all__`` lists counts as read: a re-export)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update((a.asname or a.name).split(".")[0] for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(ast.parse(path.read_text(), str(path)))}
    assert found == ALLOWED
