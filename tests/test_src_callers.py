"""Every definition in src/char2lie has a caller in src/char2lie.

Code that only the tests use belongs in `tests/oracles.py`.  The scan reads
the syntax trees, not the text: a word match would find `bracket` in the
comments and docstrings and miss that `superfunc.bracket` has no caller.
"""

import ast
from pathlib import Path

import char2lie

SRC = Path(char2lie.__file__).resolve().parent

# definitions kept without a caller in src/, each with its reason
ALLOWED = {
    "superfunc.bracket": "perfbench/spans.py patches it to count bracket calls",
}


def _definitions_and_references():
    """The module-level functions and classes and the non-dunder methods of
    src/char2lie, as `module.name` or `module.Class.name`, and every name
    that src/char2lie reads as an ast.Name, an ast.Attribute or an import
    alias."""
    defs, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defs += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return defs, refs


def test_every_src_definition_has_a_caller_in_src():
    defs, refs = _definitions_and_references()
    assert "liesuper.StructureConstants.verify_axioms" in defs  # methods are scanned too
    uncalled = sorted(d for d in defs if d.rpartition(".")[2] not in refs)
    assert uncalled == sorted(ALLOWED), (
        "definitions in src/char2lie that nothing in src/char2lie reaches; "
        "move a test-only one to tests/oracles.py"
    )
