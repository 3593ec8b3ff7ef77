"""Every top-level function and class in the package serves the library.

A definition counts as used when library code outside its own definition
refers to it, or when the package's __init__ exports it.  The few that
only tests call are per-profile references the array paths are checked
against; they are listed here by name.
"""

import ast
from pathlib import Path

import approxagg

SRC = Path(approxagg.__file__).parent

TEST_REFERENCES = {"apply", "Profile", "profile_index", "profile_column",
                   "profile_from_index", "inverse"}


def _names(node) -> set[str]:
    """Names a subtree loads, as plain names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_no_library_code_only_tests_use():
    defined = {}   # name -> module
    used = set()
    exported = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            exported |= {alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) for alias in node.names}
            continue
        for node in tree.body:
            names = _names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
                names.discard(node.name)   # recursion is not a use
            used |= names
    unused = sorted(f"{module}.{name}" for name, module in defined.items()
                    if name not in used | exported | TEST_REFERENCES)
    assert not unused, f"library code that nothing in the library uses: {unused}"
    # the allowlist names only definitions that exist
    assert TEST_REFERENCES <= set(defined)
