"""The package holds the trial path; what only the tests use lives in
``tests/reference.py``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "otfs_sync"


def uncalled_definitions(src):
    """``module.name`` of each public top-level function and class under
    ``src`` that no code in ``src`` names, outside the definition itself
    and the package's re-exports in ``__init__.py``."""
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined[node.name] = path.stem
            used |= names
    return sorted(f"{module}.{name}" for name, module in defined.items()
                  if name not in used)


def test_every_public_definition_has_a_caller_in_src():
    """A public function or class that only the tests call is a second
    library beside the trial path: it belongs in ``tests/reference.py``,
    or nowhere."""
    assert uncalled_definitions(SRC) == []
