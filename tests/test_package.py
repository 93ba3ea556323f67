"""The package holds the trial path; what only the tests use lives in
``tests/reference.py``."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "otfs_sync"


def mentions(node):
    """How often ``node`` names each identifier, as a name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def public_definitions(tree, module):
    """(``module.name``, node) of each public top-level function and class
    of ``tree``, and (``module.Class.name``, node) of each public method
    and property of its top-level classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member


def uncalled_definitions(src):
    """Each public definition under ``src`` (see
    :func:`public_definitions`) that no code in ``src`` names outside the
    definition itself; ``__init__.py`` is not read, so a name it imported
    would not count as a caller."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"}
    everywhere = sum((mentions(tree) for tree in trees.values()), Counter())
    return sorted(name for module, tree in trees.items()
                  for name, node in public_definitions(tree, module)
                  if everywhere[node.name] == mentions(node)[node.name])


def test_every_public_definition_has_a_caller_in_src():
    """A public function, class, method or property that only the tests
    call is a second library beside the trial path: it belongs in
    ``tests/reference.py``, or nowhere."""
    assert uncalled_definitions(SRC) == []


def test_guard_sees_methods_and_properties(tmp_path):
    """A method or property is caught like a function, and a use from a
    sibling member counts as a caller while recursion does not."""
    (tmp_path / "mod.py").write_text(
        "class Grid:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 4\n"
        "    @property\n"
        "    def area(self):\n"
        "        return self.size ** 2\n"
        "    def walk(self, k):\n"
        "        return self.walk(k - 1) if k else 0\n"
        "\n"
        "print(Grid().area)\n")
    assert uncalled_definitions(tmp_path) == ["mod.Grid.walk"]
