"""The package holds the trial path; what only the tests use lives in
``tests/reference.py``.

Run as a script, ``python tests/test_package.py`` prints the code lines
(:func:`code_lines`) of each module under ``src/otfs_sync`` and their
total.
"""

import ast
import importlib
import io
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "otfs_sync"

#: Token types that carry no code: layout, comments and file framing.
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Lines of ``path`` that hold code: each line a code token spans,
    except the lines of module, class and function docstrings.  Blank
    lines and comments hold no code token."""
    source = Path(path).read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def mentions(node):
    """How often ``node`` names each identifier, as a name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def src_mentions():
    """:func:`mentions` summed over the modules under ``src/otfs_sync``."""
    return sum((mentions(ast.parse(path.read_text()))
                for path in sorted(SRC.glob("*.py"))), Counter())


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


def abstract_overrides(tree, module):
    """``module.Class.name`` of each method of ``tree``'s top-level classes
    that implements an abstract method of a base class the module imports
    with ``from ... import``: the base class's callers call it, not the
    package."""
    imported = {alias.asname or alias.name: (node.module, alias.name)
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 0
                for alias in node.names}
    found = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in imported:
                source, name = imported[base.id]
                cls = getattr(importlib.import_module(source), name)
                found.update(f"{module}.{node.name}.{method}" for method
                             in getattr(cls, "__abstractmethods__", ()))
    return found


def uncalled_definitions(src):
    """Each public definition under ``src`` (see
    :func:`public_definitions`) that no code in ``src`` names outside the
    definition itself, except an implementation of an imported abstract
    method (:func:`abstract_overrides`); ``__init__.py`` is not read, so
    a name it imported would not count as a caller."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"}
    everywhere = sum((mentions(tree) for tree in trees.values()), Counter())
    exempt = set().union(*(abstract_overrides(tree, module)
                           for module, tree in trees.items()))
    return sorted(name for module, tree in trees.items()
                  for name, node in public_definitions(tree, module)
                  if everywhere[node.name] == mentions(node)[node.name]
                  and name not in exempt)


def test_every_public_definition_has_a_caller_in_src():
    """A public function, class, method or property that only the tests
    call is a second library beside the trial path: it belongs in
    ``tests/reference.py``, or nowhere."""
    assert uncalled_definitions(SRC) == []


def test_no_seed_sequence_in_src():
    """A trial's generators are built from the seeding words of a run's
    vectorised pass, on one path; numpy's ``SeedSequence``, which that
    pass reproduces, is only the tests' reference."""
    assert src_mentions()["SeedSequence"] == 0


def test_no_asarray_in_src():
    """The trial path takes the arrays it builds as they are: inputs from
    outside the program are checked where they enter, by config parsing
    and ``harness.build_point``, and no function coerces its arguments
    again."""
    assert src_mentions()["asarray"] == 0


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


def test_guard_exempts_only_abstract_method_implementations(tmp_path):
    """A method that implements an imported base class's abstract method
    is called by that base class's users, so it needs no caller; any
    other method of the same class still does."""
    (tmp_path / "mod.py").write_text(
        "from numpy.random.bit_generator import ISeedSequence\n"
        "\n"
        "class Words(ISeedSequence):\n"
        "    def generate_state(self, n_words, dtype=None):\n"
        "        return n_words\n"
        "    def spare(self):\n"
        "        return 0\n"
        "\n"
        "print(Words())\n")
    assert uncalled_definitions(tmp_path) == ["mod.Words.spare"]


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    """Docstrings, comments and blank lines are not code; a multi-line
    string that is not a docstring is, one line per line it spans."""
    path = tmp_path / "mod.py"
    path.write_text('"""Module\n'
                    'docstring."""\n'
                    "\n"
                    "# a comment\n"
                    "def f(x):\n"
                    '    """Function docstring."""\n'
                    "\n"
                    "    y = x + 1  # trailing comment\n"
                    '    return y, """a\n'
                    'b"""\n')
    assert code_lines(path) == 4


if __name__ == "__main__":
    counts = {path.stem: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    for module, count in counts.items():
        print(f"{module:10s} {count:5d}")
    print(f"{'total':10s} {sum(counts.values()):5d}")
