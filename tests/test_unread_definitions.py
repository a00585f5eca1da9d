"""Every module-level definition in the package is read somewhere.

A module-level ``def``, ``class`` or assignment counts as read when its
name is loaded (as a plain name or as an attribute) in ``src/``,
``scripts/``, ``perfbench/`` or ``tests/``, outside its own definition.
Names are matched by spelling alone, by ast. ``__all__`` and
``__version__`` are read by the import system and packaging, not by code.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "occlukg"
READERS = ("src", "scripts", "perfbench", "tests")
EXEMPT = {"__all__", "__version__"}

MODULES = sorted(PACKAGE.rglob("*.py"))


def loaded_names(tree: ast.AST) -> Counter:
    """How often each name is read below ``tree``: loaded names and attribute names."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, defining statement) for each module-level def, class and assigned name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out += [(n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name)]
    return out


def unread(tree: ast.Module, reads: Counter) -> list[str]:
    """The names ``tree`` defines that ``reads`` holds no read of outside their definition."""
    return [
        name for name, node in definitions(tree)
        if name not in EXEMPT and reads[name] <= loaded_names(node)[name]
    ]


@pytest.fixture(scope="module")
def reads() -> Counter:
    total = Counter()
    for folder in READERS:
        for path in (REPO / folder).rglob("*.py"):
            total += loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    return total


def test_the_walk_finds_unread_definitions():
    tree = ast.parse(
        "import os\n"
        "__all__ = ['used']\n"
        "def used(): return os.sep\n"
        "def recursive(n): return recursive(n - 1)\n"
        "UNUSED, (PAIRED, _) = 1, (2, 3)\n"
        "class Kept: pass\n"
        "LABEL: str = Kept.__name__\n"
    )
    reads = loaded_names(tree) + loaded_names(ast.parse("used(); LABEL"))
    assert unread(tree, reads) == ["recursive", "UNUSED", "PAIRED", "_"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_definition_is_read(path, reads):
    assert unread(ast.parse(path.read_text(encoding="utf-8")), reads) == []
