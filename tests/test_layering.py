"""The package's modules import only from their own layer or the ones below.

The layers run scenes -> synth/kg -> kge -> bayes -> harness -> cli. The
package ``__init__`` re-exports every layer and so sits above them all.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "occlukg"

LAYERS = {"scenes": 0, "synth": 1, "kg": 1, "kge": 2, "bayes": 3, "harness": 4, "cli": 5}

MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def layer_of(parts: tuple[str, ...]) -> int:
    """The layer of the module at ``parts``, its path below the package."""
    return LAYERS[parts[0].removesuffix(".py")]


def package_imports(path: Path) -> list[tuple[str, ...]]:
    """The package paths each relative import of the module names, by ast."""
    here = path.relative_to(PACKAGE).parts[:-1]
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = here[: len(here) - (node.level - 1)]
            target = base + tuple(node.module.split(".")) if node.module else base
            out.append(target)
    return out


def test_every_module_has_a_layer():
    assert {p.relative_to(PACKAGE).parts[0].removesuffix(".py") for p in MODULES} == set(LAYERS)


def test_the_walk_sees_relative_imports():
    assert ("kge", "calibrate") in package_imports(PACKAGE / "bayes.py")
    assert ("kg",) in package_imports(PACKAGE / "kge" / "train.py")
    assert ("kg",) in package_imports(PACKAGE / "kge" / "model.py")  # under TYPE_CHECKING


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_imports_upward(path):
    own = layer_of(path.relative_to(PACKAGE).parts)
    upward = [".".join(t) for t in package_imports(path) if layer_of(t) > own]
    assert upward == []
