"""No module-level definition in the package is read only by tests.

The walk is the one of ``test_unread_definitions``, with tests left out
of the readers: a definition counts as read when its name is loaded in
``src/``, ``scripts/`` or ``perfbench/``, outside any ``tests`` folder
and outside its own definition. A definition only tests read is code
the pipeline never runs; it is deleted or given a caller, or listed in
``TEST_ONLY`` with the reason it stays.
"""

import ast
from collections import Counter

import pytest

from test_unread_definitions import MODULES, PACKAGE, REPO, loaded_names, unread

READERS = ("src", "scripts", "perfbench")

# "<module>.<name>" -> why the definition stays though only tests read it.
TEST_ONLY = {
    "bayes.posterior": (
        "the posterior-identity and monotonicity checks call it; ROADMAP item 6 "
        "folds it into predict_frame's scoring or keeps it with a caller"
    ),
}


def module_name(path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


@pytest.fixture(scope="module")
def reads_outside_tests() -> Counter:
    total = Counter()
    for folder in READERS:
        for path in (REPO / folder).rglob("*.py"):
            if "tests" not in path.relative_to(REPO).parts:
                total += loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    return total


def read_only_by_tests(path, reads: Counter) -> list[str]:
    """``<module>.<name>`` of each definition at ``path`` that ``reads`` never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{module_name(path)}.{name}" for name in unread(tree, reads)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_definition_is_read_only_by_tests(path, reads_outside_tests):
    found = read_only_by_tests(path, reads_outside_tests)
    assert [name for name in found if name not in TEST_ONLY] == []


def test_every_allowed_entry_is_still_read_only_by_tests(reads_outside_tests):
    # an entry whose definition gained a caller, or is gone, leaves the list
    found = {name for path in MODULES for name in read_only_by_tests(path, reads_outside_tests)}
    assert set(TEST_ONLY) <= found
