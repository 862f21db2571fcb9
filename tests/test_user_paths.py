"""Every top-level function and class of the package has a user path.

A name counts as used when it is named (a name, an attribute or an
imported name) somewhere outside its own definition: in the package, in
perfbench/ or in scripts/. The tests do not count. The check goes by name
alone, as ROADMAP item 12 does, so a local of the same name elsewhere
also counts as a use. A public name may wait in WAITING for the item
that gives it a user path; a private helper may not wait, so one that
loses its last caller fails at once.
"""

import ast
from collections import Counter
from pathlib import Path

import mirrorwords

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(Path(mirrorwords.__file__).parent.glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# public names that only the tests call, each waiting for the ROADMAP item
# that gives it a user path; the list can only shrink
WAITING = {
    "arrowarc.triangle_compose": "item 2",
    "orthon.decompose": "item 13",
    "plane.verify_pencil_relation": "item 5",
}


def _names(tree) -> Counter:
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.alias):
            named[node.name.rpartition(".")[2]] += 1
    return named


def _unused() -> set:
    """module.name of each top-level function or class that nothing outside its definition names."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    unused = set()
    for path in PACKAGE:
        for node in trees[path].body:
            defined = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defined and named[node.name] == _names(node)[node.name]:
                unused.add(f"{path.stem}.{node.name}")
    return unused


def test_every_public_package_name_is_used_outside_the_tests():
    unused = {name for name in _unused() if not name.partition(".")[2].startswith("_")}
    # a listed name that gains a caller leaves the list
    assert unused == set(WAITING), (
        f"no user path: {sorted(unused - set(WAITING))}; "
        f"gained a caller: {sorted(set(WAITING) - unused)}"
    )


def test_every_private_helper_has_a_caller_outside_the_tests():
    assert sorted(name for name in _unused() if name.partition(".")[2].startswith("_")) == []
