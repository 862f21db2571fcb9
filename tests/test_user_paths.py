"""Every public top-level function and class of the package has a user path.

A name counts as used when it is named (a name, an attribute or an
imported name) somewhere outside its own definition: in the package, in
perfbench/ or in scripts/. The tests do not count. The check goes by name
alone, as ROADMAP item 12 does, so a local of the same name elsewhere
also counts as a use.
"""

import ast
from collections import Counter
from pathlib import Path

import mirrorwords

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(Path(mirrorwords.__file__).parent.glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# names that only the tests call, each waiting for the ROADMAP item that
# decides it; the list can only shrink
WAITING = {
    "arrowarc.arc_to_rotation": "items 2 and 12",
    "arrowarc.slide": "items 2 and 12",
    "arrowarc.antipode_head": "items 2 and 12",
    "arrowarc.triangle_compose": "items 2 and 12",
    "orthon.decompose": "item 13",
    "plane.verify_pencil_relation": "item 5",
    # the references of the per-mirror stream test
    "sampling.random_circle": "item 12",
    "sampling.random_axis": "item 12",
    "sampling.random_hyperplane": "item 12",
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


def test_every_public_package_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    unused = set()
    for path in PACKAGE:
        for node in trees[path].body:
            public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            if public and named[node.name] == _names(node)[node.name]:
                unused.add(f"{path.stem}.{node.name}")
    # a listed name that gains a caller leaves the list
    assert unused == set(WAITING), (
        f"no user path: {sorted(unused - set(WAITING))}; "
        f"gained a caller: {sorted(set(WAITING) - unused)}"
    )
