"""Every function, class, method and module-level UPPER_CASE constant the
library defines has a use in the library or the benchmark, not only in
tests.

A name counts as used when it appears, as a name, an attribute or an
imported name, anywhere in src/scampsim or perfbench outside its own
definition. Dunder methods are called by Python itself and are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "scampsim").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _names(node) -> list[str]:
    """Every name that `node` and its children refer to."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.append(n.id)
        elif isinstance(n, ast.Attribute):
            found.append(n.attr)
        elif isinstance(n, ast.alias):
            found.append(n.name.rsplit(".", 1)[-1])
    return found


def _definitions(tree: ast.Module):
    """(qualified name, def node) of each top-level function and class, of
    each method of a top-level class, and (name, assignment) of each
    module-level UPPER_CASE constant, private ones included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member


def test_every_library_definition_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for path in LIBRARY:
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if uses[name] == _names(node).count(name):
                unused.append(f"{path.name}: {qualname}")
    assert not unused, "defined but only tests call: " + ", ".join(unused)
