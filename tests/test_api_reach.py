"""Public API must have a caller besides its own unit tests.

Every module-level public function and class in ``src/biphoton``, and every
public method and property of such a class, has to be referenced from
somewhere other than the unit tests: another package module, the rest of its
own module, the benchmark under ``bench/``, or the acceptance gate
``tests/test_acceptance.py``.  Code that only its own test reaches is deleted
together with that test.  Dataclass fields are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biphoton"


def _names_read(tree, skip=None):
    """Every name, attribute and imported name in ``tree``, outside ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unreached():
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    outside = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    read_by = {path: _names_read(ast.parse(path.read_text())) for path in outside}
    read_by.update((path, _names_read(tree)) for path, tree in modules.items())
    unreached = []
    for path, tree in modules.items():
        elsewhere = set().union(*(names for other, names in read_by.items() if other != path))
        public = [(node, node.name) for node in tree.body if _is_public_def(node)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                public += [(node, f"{cls.name}.{node.name}") for node in cls.body
                           if _is_public_def(node)]
        for node, label in public:
            if node.name not in elsewhere and node.name not in _names_read(tree, skip=node):
                unreached.append(f"{path.stem}.{label}")
    return unreached


def _is_public_def(node):
    defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    return defines and not node.name.startswith("_")


def test_every_public_function_and_class_has_a_caller_outside_unit_tests():
    unreached = _unreached()
    assert not unreached, "only unit tests reach " + ", ".join(unreached)
