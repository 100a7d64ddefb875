"""One task runner for the whole package.

The simulator and the correlator run their tasks through one helper, so
exactly one module of ``src/biphoton`` may import ``ThreadPoolExecutor``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "biphoton"


def _imports_thread_pool(tree):
    return any(
        isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.rsplit(".", 1)[-1] == "ThreadPoolExecutor" for alias in node.names)
        for node in ast.walk(tree)
    )


def test_exactly_one_module_imports_a_thread_pool():
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if _imports_thread_pool(ast.parse(path.read_text()))
    ]
    assert importers == ["_tasks"], f"modules importing ThreadPoolExecutor: {importers}"
