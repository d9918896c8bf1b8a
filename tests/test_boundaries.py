"""Module boundaries: the private names one tokenweave module takes from another."""

import ast
from pathlib import Path

import tokenweave

PACKAGE = Path(tokenweave.__file__).parent
# (importer, module imported from, name) of private helpers shared on purpose:
# none, so a module that needs another's helper asks for a public name
SHARED_PRIVATE_NAMES = set()


def private_imports(path: Path):
    """(importer, module, name) for each `from .module import _name` in the
    file; the package's modules import one another relatively."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield path.stem, node.module, alias.name


def test_only_the_shared_helpers_cross_a_module_boundary():
    found = {imp for path in sorted(PACKAGE.glob("*.py")) for imp in private_imports(path)}
    assert found == SHARED_PRIVATE_NAMES
