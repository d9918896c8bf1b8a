"""Module boundaries: the private names one tokenweave module takes from another,
and the one function through which the package writes files."""

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


# (module, top-level function) of each call that writes a file: write_atomically,
# through which every run file goes, and the WAV encoder that writes into its handle
FILE_WRITERS = {("model", "write_atomically"), ("conditioning", "save_wav")}


def writes_a_file(call: ast.Call) -> bool:
    """A write_text or write_bytes call, or an open (builtin, wave, Path) given
    a write mode."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in ("write_text", "write_bytes"):
        return True
    modes = [*call.args[:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return name == "open" and any(
        isinstance(m, ast.Constant) and isinstance(m.value, str)
        and set(m.value) <= set("rwaxbt+") and bool(set(m.value) & set("wax+"))
        for m in modes
    )


def file_writes(path: Path):
    """(module, top-level name, line) of each call in the file that writes a file."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and writes_a_file(node):
                yield path.stem, getattr(top, "name", "<module>"), node.lineno


def test_every_file_write_goes_through_write_atomically():
    found = [write for path in sorted(PACKAGE.glob("*.py")) for write in file_writes(path)]
    assert {(module, name) for module, name, _ in found} == FILE_WRITERS, found
