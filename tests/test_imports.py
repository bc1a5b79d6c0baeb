"""Every name a module imports is used in that module.

No linter is a dependency of the project, so this parses the package and
test sources with ``ast``.  ``__init__.py`` is skipped: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SOURCES = sorted(p for p in [*(_ROOT / "src" / "spincs").glob("*.py"),
                              *(_ROOT / "tests").glob("*.py")]
                  if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == ["os", "pi"]
    assert _unused_imports("import os.path\nos.path.join('a')\n") == []
    assert _unused_imports("from x import y as z\nz()\n") == []


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.relative_to(_ROOT).as_posix())
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
