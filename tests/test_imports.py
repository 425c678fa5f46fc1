"""Every module of the package uses each name it imports.

``__init__.py`` is left out: its imports are the public API it re-exports.
"""

import ast
from pathlib import Path

import pytest

import tmiusim

_MODULES = sorted(
    path for path in Path(tmiusim.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "import os\nimport struct\nfrom .crypto import crc16, sha256\nstruct.pack\nsha256(b'')\n"
    assert _unused_imports(source) == ["crc16 (line 3)", "os (line 1)"]
