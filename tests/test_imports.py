"""Every module of the package uses each name it imports, every private
function, method or class the package defines is referenced in it, and
every named parameter of its functions and methods is read. The public API
is pinned, so that any change to it is a deliberate edit here.

``__init__.py`` is left out of the import check: its imports are the public
API it re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import tmiusim

_PACKAGE = sorted(Path(tmiusim.__file__).parent.glob("*.py"))
_MODULES = [path for path in _PACKAGE if path.name != "__init__.py"]


def test_public_api_is_pinned():
    api = [
        "CardIdentity",
        "DeviceIdentity",
        "EntryKind",
        "KdfInput",
        "LockdownError",
        "NvmImage",
        "build_system",
        "crc16",
        "crc7",
        "derive_key",
        "derive_mac_key",
        "provision",
        "sha256",
        "verify_image",
    ]
    assert api == sorted(api)
    assert tmiusim.__all__ == api
    assert [name for name in api if not hasattr(tmiusim, name)] == []


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


_THREAD_MODULES = ("threading", "_thread", "concurrent", "queue")


def _thread_imports(source: str) -> list[str]:
    """The thread modules, ``threading`` or ``concurrent.futures`` among
    them, and ``queue``, which hands data between threads, that ``source``
    imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in _THREAD_MODULES]
    return found


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_only_image_starts_threads(path):
    # One worker mechanism: image._hash_pool is the package's only way to a
    # thread, and every keyless hash that runs off the main thread uses it;
    # no other module hands data between threads by hand.
    if path.name != "image.py":
        assert _thread_imports(path.read_text()) == []


def test_a_thread_import_is_reported():
    source = (
        "import threading\nimport concurrent.futures as cf\nfrom concurrent import futures\n"
        "from queue import SimpleQueue\nfrom _thread import start_new_thread\nfrom .threading import x\n"
    )
    assert _thread_imports(source) == ["threading", "concurrent.futures", "concurrent", "queue", "_thread"]


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Private (``_name``, not dunder) functions, methods and classes named
    nowhere in ``sources`` outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references: Counter[str] = Counter()
    defined = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = _referenced_name(node)
            if name is not None:
                references[name] += 1
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")
            ):
                defined.append((module, node))
    unreferenced = []
    for module, node in defined:
        own = sum(_referenced_name(inner) == node.name for inner in ast.walk(node))
        if references[node.name] == own:
            unreferenced.append(f"{module}: {node.name} (line {node.lineno})")
    return sorted(unreferenced)


def test_package_references_every_private_definition():
    sources = {path.name: path.read_text() for path in _PACKAGE}
    assert _unreferenced_private_defs(sources) == []


def test_an_unreferenced_private_definition_is_reported():
    sources = {
        "a.py": (
            "def _used():\n    pass\n\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n\n"
            "class _Gone:\n    def _helper(self):\n        pass\n\n"
            "    def __repr__(self):\n        return ''\n"
        ),
        "b.py": "from a import _used\n_used()\n",
    }
    assert _unreferenced_private_defs(sources) == [
        "a.py: _Gone (line 7)",
        "a.py: _helper (line 8)",
        "a.py: _recursive (line 4)",
    ]


def _unread_parameters(source: str) -> list[str]:
    """Named parameters of functions and methods never read in their body.
    ``self``, ``cls`` and ``_``-prefixed names are exempt, and so are
    lambdas, such as a no-op sink ``lambda item: None``."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        read = {
            inner.id
            for statement in node.body
            for inner in ast.walk(statement)
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
        }
        unread += [
            f"{node.name}: {param.arg} (line {node.lineno})"
            for param in params
            if param is not None
            and param.arg not in ("self", "cls")
            and not param.arg.startswith("_")
            and param.arg not in read
        ]
    return sorted(unread)


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path.read_text()) == []


def test_an_unread_parameter_is_reported():
    source = (
        "def read(bus, card, lba, *, phase, _spare, **extra):\n"
        "    def inner():\n"
        "        return lba\n"
        "    return bus.fetch(inner())\n\n"
        "class Unit:\n"
        "    def charge(self, cycles, nbytes):\n"
        "        self.cycles = cycles\n"
        "        nbytes = 0\n\n"
        "    @classmethod\n"
        "    def build(cls, *args):\n"
        "        return Unit()\n\n"
        "sink = lambda item: None\n"
    )
    assert _unread_parameters(source) == [
        "build: args (line 12)",
        "charge: nbytes (line 7)",
        "read: card (line 1)",
        "read: extra (line 1)",
        "read: phase (line 1)",
    ]
