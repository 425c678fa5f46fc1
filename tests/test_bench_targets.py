"""The benchmark's traced run wraps library functions that it names as
``(module, attribute path)`` in ``benchmark/tracing.py``, and its workloads
and runner call the library through names of its modules. A rename or a
cut under ``src/`` would break only the benchmark, so every such name is
resolved here. The tracer's span stack is single-threaded, so no worker
thread may call a traced function: a boot starts no thread, and
provisioning's one worker runs only the jobs ``tests/test_image.py`` names.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmark" / "tracing.py"


def _tmiusim_names(source: str) -> set[str]:
    """The dotted path of each name that ``source`` takes from ``tmiusim``:
    each name imported from a ``tmiusim`` module, and each attribute read
    off a name so imported, or off an imported ``tmiusim`` module."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> dotted path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tmiusim":  # binds the package, or a module as a name
                    bound[alias.asname or "tmiusim"] = alias.name if alias.asname else "tmiusim"
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "tmiusim":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            names.add(f"{bound[node.value.id]}.{node.attr}")
    return names


def _unresolved(names) -> list[str]:
    """Those of ``names``, dotted paths into ``tmiusim``, that do not
    resolve to an object defined under ``src/``: the longest prefix that
    imports as a module, then an attribute for each part after it."""
    missing, absent = [], object()
    for name in sorted(names):
        parts = name.split(".")
        for at in range(len(parts), 0, -1):
            try:
                owner = importlib.import_module(".".join(parts[:at]))
                break
            except ModuleNotFoundError:
                continue
        if not Path(owner.__file__).resolve().is_relative_to(ROOT / "src"):
            missing.append(name)
            continue
        for part in parts[at:]:
            owner = getattr(owner, part, absent)
        if owner is absent:
            missing.append(name)
    return missing


@pytest.mark.parametrize("harness", ["workloads.py", "run.py"])
def test_every_library_name_the_harness_uses_resolves_in_src(harness):
    # The harness calls the library through module attributes; a name cut
    # from src/ would break only the benchmark run.
    names = _tmiusim_names((ROOT / "benchmark" / harness).read_text())
    assert names and _unresolved(names) == []


def test_a_missing_library_name_is_reported():
    source = (
        "import tmiusim\nfrom tmiusim import host, image as img\nfrom tmiusim.image import EntryKind, gone\n"
        "tmiusim.__file__, tmiusim.lost, host.build_system, host.vanished, img.verify_image, img.absent\n"
        "EntryKind.KERNEL, EntryKind.BOOTLOADER, state.host.anything\n"
    )
    assert _tmiusim_names(source) == {
        "tmiusim", "tmiusim.__file__", "tmiusim.lost", "tmiusim.host", "tmiusim.host.build_system",
        "tmiusim.host.vanished", "tmiusim.image", "tmiusim.image.verify_image", "tmiusim.image.absent",
        "tmiusim.image.EntryKind", "tmiusim.image.gone", "tmiusim.image.EntryKind.KERNEL",
        "tmiusim.image.EntryKind.BOOTLOADER",
    }
    assert _unresolved(_tmiusim_names(source)) == [
        "tmiusim.host.vanished", "tmiusim.image.EntryKind.BOOTLOADER", "tmiusim.image.absent",
        "tmiusim.image.gone", "tmiusim.lost",
    ]


def _traced() -> tuple[tuple[str, str, str], ...]:
    """``tracing.TRACED``, read from the file without importing the harness."""
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize(
    "module_name, path", [(module, path) for _, module, path in _traced()], ids=lambda v: v
)
def test_traced_target_resolves_in_src(module_name, path):
    owner = importlib.import_module(module_name)
    assert Path(owner.__file__).resolve().is_relative_to(ROOT / "src")
    if "." in path:
        # The tracer wraps a method on its class, so it must be defined there.
        cls_name, attr = path.split(".")
        target = vars(getattr(owner, cls_name)).get(attr)
    else:
        target = getattr(owner, path, None)
    assert callable(target), f"{module_name}:{path} does not resolve"
