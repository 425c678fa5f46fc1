"""The benchmark's traced run wraps library functions that it names as
``(module, attribute path)`` in ``benchmark/tracing.py``. A rename under
``src/`` would break only that run, so every name is resolved here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmark" / "tracing.py"


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
