"""The benchmark's traced run wraps library functions that it names as
``(module, attribute path)`` in ``benchmark/tracing.py``. A rename under
``src/`` would break only that run, so every name is resolved here. The
tracer's span stack is single-threaded, so no worker thread may call one.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from tmiusim import host

from conftest import provision_container, record_hash_workers

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


def test_the_boot_digest_worker_calls_no_traced_function(monkeypatch):
    # The tracer keeps one span stack, so only the booting thread may enter
    # a traced function: record the thread of every call while a container
    # past HASH_THREAD_MIN_CONTAINER, handed over once before its end,
    # boots on the host's digest worker.
    result = provision_container(6000)
    callers = []

    def recording(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            callers.append(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n == "tmiusim" or n.startswith("tmiusim.")]
    for _, module_name, path in _traced():
        owner = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, attr, recording(vars(cls)[attr]))
            continue
        original = getattr(owner, path)
        wrapper = recording(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    started, _ = record_hash_workers(monkeypatch, {"_hash_spans"})

    boot_host, _, _, _ = host.build_system(result.manifest, result.image.clone())
    assert boot_host.run_boot(expected_entries=result.manifest.entries).ok
    assert len(started) == 1
    assert callers and set(callers) == {threading.get_ident()}
