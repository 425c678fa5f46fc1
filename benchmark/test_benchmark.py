"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest benchmark/test_benchmark.py -q

They live outside ``tests/`` so that the project's own test run never
collects them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tmiusim.scenarios import builtin_scenarios  # noqa: E402

# Modelled figures and digests for seed 1. A change that only makes the
# simulator faster must leave every one of them as it is.
GOLDEN_SEED_1 = {
    "provision13": {
        "image_sha256": "e33164baf4f4aedc199c931ffa25be0eb8b900d964f825777f4d8afb82d31161",
        "manifest_sha256": "10b0d57a67daa0f98f608783e30b81d4645671bd7bd6fe21e9a8381d3110c23d",
    },
    "filestore": {"ops": 100, "cycles": 16978204, "bytes": 8078848},
    "tamper": {"ops": 251, "cycles": 1236629376, "bytes": 480585888},
}


def _prefix(name: str, seed: int = 1, tracer=None) -> list:
    workload = workloads.WORKLOADS[name](seed)
    state = workload.setup()
    # seconds=0: exactly the seed-fixed prefix (at least run.MIN_OPS ops)
    if tracer is None:
        return run.measure(workload, state, 0, run.SpeedProbe())
    with tracer:
        return run.measure(workload, state, 0, run.SpeedProbe(), tracer)


def _inputs(name: str, seed: int):
    """Everything a workload generated from its seed, in comparable form."""
    state = workloads.WORKLOADS[name](seed).setup()
    if name == "provision13":
        return state.entries, state.files, state.dev, state.card
    if name == "filestore":
        return sorted(state.model.items()), [next(state.ops) for _ in range(50)]
    if name == "tamper":
        return state.manifest.to_text(), state.suite
    return state.manifest.to_text(), state.expected


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrappers_leave_outputs_unchanged(name):
    plain = _prefix(name)
    tracer = tracing.Tracer()
    traced = _prefix(name, tracer=tracer)
    assert all(r.ok for r in plain + traced), run.failures(plain + traced)
    workload = workloads.WORKLOADS[name](1)
    assert run.modelled(workload, plain) == run.modelled(workload, traced)
    assert tracer.span_start, "the traced run recorded no spans"


@pytest.mark.parametrize("name", sorted(GOLDEN_SEED_1))
def test_modelled_figures_and_digests_hold_for_seed_1(name):
    results = _prefix(name)
    got = run.modelled(workloads.WORKLOADS[name](1), results)
    assert {k: got[k] for k in GOLDEN_SEED_1[name]} == GOLDEN_SEED_1[name]


def test_tracer_wraps_every_binding_and_restores_it():
    modules = [m for n, m in sys.modules.items() if n == "tmiusim" or n.startswith("tmiusim.")]
    before = [dict(vars(m)) for m in modules]
    crypto, tmiu = sys.modules["tmiusim.crypto"], sys.modules["tmiusim.tmiu"]
    originals = {id(getattr(sys.modules[mod], path)) for _, mod, path in tracing.TRACED if "." not in path}
    decrypt = crypto.decrypt_sector
    with tracing.Tracer():
        for module in modules:
            for attr, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{attr} left unwrapped"
        assert tmiu.decrypt_sector.__wrapped__ is decrypt
        assert crypto.decrypt_sector.__wrapped__ is decrypt
        assert tmiu.Tmiu.mediate_read.__wrapped__
    assert [dict(vars(m)) for m in modules] == before
    assert not hasattr(tmiu.Tmiu.mediate_read, "__wrapped__")


def test_wrong_expected_outcome_counts_as_failed():
    workload = workloads.Tamper(1)
    state = workload.setup()
    right = builtin_scenarios()["mbr_tamper"]
    state.suite = [right, workloads.scenarios.Scenario("wrong", right.target, right.mutation, "OsRunning")]
    results = run.measure(workload, state, 0, run.SpeedProbe())
    assert [r.ok for r in results[:2]] == [True, False]
    assert "expected OsRunning" in results[1].detail


def test_wrong_read_back_counts_as_failed():
    workload = workloads.Filestore(1)
    state = workload.setup()
    state.model["files/00.bin"] += b"!"
    results = run.measure(workload, state, 0, run.SpeedProbe())
    failed = [r for r in results if not r.ok]
    assert failed, "a read of files/00.bin should have failed"
    assert all(r.kind == "read" and "files/00.bin" in r.detail for r in failed)


def test_modelled_drift_fails_a_boot13_op():
    workload = workloads.Boot13(1)
    state = workload.setup()
    state.pins = dict(state.pins, boot_ms=526.0)
    results = run.measure(workload, state, 0, run.SpeedProbe())
    assert not any(r.ok for r in results)
    assert "boot_ms" in results[0].detail


def test_op_that_raises_counts_as_failed():
    workload = workloads.Filestore(1)
    state = workload.setup()
    state.ops = iter([("read", "no/such/file", None)] * run.MIN_OPS + [("read", "files/00.bin", None)] * 200)
    results = run.measure(workload, state, 0, run.SpeedProbe())
    assert [r.ok for r in results[: run.MIN_OPS]] == [False] * run.MIN_OPS
    assert "FileNotFoundError" in results[0].detail


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "tamper", "--seed", "2",
             "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, check=True, cwd=HERE.parent,
        ).stdout
        last = json.loads(out.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {name: m["unit"] for name, m in last["metrics"].items()} == want


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "boot13", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
