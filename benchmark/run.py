"""Host-time benchmark of tmiusim. See README.md beside this file.

    python3 benchmark/run.py --workload boot13 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (host times at reference speed, see
SpeedProbe); the line before it is the run's report (environment, modelled
figures, digests, sample counts, unscaled host times).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import cryptography
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_OPS = 3  # every run has enough samples for a median and a p90
BLOCK_SECONDS = 1.0
SETUP_MIN_REPS = 3  # setup_s is the median of at least this many set-ups ...
SETUP_MIN_SECONDS = 1.0  # ... repeated until they take this long together ...
SETUP_MAX_REPS = 20  # ... or this many have run
PROBE_EVERY_S = 0.05  # sample the machine's speed after this much op host time
REFERENCE_KERNEL_MS = 0.6  # what the reference kernel takes at reference speed


def import_package():
    """Import tmiusim from the checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "tmiusim" / "__init__.py").is_file():
        print(f"benchmark: no tmiusim sources in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tmiusim

    if Path(tmiusim.__file__).resolve().parent != SRC / "tmiusim":
        print(f"benchmark: imported tmiusim from {tmiusim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), cpu)
    except OSError:
        pass
    system = os.uname()
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": f"{system.sysname} {system.release} {system.machine}",
        "seed": seed,
    }


_KEY, _BLOCK, _BUF = bytes(16), bytes(16384), bytes(65536)


def reference_kernel_ns() -> int:
    """Host time of a fixed mix of interpreter, SHA-256, AES and copying work."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(10_000):
        total += i * i
    hashlib.sha256(_BUF).digest()
    Cipher(algorithms.AES(_KEY), modes.ECB()).encryptor().update(_BLOCK)
    bytes(bytearray(_BUF) * 2)
    return time.perf_counter_ns() - start


class SpeedProbe:
    """Samples how fast the machine runs, between set-ups and between ops.

    A shared machine's speed drifts by tens of percent within seconds, and it
    drifts alike for the simulator and for a fixed reference kernel. Host
    times are therefore reported at reference speed: multiplied by
    ``factor()``, the kernel's reference time over its median time in this
    run. The unscaled figures are kept in the report.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._since = 0.0

    def sample(self) -> None:
        reference_kernel_ns()  # warms the caches, which the last op has filled
        self.samples.append(reference_kernel_ns())

    def after_op(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.sample()
            self._since = 0.0

    def factor(self) -> float:
        return REFERENCE_KERNEL_MS * 1e6 / statistics.median(self.samples)

    def report(self) -> dict:
        return {
            "samples": len(self.samples),
            "reference_kernel_ms_median": statistics.median(self.samples) / 1e6,
            "factor": self.factor(),
        }


def measure(workload, state, seconds: float, probe: SpeedProbe, tracer=None) -> list:
    """Closed loop: run ops until ``seconds`` have passed and the prefix is done."""
    from workloads import OpResult

    clock = time.perf_counter_ns
    min_ops = max(workload.prefix_ops, MIN_OPS)
    deadline = time.perf_counter() + seconds
    results = []
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = i
        args = workload.prepare(state, i)
        start = clock()
        try:
            out = workload.call(state, args)
            error = None
        except Exception as exc:  # an op that raises is counted as failed
            error = exc
        elapsed = (clock() - start) / 1e9
        if error is None:
            try:
                result = workload.check(state, args, out)
            except Exception as exc:
                result = OpResult().fail(f"check raised {exc!r}")
        else:
            result = OpResult().fail(f"raised {error!r}")
        result.seconds = elapsed
        results.append(result)
        probe.after_op(elapsed)
        i += 1
    if tracer is not None:
        tracer.op = -1
    return results


def modelled(workload, results: list) -> dict:
    """Modelled figures and digests of the seed-fixed prefix; they repeat exactly."""
    head = results[: workload.prefix_ops]
    lines = [f"{r.kind} {r.cycles} {r.bytes_moved} {r.outcome} {r.lockdown} {r.digest}" for r in head]
    out = {
        "ops": len(head),
        "cycles": sum(r.cycles for r in head),
        "bytes": sum(r.bytes_moved for r in head),
        "fingerprint": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }
    if head[0].digest:
        out["image_sha256"], out["manifest_sha256"] = head[0].digest.split(":")
    return out


def end_to_end(results: list, period: int) -> dict:
    """Rates are medians over blocks of whole periods of consecutive ops, each
    block at least BLOCK_SECONDS of host time, so that a stall of the machine
    moves them little."""
    blocks = []
    ops = seconds = payload = 0
    for r in results:
        ops, seconds, payload = ops + 1, seconds + r.seconds, payload + r.payload_bytes
        if ops % period == 0 and seconds >= BLOCK_SECONDS:
            blocks.append((ops / seconds, payload / 1e6 / seconds))
            ops = seconds = payload = 0
    if not blocks:  # a run shorter than one block
        blocks.append((ops / seconds, payload / 1e6 / seconds))
    return {
        "ops_per_s": statistics.median(rate for rate, _ in blocks),
        "op_ms_p50": statistics.median(r.seconds for r in results) * 1e3,
        "mb_per_s": statistics.median(mb for _, mb in blocks),
    }


def p90_ms(results: list) -> float:
    return statistics.quantiles([r.seconds for r in results], n=10)[-1] * 1e3


def median_ms(results: list, kind: str) -> float:
    times = [r.seconds for r in results if r.kind == kind]
    return statistics.median(times) * 1e3 if times else 0.0


def layer_metrics(tracer, traced: list, untraced: list, period: int) -> dict:
    from tmiusim.scenarios import OUTCOME_CLASSES
    from tmiusim.tmiu import Denial

    ops = len(traced)
    metrics = tracer.layer_metrics(ops)
    frames = tracer.count("bus.SdioBus.fetch_block") + tracer.count("bus.SdioBus.push_block")
    mediated = tracer.count("tmiu.Tmiu.mediate_read") + tracer.count("tmiu.Tmiu.mediate_write")
    useful = sum(r.delivered_sectors for r in traced) + mediated
    metrics["bus.crc16_per_frame"] = tracer.count("crypto.crc16") / frames if frames else 0.0
    metrics["bus.frames_per_sector"] = frames / useful if useful else 0.0
    metrics["host.useful_sector_ratio"] = (
        sum(r.payload_sectors for r in traced) / mediated if mediated else 0.0
    )
    for reason in Denial:
        metrics[f"tmiu.lockdowns.{reason.value}"] = sum(r.lockdown == reason.value for r in traced) / ops
    for outcome in OUTCOME_CLASSES:
        metrics[f"scenarios.outcomes.{outcome}"] = sum(r.outcome == outcome for r in traced) / ops
    metrics["op_ms_p90"] = p90_ms(untraced)
    metrics["read_ms_p50"] = median_ms(untraced, "read")
    metrics["write_ms_p50"] = median_ms(untraced, "write")
    untraced_rate = end_to_end(untraced, period)["ops_per_s"]
    traced_rate = end_to_end(traced, period)["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.slowdown"] = untraced_rate / traced_rate
    return metrics


def failures(results: list) -> list[str]:
    return [f"op {i}: {r.detail}" for i, r in enumerate(results) if not r.ok][:10]


def run_untraced(workload, seconds: float, probe: SpeedProbe) -> tuple[dict, dict, list]:
    setup_probe = SpeedProbe()  # set-up runs at another time than the ops
    setup_times = []
    state = None
    while len(setup_times) < SETUP_MIN_REPS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPS
    ):
        state = None  # free the previous set-up before building the next
        setup_probe.sample()
        start = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - start)
    setup_probe.sample()
    results = measure(workload, state, seconds, probe)
    unscaled = {"setup_s": statistics.median(setup_times), **end_to_end(results, workload.period)}
    unscaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = at_reference_speed(unscaled, probe.factor())
    metrics["setup_s"] = unscaled["setup_s"] * setup_probe.factor()
    report = {
        "unscaled_metrics": unscaled,
        "speed_probe": probe.report(),
        "setup_speed_probe": setup_probe.report(),
        "setup_runs": len(setup_times),
        "ops": len(results),
        "modelled": modelled(workload, results),
        "op_ms_p90": p90_ms(results),
        "read_ms_p50": median_ms(results, "read"),
        "write_ms_p50": median_ms(results, "write"),
    }
    return metrics, report, results


def run_traced(workload, seconds: float, probe: SpeedProbe) -> tuple[dict, dict, list]:
    """Half the time untraced, half traced, each from a fresh set-up of the same seed."""
    from tracing import Tracer

    untraced = measure(workload, workload.setup(), seconds / 2, probe)
    state = workload.setup()
    with Tracer() as tracer:
        traced = measure(workload, state, seconds / 2, probe, tracer)
    spans_path = OUT / f"{workload.name}.spans.tsv.gz"
    report = {
        "ops_untraced": len(untraced),
        "ops_traced": len(traced),
        "modelled_untraced": modelled(workload, untraced),
        "modelled_traced": modelled(workload, traced),
        "spans": tracer.write_spans(spans_path),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
    }
    report["tracing_harmless"] = report["modelled_untraced"] == report["modelled_traced"]
    unscaled = layer_metrics(tracer, traced, untraced, workload.period)
    report.update(unscaled_metrics=unscaled, speed_probe=probe.report())
    return at_reference_speed(unscaled, probe.factor()), report, untraced + traced


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "mb_per_s": "MB/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls"):
        return "1/op"
    if name.endswith(".self_ms"):
        return "ms/op"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(("_ms_p50", "_ms_p90")):
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.startswith(("tmiu.lockdowns.", "scenarios.outcomes.")):
        return "1/op"
    return "ratio"


def at_reference_speed(metrics: dict, factor: float) -> dict:
    """Scale host times by the speed probe's factor (see SpeedProbe)."""
    scaled = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        if unit in ("s", "ms", "ms/op", "us"):
            value *= factor
        elif unit in ("1/s", "MB/s"):
            value /= factor
        scaled[name] = value
    return scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["boot13", "provision13", "filestore", "tamper"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    run = run_traced if args.trace else run_untraced
    metrics, report, results = run(workload, args.seconds, SpeedProbe())
    failed = sum(not r.ok for r in results)
    correct = failed == 0 and report.get("tracing_harmless", True)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "failed_ratio": failed / len(results),
        "failures": failures(results),
        **report,
    }
    if args.workload == "boot13":
        from workloads import FIXED_POINTS

        report["fixed_points"] = FIXED_POINTS
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
