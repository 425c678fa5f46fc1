"""Span tracing for the benchmark's traced run, installed from outside the package.

Nothing under ``src/`` knows about tracing. :class:`Tracer` replaces the public
functions of each layer with timing wrappers for the duration of a ``with``
block and puts the originals back on exit.

Modules import names directly (``from .crypto import decrypt_sector``), so
``tmiusim.tmiu.decrypt_sector`` and ``tmiusim.crypto.decrypt_sector`` are two
bindings of one function. A module-level function is therefore wrapped in
every loaded ``tmiusim`` module that binds it. A method is wrapped once, on
its class.

Each wrapped call records one span (name, start, end, parent, op index) in
flat arrays, and adds its duration and self time (duration minus the time its
wrapped children cover) to per-name totals.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute path). Span names are "<layer>.<function>";
# both KDF chains report as one span, crypto.kdf.
TRACED = (
    ("crypto.decrypt_sector", "tmiusim.crypto", "decrypt_sector"),
    ("crypto.encrypt_sector", "tmiusim.crypto", "encrypt_sector"),
    ("crypto.sector_tag", "tmiusim.crypto", "sector_tag"),
    ("crypto.crc16", "tmiusim.crypto", "crc16"),
    ("crypto.kdf", "tmiusim.crypto", "derive_key"),
    ("crypto.kdf", "tmiusim.crypto", "derive_mac_key"),
    ("identity.authenticate_device", "tmiusim.identity", "authenticate_device"),
    ("identity.authenticate_nvm", "tmiusim.identity", "authenticate_nvm"),
    ("image.provision", "tmiusim.image", "provision"),
    ("image.parse_boot_image", "tmiusim.image", "parse_boot_image"),
    ("image.NvmImage.clone", "tmiusim.image", "NvmImage.clone"),
    ("image.NvmImage.read_sector", "tmiusim.image", "NvmImage.read_sector"),
    ("image.NvmImage.write_sector", "tmiusim.image", "NvmImage.write_sector"),
    ("bus.SdioBus.command", "tmiusim.bus", "SdioBus.command"),
    ("bus.SdioBus.fetch_block", "tmiusim.bus", "SdioBus.fetch_block"),
    ("bus.SdioBus.push_block", "tmiusim.bus", "SdioBus.push_block"),
    ("tmiu.Tmiu.generate_keys", "tmiusim.tmiu", "Tmiu.generate_keys"),
    ("tmiu.Tmiu.verify_mbr_and_image", "tmiusim.tmiu", "Tmiu.verify_mbr_and_image"),
    ("tmiu.Tmiu.mediate_read", "tmiusim.tmiu", "Tmiu.mediate_read"),
    ("tmiu.Tmiu.mediate_write", "tmiusim.tmiu", "Tmiu.mediate_write"),
    ("host.BootHost.run_boot", "tmiusim.host", "BootHost.run_boot"),
    ("host.BootHost.read_file", "tmiusim.host", "BootHost.read_file"),
    ("host.BootHost.write_file", "tmiusim.host", "BootHost.write_file"),
    ("scenarios.run_scenario", "tmiusim.scenarios", "run_scenario"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))

# decrypt_sector is implemented as a call to encrypt_sector (CTR is its own
# inverse). That inner call is part of the decrypt's cost, not an encryption
# the simulator asked for, so it records no span of its own.
PASS_THROUGH_UNDER = {"crypto.encrypt_sector": "crypto.decrypt_sector"}


class Tracer:
    """Context manager that wraps every function in :data:`TRACED`."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op = -1  # index of the op in progress, set by the run loop
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        skip_under = self._ids.get(PASS_THROUGH_UNDER.get(name, ""), -1)
        stack = self._stack
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and span_name[stack[-1][0]] == skip_under:
                return fn(*args, **kwargs)
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_op.append(tracer.op)
            span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[sid] = end
                duration = end - start
                calls[nid] += 1
                self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "tmiusim" or n.startswith("tmiusim.")]
        for name, module_name, path in TRACED:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)
        return self

    def _patch(self, target, attr: str, original, wrapper) -> None:
        self._undo.append((target, attr, original))
        setattr(target, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per span name: calls per op, self ms per op, self us per call."""
        out = {}
        for nid, name in enumerate(self.names):
            calls = self.calls[nid]
            self_ms = self.self_ns[nid] / 1e6
            out[f"{name}.calls"] = calls / ops if ops else 0.0
            out[f"{name}.self_ms"] = self_ms / ops if ops else 0.0
            out[f"{name}.us_per_call"] = self_ms * 1000.0 / calls if calls else 0.0
        return out

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def write_spans(self, path: Path) -> int:
        """Write every span as gzip'd TSV: id, parent, op, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            rows = zip(self.span_parent, self.span_op, self.span_name, self.span_start, self.span_end)
            for sid, (parent, op, nid, start, end) in enumerate(rows):
                out.write(f"{sid}\t{parent}\t{op}\t{names[nid]}\t{start}\t{end}\n")
        return len(self.span_start)
