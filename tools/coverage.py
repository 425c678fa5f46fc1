"""Line coverage of ``src/tmiusim`` under the Tier-1 suite, standard library only.

    python tools/coverage.py [pytest arguments]

Runs pytest (by default on ``tests``) in this process with a line tracer on
every thread, ``sys.settrace`` and ``threading.settrace``, then prints each
executable line of the package that no test reached, as ``path:line``
and its source. A Python subprocess that a test starts is traced too: it is
handed a ``sitecustomize`` that records its lines. A line that only such a
subprocess reached is marked ``[subprocess]``: ``python -m tmiusim`` is the
one way to reach ``__main__.py``. The last line sums up. The run takes
about twice as long as the suite, and it is not a Tier-1 step.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tmiusim"
_OUT_ENV = "TMIUSIM_COVERAGE_OUT"
# A subprocess's sitecustomize: load this file by path, record until exit.
_HOOK = """\
import importlib.util, os
spec = importlib.util.spec_from_file_location("tmiusim_coverage_hook", {tool!r})
hook = importlib.util.module_from_spec(spec)
spec.loader.exec_module(hook)
hook.record_until_exit({package!r}, os.environ[{env!r}])
"""


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that carry bytecode, in any code object."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts if isinstance(const, CodeType)]
    return lines


class Recorder:
    """The (file, line) pairs run in code under ``package``, on every thread
    started while it records and on the one that starts it."""

    def __init__(self, package: str):
        self._package = package
        self.hits: set[tuple[str, int]] = set()

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self._package):
            return None  # no line events outside the package
        self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(saved[0])
            threading.settrace(saved[1])


def record_until_exit(package: str, out_dir: str) -> None:
    """In a subprocess: record from now on, and write the hits to a file of
    ``out_dir`` at exit."""
    recorder = Recorder(package)
    threading.settrace(recorder._call)
    sys.settrace(recorder._call)

    def dump() -> None:
        sys.settrace(None)
        lines = (f"{name}\t{line}\n" for name, line in recorder.hits)
        Path(out_dir, f"{os.getpid()}.txt").write_text("".join(lines))

    atexit.register(dump)


@contextlib.contextmanager
def _traced_subprocesses(package: str, scratch: Path) -> Iterator[Path]:
    """Hand every subprocess started meanwhile a ``sitecustomize`` that
    records its lines under ``package``; yields the directory they write."""
    hook_dir, out_dir = scratch / "hook", scratch / "out"
    hook_dir.mkdir()
    out_dir.mkdir()
    hook = _HOOK.format(tool=str(Path(__file__).resolve()), package=package, env=_OUT_ENV)
    (hook_dir / "sitecustomize.py").write_text(hook)
    original = subprocess.Popen.__init__

    def init(self, *args, env=None, **kwargs):
        env = dict(os.environ if env is None else env)
        if _OUT_ENV not in env:  # else a nested measure() handed its own hook
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(hook_dir), env.get("PYTHONPATH")]))
            env[_OUT_ENV] = str(out_dir)
        original(self, *args, env=env, **kwargs)

    subprocess.Popen.__init__ = init
    try:
        yield out_dir
    finally:
        subprocess.Popen.__init__ = original


def measure(run: Callable[[], object], package: Path = PACKAGE) -> dict[Path, tuple[set[int], set[int], set[int]]]:
    """Run ``run()`` under the tracers. Per source file of ``package``:
    (its executable lines, those reached in this process, those reached in
    a Python subprocess)."""
    package = package.resolve()
    recorder = Recorder(str(package))
    sub_hits: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        with _traced_subprocesses(str(package), Path(scratch)) as out_dir, recorder.recording():
            run()
        for dump in out_dir.iterdir():
            for row in dump.read_text().splitlines():
                name, line = row.split("\t")
                sub_hits.add((name, int(line)))

    def reached(hits: set[tuple[str, int]], path: Path) -> set[int]:
        return {line for name, line in hits if Path(name).resolve() == path}

    return {
        path: (executable_lines(path), reached(recorder.hits, path), reached(sub_hits, path))
        for path in sorted(package.rglob("*.py"))
    }


def report(measured: dict[Path, tuple[set[int], set[int], set[int]]], base: Path = ROOT) -> list[str]:
    """One line per executable line not reached in process, then a sum."""
    lines, total, in_process, only_sub = [], 0, 0, 0
    for path, (executable, here, sub) in measured.items():
        source = path.read_text().splitlines()
        total += len(executable)
        in_process += len(executable & here)
        for line in sorted(executable - here):
            mark = "[subprocess] " if line in sub else ""
            only_sub += bool(mark)
            lines.append(f"{path.relative_to(base)}:{line}  {mark}{source[line - 1].strip()}")
    unreached = total - in_process - only_sub
    lines.append(
        f"reached {in_process} of {total} executable lines in process ({100 * in_process / max(total, 1):.1f} %), "
        f"{only_sub} more only in subprocesses; {unreached} unreached"
    )
    return lines


def main(argv: list[str]) -> int:
    import pytest

    sys.path[0] = str(ROOT / "src")  # was tools/, where this file would shadow any "coverage"
    os.chdir(ROOT)
    status = []
    measured = measure(lambda: status.append(pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])))
    print("\n".join(report(measured)))
    return int(status[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
