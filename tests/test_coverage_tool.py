"""A self-test of ``tools/coverage.py`` on a two-function module: one
function called in process, the other only in a subprocess."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "coverage.py"

_MODULE = '''\
def in_process(flag):
    if flag:
        return "never"
    return "reached"


def in_subprocess():
    return "subprocess"
'''


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tool_tells_unreached_lines_from_subprocess_only_ones(tmp_path):
    tool = _load("tmiusim_coverage_tool", _TOOL)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "two.py").write_text(_MODULE)

    def run():
        assert _load("two", package / "two.py").in_process(False) == "reached"
        env = dict(os.environ, PYTHONPATH=str(package))
        script = "import two; assert two.in_subprocess() == 'subprocess'"
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)

    measured = tool.measure(run, package)
    assert measured[package / "two.py"][0] == {1, 2, 3, 4, 7, 8}
    assert tool.report(measured, tmp_path) == [
        "pkg/two.py:3  return \"never\"",
        "pkg/two.py:8  [subprocess] return \"subprocess\"",
        "reached 4 of 6 executable lines in process (66.7 %), 1 more only in subprocesses; 1 unreached",
    ]
