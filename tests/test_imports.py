"""Import surface: the package and the check path load no scipy module."""

import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import curvespec

TRANSPOSE_MAP = Path(__file__).with_name("transpose_map.py")

_CHILD = """
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import curvespec, curvespec.cli
after_import = scipy_modules()
code = curvespec.cli.run([
    "check", "--curve", "real-line", "--n", "3", "--trials", "30",
    "--seed", "1", "-o", os.devnull, "--map-cmd", sys.argv[1],
])
print(json.dumps({"after_import": after_import, "exit": code,
                  "after_check": scipy_modules()}))
"""


def _run_child(*args):
    """Run a fresh interpreter in its own process group; kill what is left."""
    src = str(Path(curvespec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, *args], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            lingered = True
        except ProcessLookupError:
            lingered = False
        proc.wait()
    assert proc.returncode == 0, err
    assert not lingered, "a child process outlived the run"
    return json.loads(out.strip().splitlines()[-1])


def test_import_and_map_cmd_check_load_no_scipy():
    got = _run_child(shlex.join([sys.executable, str(TRANSPOSE_MAP)]))
    assert got["exit"] == 0
    assert got["after_import"] == []
    assert got["after_check"] == []
