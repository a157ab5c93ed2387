"""Import surface: exported names resolve, the scripts run, and the package
and the check path load no scipy module."""

import importlib
import json
import pkgutil
import shlex
import sys
from pathlib import Path

import pytest

import curvespec

TRANSPOSE_MAP = Path(__file__).with_name("transpose_map.py")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

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


def _run_child(run_in_group, *args):
    code, out, err, _, lingered = run_in_group(args)
    assert code == 0, err
    assert not lingered, "a child process outlived the run"
    return out


def test_import_and_map_cmd_check_load_no_scipy(run_in_group):
    out = _run_child(run_in_group, "-c", _CHILD,
                     shlex.join([sys.executable, str(TRANSPOSE_MAP)]))
    got = json.loads(out.strip().splitlines()[-1])
    assert got["exit"] == 0
    assert got["after_import"] == []
    assert got["after_check"] == []


def test_every_exported_name_resolves():
    modules = [curvespec] + [
        importlib.import_module(f"curvespec.{m.name}")
        for m in pkgutil.iter_modules(curvespec.__path__)
    ]
    for mod in modules:
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not missing, f"{mod.__name__}.__all__ names missing: {missing}"


@pytest.mark.parametrize("script", [
    [str(SCRIPTS / "rho_continuity_sweep.py"), "--n", "3"],
    [str(SCRIPTS / "classifier_roundtrip.py"), "--per-class", "1", "--orders", "3"],
    # the first command of the list only; the whole list runs 56 commands
    ["-c", "import runpy; runpy.run_path(%r)['main'](limit=1)"
     % str(SCRIPTS / "seeded_outputs.py")],
])
def test_script_runs(run_in_group, script):
    _run_child(run_in_group, *script)
