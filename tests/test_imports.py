"""Import surface: exported names resolve, the scripts run, each subcommand
loads only the curvespec modules it runs, the package and the check path
load no scipy module, and the Schur route loads scipy's LAPACK extension
alone."""

import importlib
import json
import os
import pkgutil
import shlex
import sys
from pathlib import Path

import pytest

import curvespec

TRANSPOSE_MAP = Path(__file__).with_name("transpose_map.py")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# Runs the subcommand given as a JSON argv in process, and prints the scipy
# modules loaded after the import and after the run, and the curvespec
# modules loaded after the run.
_CHILD = """
import json, sys

def modules(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

import curvespec, curvespec.cli
after_import = modules("scipy")
code = curvespec.cli.run(json.loads(sys.argv[1]))
print(json.dumps({"after_import": after_import, "exit": code,
                  "after_run": modules("scipy"), "curvespec": modules("curvespec")}))
"""

# Imports the package alone, prints the curvespec modules that loaded, then
# resolves every exported name and every submodule from the package.
_RESOLVE_CHILD = """
import json, pkgutil, sys
import curvespec
loaded = sorted(m for m in sys.modules if m.startswith("curvespec"))
submodules = sorted(m.name for m in pkgutil.iter_modules(curvespec.__path__))
missing = [n for n in curvespec.__all__ + submodules if not hasattr(curvespec, n)]
wrong = [n for n in submodules if getattr(curvespec, n) is not sys.modules["curvespec." + n]]
print(json.dumps({"loaded": loaded, "missing": missing, "wrong": wrong,
                  "in_dir": all(n in dir(curvespec) for n in curvespec.__all__ + submodules)}))
"""

# The Schur route's zgees is scipy's own, whether scipy.linalg is imported
# before or after the first decomposition.
_ZGEES_CHILD = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
from curvespec import spectral
spectral._schur(np.diag([1.0, 2.0, 3.0]).astype(complex))
import scipy.linalg, scipy.linalg.lapack
T = scipy.linalg.schur(np.triu(np.ones((3, 3))), output="complex")[0]
print(spectral._zgees() is scipy.linalg.lapack.zgees, bool(np.allclose(np.diag(T), 1)))
"""

MAP_CMD = shlex.join([sys.executable, str(TRANSPOSE_MAP)])


def _run_child(run_in_group, *args):
    code, out, err, _, lingered = run_in_group(args)
    assert code == 0, err
    assert not lingered, "a child process outlived the run"
    return out


def _modules_of_run(run_in_group, argv):
    out = _run_child(run_in_group, "-W", "error", "-c", _CHILD, json.dumps(argv))
    got = json.loads(out.strip().splitlines()[-1])
    assert got["exit"] == 0
    assert got["after_import"] == []
    return got


def _scipy_modules_of_run(run_in_group, argv):
    return _modules_of_run(run_in_group, argv)["after_run"]


def _curvespec_modules_of_run(run_in_group, argv):
    return {m.removeprefix("curvespec.")
            for m in _modules_of_run(run_in_group, argv)["curvespec"]}


def test_map_cmd_check_loads_only_the_modules_it_runs(run_in_group):
    argv = ["check", "--curve", "real-line", "--n", "3", "--trials", "30",
            "--seed", "1", "-o", os.devnull, "--map-cmd", MAP_CMD]
    assert _curvespec_modules_of_run(run_in_group, argv) == {
        "curvespec", "cli", "checking", "curves", "errors", "spectral"}


def test_classify_loads_no_regularity(run_in_group):
    argv = ["classify", "--curve", "real-line", "--n", "3", "--seed", "1",
            "-o", os.devnull, "--map-cmd", MAP_CMD]
    assert "regularity" not in _curvespec_modules_of_run(run_in_group, argv)


def test_regularity_loads_no_classifier(run_in_group):
    argv = ["regularity", "--curve", "corner-graph:-1,1", "--center", "0",
            "--order", "3", "--samples", "20", "--seed", "1", "-o", os.devnull]
    loaded = _curvespec_modules_of_run(run_in_group, argv)
    assert not loaded & {"classify", "subspaces"}, loaded


def test_package_import_loads_no_submodule_and_resolves_every_name(run_in_group):
    got = json.loads(_run_child(run_in_group, "-W", "error", "-c", _RESOLVE_CHILD))
    assert got == {"loaded": ["curvespec"], "missing": [], "wrong": [], "in_dir": True}


def test_import_and_map_cmd_check_load_no_scipy(run_in_group):
    argv = ["check", "--curve", "real-line", "--n", "3", "--trials", "30",
            "--seed", "1", "-o", os.devnull, "--map-cmd", MAP_CMD]
    assert _scipy_modules_of_run(run_in_group, argv) == []


@pytest.mark.parametrize("argv", [
    ["classify", "--curve", "real-line", "--n", "3", "--seed", "1",
     "--map-cmd", MAP_CMD],
    ["rho-continuity", "--curve", "corner-graph:-1,1", "--n", "3",
     "--corner", "0", "--seed", "13"],
], ids=["classify", "rho-continuity"])
def test_schur_route_loads_only_the_lapack_extension(run_in_group, argv):
    assert _scipy_modules_of_run(run_in_group, argv) == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("order", ["before", "after"])
def test_schur_zgees_is_scipys(run_in_group, order):
    out = _run_child(run_in_group, "-W", "error", "-c", _ZGEES_CHILD, order)
    assert out.split() == ["True", "True"]


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
