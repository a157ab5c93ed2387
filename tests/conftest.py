"""Shared fixtures."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import curvespec


def _run_in_group(args, timeout=120.0):
    """Run a fresh interpreter with args in its own process group.

    Returns (exit code, stdout, stderr, seconds taken, lingered): the exit
    code is None if the run outlived timeout, and lingered says whether any
    process of the group outlived the run.  Whatever is left is killed.
    """
    src = str(Path(curvespec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, err, code = "", "", None
    elapsed = time.perf_counter() - t0
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        lingered = True
    except ProcessLookupError:
        lingered = False
    proc.communicate()
    return code, out, err, elapsed, lingered


@pytest.fixture
def run_in_group():
    return _run_in_group
