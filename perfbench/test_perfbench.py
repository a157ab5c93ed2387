"""Fast self-test of the benchmark's own code.

    python3 -m pytest -q perfbench

Runs the benchmark's main() on a few small ops, so it checks the output
contract and the correctness accounting without a full-length run.
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import curvespec as cs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _small_sweep(expect_ok: bool) -> list:
    dom = cs.DomainSpec(cs.real_line(), 3, cs.MatrixClass.NORMAL)
    return [
        workloads.sweep_op("Conj", cs.BlackBoxMap(cs.Conj(np.eye(3)), dom), True, 1),
        workloads.sweep_op("planted X+I", cs.BlackBoxMap(workloads._shift, dom),
                           expect_ok, 2),
    ]


@pytest.fixture
def small_runs(monkeypatch, tmp_path):
    """main() on two small ops, 20 ops a run, one set-up repeat."""
    monkeypatch.setitem(run.MIN_OPS, "preserver_sweep", 20)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))

    def main(ops, trace: int) -> dict:
        monkeypatch.setattr(workloads, "build", lambda name, seed, env: ops)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "preserver_sweep", "--seed", "1",
                             "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        return json.loads(out.getvalue().strip().splitlines()[-1])

    return main


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_every_end_to_end_metric_is_printed_with_its_unit(small_runs):
    result = small_runs(_small_sweep(expect_ok=False), trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 20
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_printed_with_its_unit(small_runs):
    result = small_runs(_small_sweep(expect_ok=False), trace=1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # one pass: two check_cs calls, the planted map applied per matrix
    assert m["checking.check_cs.calls"] == 2
    assert m["checking.blackbox.apply.calls"] == 3 * workloads.SWEEP_TRIALS
    assert m["maps.apply_batch.calls"] == 3
    assert m["maps.fallback_rows"] == 0
    assert m["spectral.match.calls"] == 1


def test_planted_wrong_verdict_counts_as_failed_op(small_runs):
    # the planted non-preserver is labelled a preserver: its op must fail
    result = small_runs(_small_sweep(expect_ok=True), trace=0)
    assert result["correct"] is False
    assert result["failed"] * 2 == result["attempted"]


def test_op_that_raises_counts_as_failed():
    def boom():
        raise cs.errors.DefectiveMatrixError("planted")

    op = workloads.Op("raises", boom, lambda out: (True, ()))
    p = run.run_pass([op])
    assert p.failures and p.failures[0][1][:2] == ("raised", "DefectiveMatrixError")


def test_timeout_kills_the_whole_process_group():
    script = ("import subprocess, sys, time; "
              "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
              "time.sleep(60)")
    o = workloads.run_process([sys.executable, "-c", script], run.child_env(), 1.0)
    assert o.timed_out and o.returncode == -9


def test_child_left_behind_is_killed_and_reported():
    script = ("import subprocess, sys; "
              "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])")
    o = workloads.run_process([sys.executable, "-c", script], run.child_env(), 30.0)
    assert o.returncode == 0 and o.lingering and not o.timed_out
