"""Command-line interface: subcommands, exit codes, reproducibility."""

import io
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from curvespec.cli import _selftest, parse_curve, run
from curvespec.curves import CornerGraph, RealInterval
from curvespec.regularity import read_profile_csv
from curvespec.spectral import matrix_from_json, matrix_to_json


def _run(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


RHO_JSON = '{"variant": "rho"}'
MISBEHAVING_MAP = Path(__file__).with_name("misbehaving_map.py")


class TestParseCurve:
    def test_shorthands(self):
        assert isinstance(parse_curve("real-line"), RealInterval)
        assert isinstance(parse_curve("corner-graph:-1,1"), CornerGraph)
        assert parse_curve("circle-arc:0.5").angles.lower == 0.5

    def test_inline_json(self):
        c = parse_curve('{"kind": "real_interval"}')
        assert isinstance(c, RealInterval)

    def test_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"kind": "corner_graph", "a": -2.0, "b": 0.5}')
        c = parse_curve(str(p))
        assert isinstance(c, CornerGraph)

    def test_unknown_kind(self, capsys):
        code, _, err = _run(capsys, "sample", "--curve", "klein-bottle",
                            "--n", "3", "--seed", "1")
        assert code == 2
        assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["sample", "--curve", "circle-arc:abc", "--n", "3", "--seed", "1"],
    ["sample", "--curve", "corner-graph:1", "--n", "3", "--seed", "1"],
    ["demo-circle", "--n", "3", "--spectrum", "0,x,2", "--cuts", "0.5,1"],
    ["regularity", "--curve", "real-line", "--center", "0", "--order", "2",
     "--seed", "1", "--scales", "0.1,abc"],
    ["check", "--curve", "real-line", "--n", "3", "--trials", "5",
     "--seed", "1", "--map-cmd", "curvespec-test-no-such-program"],
    # "n": 1e999 parses as infinity, which int() cannot convert
    ["apply", "--map", '{"variant": "rho"}',
     "--matrix", '{"n": 1e999, "entries": []}'],
    ["check", "--curve", "real-line", "--n", "3", "--trials", "5", "--seed", "1",
     "--map", '{"variant": "conj", "T": {"n": 1e999, "entries": []}}'],
    # a tolerance that is not finite and positive
    *[["check", "--curve", "real-line", "--n", "3", "--trials", "5", "--seed", "1",
       "--map", RHO_JSON, "--tol", tol] for tol in ("nan", "inf", "-1", "0")],
    # malformed or non-finite curve descriptors
    *[["sample", "--curve", desc, "--n", "3", "--seed", "1"] for desc in (
        '{"kind": "segment", "z0": [0], "z1": [1, 1]}',
        '{"kind": "segment", "z0": [0, 0], "z1": [1, 1], "orientation": "x"}',
        '{"kind": "circle_arc", "radius": "x"}',
        '{"kind": "segment", "z0": ["a", 0], "z1": [1, 1]}',
        '{"kind": "polyline", "vertices": 5}',
        '{"kind": "real_interval", "tol": null}',
        '{"kind": "real_interval", "interval": {"lower": [1]}}',
        '{"kind": "line", "point": [0, 0], "direction": [1, "nan"]}',
        '{"kind": "circle_arc", "angles": 5}',
        '{"kind": ["segment"]}',
    )],
])
def test_malformed_arguments_exit_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


class TestSample:
    def test_real_window_sample(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        code, _, _ = _run(capsys, "sample", "--curve", "real-line", "--n", "4",
                          "--class", "normal", "--window", "0,1",
                          "--seed", "7", "-o", str(out))
        assert code == 0
        X = matrix_from_json(json.loads(out.read_text()))
        w = np.linalg.eigvals(X)
        assert np.all(np.abs(w.imag) < 1e-9)
        assert np.all((w.real > -1e-9) & (w.real < 1 + 1e-9))

    def test_byte_identical_for_seed(self, capsys):
        outs = [_run(capsys, "sample", "--curve", "circle-arc", "--n", "3",
                     "--seed", "11")[1] for _ in range(2)]
        assert outs[0] == outs[1]

    def test_seed_required(self, capsys):
        code, _, err = _run(capsys, "sample", "--curve", "real-line", "--n", "3")
        assert code == 2 and json.loads(err)["error"] == "config"

    def test_bad_window(self, capsys):
        code, _, err = _run(capsys, "sample", "--curve", "real-line", "--n", "3",
                            "--seed", "1", "--window", "zero-one")
        assert code == 2


class TestApply:
    def test_rho_fixes_normal_sample(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        _run(capsys, "sample", "--curve", "real-line", "--n", "3",
             "--class", "normal", "--seed", "5", "-o", str(out))
        code, text, _ = _run(capsys, "apply", "--map", RHO_JSON,
                             "--matrix", str(out))
        assert code == 0
        X = matrix_from_json(json.loads(out.read_text()))
        Y = matrix_from_json(json.loads(text))
        assert np.allclose(Y, X, atol=1e-10)

    def test_matrix_from_stdin(self, capsys, monkeypatch):
        X = np.diag([1.0, 2.0, 3.0]).astype(complex)
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(json.dumps(matrix_to_json(X))))
        code, text, _ = _run(capsys, "apply", "--map", RHO_JSON,
                             "--matrix", "-")
        assert code == 0
        assert np.allclose(matrix_from_json(json.loads(text)), X)

    def test_defective_matrix_exits_three(self, capsys):
        nil = '{"n": 2, "entries": [[[0,0],[1,0]],[[0,0],[0,0]]]}'
        code, _, err = _run(capsys, "apply", "--map", RHO_JSON,
                            "--matrix", nil)
        assert code == 3
        assert json.loads(err)["error"] == "numerical-domain"


class TestCheck:
    def test_canonical_map_passes(self, capsys):
        code, text, _ = _run(capsys, "check", "--curve", "circle-arc:0.5",
                             "--n", "3", "--trials", "40", "--seed", "3",
                             "--expect-pass", "--map", RHO_JSON)
        assert code == 0
        assert json.loads(text)["spectrum_ok"] is True

    def test_external_violator_with_expect_pass(self, capsys):
        prog = ("import sys, json\n"
                "for line in sys.stdin:\n"
                "    o = json.loads(line)\n"
                "    o['entries'][0][0][0] += 1.0\n"
                "    print(json.dumps(o), flush=True)\n")
        argv = ["check", "--curve", "real-line", "--n", "3", "--trials", "15",
                "--seed", "3", "--map-cmd", f'{sys.executable} -c "{prog}"']
        code, text, _ = _run(capsys, *argv, "--expect-pass")
        assert code == 1
        assert json.loads(text)["counterexample"]["kind"] == "spectrum"
        # without --expect-pass the violation is reported but exit stays 0
        code, text, _ = _run(capsys, *argv)
        assert code == 0 and json.loads(text)["spectrum_ok"] is False

    def test_map_source_required(self, capsys):
        code, _, err = _run(capsys, "check", "--curve", "real-line", "--n", "3",
                            "--trials", "5", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("mode", ["chatty", "linger"])
    def test_misbehaving_map_program_costs_bounded_time(self, run_in_group, mode):
        # chatty: 4 KiB of stderr per reply would fill an undrained pipe;
        # linger: closing must escalate to a kill instead of raising
        cmd = shlex.join([sys.executable, str(MISBEHAVING_MAP), mode])
        code, out, _, elapsed, lingered = run_in_group(
            ["-m", "curvespec.cli", "check", "--curve", "real-line", "--n", "3",
             "--trials", "50", "--seed", "1", "--map-cmd", cmd], timeout=20.0)
        assert code == 0 and elapsed < 20.0
        assert json.loads(out)["spectrum_ok"] is True
        assert not lingered, "a process of the run outlived it"

    def test_mute_map_program_costs_bounded_time(self, run_in_group):
        # the program closes its stdout after one reply but stays alive:
        # the empty reply must end it, not wait for it forever
        cmd = shlex.join([sys.executable, str(MISBEHAVING_MAP), "mute"])
        code, out, err, elapsed, lingered = run_in_group(
            ["-m", "curvespec.cli", "check", "--curve", "real-line", "--n", "3",
             "--trials", "5", "--seed", "1", "--map-cmd", cmd], timeout=20.0)
        assert code == 3 and elapsed < 10.0
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "closed its output" in json.loads(lines[0])["message"]
        assert not lingered, "a process of the run outlived it"

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        import curvespec.cli

        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(curvespec.cli, "check_cs", broken)
        code, out, err = _run(capsys, "check", "--curve", "real-line", "--n", "3",
                              "--trials", "5", "--seed", "1", "--map", RHO_JSON)
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "internal"
        assert report["message"] == "KeyError: 'boom'"
        assert report["at"] == f"{Path(__file__).name}:{broken.__code__.co_firstlineno + 1}"


class TestClassify:
    ORDER_JSON = json.dumps({
        "variant": "order",
        "curve": {"kind": "real_interval"},
        "T": {"n": 3, "entries": [[[1, 0], [0, 0], [0, 0]],
                                  [[0, 0], [1, 0], [0, 0]],
                                  [[0, 0], [0, 0], [1, 0]]]},
    })

    def test_order_map_labeled(self, capsys):
        code, text, _ = _run(capsys, "classify", "--curve", "real-line",
                             "--n", "3", "--seed", "5",
                             "--map", self.ORDER_JSON)
        assert code == 0
        obj = json.loads(text)
        assert obj["type"] == "ordering_map" and obj["residual"] <= 1e-6

    def test_expect_pass_on_unknown(self, capsys):
        prog = ("import sys, json\n"
                "for line in sys.stdin:\n"
                "    o = json.loads(line)\n"
                "    for i in range(o['n']):\n"
                "        o['entries'][i][i][0] += 1.0\n"
                "    print(json.dumps(o), flush=True)\n")
        code, text, _ = _run(capsys, "classify", "--curve", "real-line",
                             "--n", "3", "--seed", "5", "--expect-pass",
                             "--map-cmd", f'{sys.executable} -c "{prog}"')
        assert code == 1
        assert json.loads(text)["type"] == "unknown"


class TestRegularity:
    def test_corner_db_csv(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _, _ = _run(capsys, "regularity", "--curve", "corner-graph:-1,1",
                          "--center", "0", "--order", "3", "--mode", "db",
                          "--seed", "11", "-o", str(out))
        assert code == 0
        profile = read_profile_csv(str(out))
        assert profile.verdict_db == "diverging"

    def test_line_dc_stdout(self, capsys):
        code, text, _ = _run(capsys, "regularity", "--curve", "real-line",
                             "--center", "0", "--order", "2", "--mode", "dc",
                             "--seed", "11")
        assert code == 0
        profile = read_profile_csv(io.StringIO(text))
        assert profile.verdict_dc == "converges"


class TestRhoContinuity:
    def test_corner_report(self, capsys):
        code, text, _ = _run(capsys, "rho-continuity", "--curve",
                             "corner-graph:-1,1", "--n", "3", "--corner", "0",
                             "--seed", "13")
        assert code == 0
        rep = json.loads(text)
        assert rep["db_verdict"] == "diverging"
        assert rep["any_discontinuity_flag"] is True
        assert rep["concordant"] is True

    def test_real_line_quiet(self, capsys):
        code, text, _ = _run(capsys, "rho-continuity", "--curve", "real-line",
                             "--seed", "13")
        rep = json.loads(text)
        assert code == 0 and rep["any_discontinuity_flag"] is False


class TestDemoCircle:
    def test_distinct_gap_example(self, capsys):
        code, text, _ = _run(capsys, "demo-circle", "--n", "3",
                             "--spectrum", "0,1.5708,3.1416",
                             "--cuts", "0.7854,-1.5708")
        assert code == 0
        rep = json.loads(text)
        assert rep["mismatch"] > 0.1 and rep["same_gap"] is False

    def test_same_gap(self, capsys):
        code, text, _ = _run(capsys, "demo-circle", "--n", "3",
                             "--spectrum", "0,1.5708,3.1416",
                             "--cuts", "0.3,0.5")
        rep = json.loads(text)
        assert code == 0 and rep["same_gap"] is True and rep["mismatch"] == 0.0


class TestSelftest:
    def test_quick_passes(self, capsys):
        assert _selftest(quick=True) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "OK" in out

    def test_full_passes(self, capsys):
        assert _selftest(quick=False) == 0

    def test_identity_involution_mutant_fails(self, capsys, monkeypatch):
        import curvespec.maps

        monkeypatch.setattr(curvespec.maps, "rho",
                            lambda X, cluster_tol=None: np.asarray(X, complex))
        assert _selftest(quick=True) == 1
        out = capsys.readouterr().out
        assert "FAIL  rho fixed oracles" in out
        assert "FAIL  rho skew conjugation" in out
        # the mutant still fixes normals, so that line alone stays green
        assert "PASS  rho involution and fixed points" in out
