"""Command-line interface: subcommands, exit codes, reproducibility."""

import io
import json
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvespec.cli import _selftest, parse_curve, run
from curvespec.curves import CornerGraph, RealInterval
from curvespec.spectral import matrix_from_json, matrix_to_json
from oracles import read_profile_csv


def _run(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


RHO_JSON = '{"variant": "rho"}'
MISBEHAVING_MAP = Path(__file__).with_name("misbehaving_map.py")
TRANSPOSE_MAP = Path(__file__).with_name("transpose_map.py")
PLANTED_MAP = Path(__file__).with_name("planted_map.py")
# a shear frame, and a finite matrix that it carries past the largest double
SHEAR_JSON = matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]]))
HUGE_COLUMN_JSON = json.dumps(matrix_to_json(np.array([[1e308, 0.0], [1e308, 1.0]])))
# a finite matrix whose norm overflows
HUGE_DIAG_JSON = json.dumps(matrix_to_json(np.diag([1e200, 2e200, 3e200])))
# a finite curve that carries every sample past the largest double
HUGE_LINE_JSON = json.dumps({"kind": "line", "point": [1e308, 0], "direction": [1e308, 0]})


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
    # a 3x3 frame for --n 4, in every framed map
    *[["check", "--curve", "real-line", "--n", "4", "--trials", "5", "--seed", "1",
       "--map", json.dumps({"variant": variant, "T": matrix_to_json(np.eye(3)),
                            **extra})]
      for variant, extra in (("conj", {}), ("transpose_conj", {}),
                             ("order", {"curve": {"kind": "real_interval"}}))],
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
        # no coercion: a string is not a closedness flag, -1.7 not an orientation
        '{"kind": "real_interval", "interval": '
        '{"lower": 0, "upper": 1, "lower_closed": "false"}}',
        '{"kind": "real_interval", "orientation": -1.7}',
        # a number is a JSON number: not a string, not a boolean
        '{"kind": "circle_arc", "radius": "2.5"}',
        '{"kind": "segment", "z0": [true, false], "z1": [2, 0]}',
        # an integer too large for a float
        '{"kind": "circle_arc", "radius": 1%s}' % ("0" * 400),
    )],
    # a matrix's n is a JSON integer: not a fraction, a string or a boolean
    # (int() reads the first two as 2; true reads as 1, a size no map takes)
    *[["apply", "--map", RHO_JSON, "--matrix",
       '{"n": %s, "entries": %s}' % (n, entries)]
      for n, entries in (("2.9", "[[[1,0],[0,0]],[[0,0],[2,0]]]"),
                         ('"2"', "[[[1,0],[0,0]],[[0,0],[2,0]]]"),
                         ("true", "[[[1,0]]]"))],
    # a matrix entry is exactly two JSON numbers: no boolean, string or third
    # element (complex() read the first as diag(1, 2) and dropped the "junk")
    *[["apply", "--map", RHO_JSON, "--matrix", '{"n": 2, "entries": %s}' % entries]
      for entries in ('[[[true,0],[0,0,"junk"]],[[0,0],[2,false]]]',
                      "[[[true,0],[0,0]],[[0,0],[2,0]]]",
                      '[[[1,0],[0,0,"junk"]],[[0,0],[2,0]]]')],
    # the sampled classes are normal and semisimple
    ["sample", "--curve", "real-line", "--n", "3", "--seed", "1",
     "--class", "general"],
    # probe scales must be positive and finite
    *[["regularity", "--curve", "real-line", "--center", "0", "--order", "3",
       "--scales", scales, "--seed", "1"] for scales in ("nan", "inf,1e-2")],
    # a seed numpy's generators refuse, on every seeded subcommand
    ["sample", "--curve", "real-line", "--n", "3", "--seed", "-1"],
    ["check", "--curve", "real-line", "--n", "3", "--seed", "-1", "--map", RHO_JSON],
    ["classify", "--curve", "real-line", "--n", "3", "--seed", "-1",
     "--map", RHO_JSON],
    ["regularity", "--curve", "real-line", "--center", "0", "--order", "2",
     "--seed", "-1"],
    ["rho-continuity", "--curve", "real-line", "--seed", "-1"],
    # a cut that is not a finite angle
    ["demo-circle", "--n", "3", "--spectrum", "0,1,2", "--cuts", "inf,0.1"],
    # a reply deadline that is not a positive finite number of seconds
    *[[cmd, "--curve", "real-line", "--n", "3", "--seed", "1", "--map", RHO_JSON,
       "--map-timeout", seconds]
      for cmd in ("check", "classify") for seconds in ("0", "-1", "nan", "inf", "x")],
    ["check", "--curve", "real-line", "--n", "3", "--seed", "1",
     "--map-cmd", shlex.join([sys.executable, str(MISBEHAVING_MAP), "hang"]),
     "--map-timeout", "0"],
])
def test_malformed_arguments_exit_two(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv)
    assert not caught, [str(w.message) for w in caught]
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


@pytest.mark.parametrize("argv", [
    # a finite input whose image under a single map overflows
    ["apply", "--map", json.dumps({"variant": "conj", "T": SHEAR_JSON}),
     "--matrix", HUGE_COLUMN_JSON],
    # the same overflow between composed maps
    ["apply", "--map", json.dumps({"variant": "compose", "parts": [
        {"variant": "conj", "T": SHEAR_JSON},
        {"variant": "order", "curve": {"kind": "real_interval"},
         "T": matrix_to_json(np.eye(2))}]}), "--matrix", HUGE_COLUMN_JSON],
    # samples whose norms overflow every tolerance of check, which would
    # otherwise pass a map that breaks commutativity
    ["check", "--curve", json.dumps({"kind": "line", "point": [0, 0],
                                     "direction": [1e200, 0]}),
     "--n", "3", "--seed", "1", "--trials", "50", "--expect-pass",
     "--map-cmd", shlex.join([sys.executable, str(PLANTED_MAP), "flip"])],
    # a finite input whose norm overflows every tolerance of the spectral maps
    ["apply", "--map", RHO_JSON, "--matrix", HUGE_DIAG_JSON],
    ["apply", "--map", json.dumps({"variant": "order", "curve": {"kind": "real_interval"},
                                   "T": matrix_to_json(np.eye(3))}),
     "--matrix", HUGE_DIAG_JSON],
    # a finite curve that carries a sample past the largest double
    *[[cmd, "--curve", HUGE_LINE_JSON, "--n", "3", "--seed", "1", *more]
      for cmd, more in (("sample", ()), ("check", ("--map", RHO_JSON)))],
])
def test_numerical_failures_exit_three(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv)
    assert not caught, [str(w.message) for w in caught]
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "numerical-domain"


@pytest.mark.parametrize("text,seed", [("+5", 5), (" 7", 7), ("1_000", 1000), ("0", 0)])
def test_seed_forms_int_accepts(capsys, text, seed):
    # a negative seed is refused (see above), and any other form int() takes
    # runs as its plain integer
    argv = ["sample", "--curve", "real-line", "--n", "3", "--seed"]
    code, out, _ = _run(capsys, *argv, text)
    assert code == 0 and out == _run(capsys, *argv, str(seed))[1]


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

    def test_overflow_between_composed_maps_exits_three(self, capsys):
        # the frame product overflows on a finite input: a numerical-domain
        # failure, as the same overflow in a single map is
        frame = matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]]))
        parts = [{"variant": "conj", "T": frame},
                 {"variant": "order", "curve": {"kind": "real_interval"},
                  "T": matrix_to_json(np.eye(2))}]
        X = matrix_to_json(np.array([[1e308, 0.0], [1e308, 1.0]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, "apply", "--map",
                                  json.dumps({"variant": "compose", "parts": parts}),
                                  "--matrix", json.dumps(X))
        assert not caught, [str(w.message) for w in caught]
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "numerical-domain",
            "message": "part 1 of 2 of the composition returned non-finite entries"}

    def test_small_normal_matrix_is_its_own_rho(self, capsys):
        # merging two eigenvalues of a matrix this small would move it by
        # more than the reconstruction tolerance: rho refused it
        X = matrix_to_json(np.diag([1e-8, 2e-8, 3e-8]))
        code, text, err = _run(capsys, "apply", "--map", RHO_JSON,
                               "--matrix", json.dumps(X))
        assert code == 0 and err == ""
        assert json.loads(text) == X

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

    def test_small_window_passes_rho(self, capsys):
        # the samples of [0, 1e-2] have norms below 1/sqrt(2), where rho
        # refused pairs of eigenvalues that its default tolerance merges
        code, text, err = _run(capsys, "check", "--curve", "real-line",
                               "--window", "0,1e-2", "--n", "3", "--map", RHO_JSON,
                               "--trials", "2000", "--seed", "1", "--expect-pass")
        assert code == 0 and err == ""
        assert json.loads(text)["counterexample"] is None

    def test_boolean_reply_is_malformed(self, run_in_group):
        cmd = shlex.join([sys.executable, str(MISBEHAVING_MAP), "bool"])
        code, out, err, _, lingered = run_in_group(
            ["-m", "curvespec.cli", "check", "--curve", "real-line", "--n", "3",
             "--trials", "5", "--seed", "1", "--map-cmd", cmd], timeout=20.0)
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "numerical-domain"
        assert report["message"].startswith("external map reply malformed:")
        assert not lingered, "a process of the run outlived it"

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

    def test_hung_map_program_meets_its_deadline(self, run_in_group):
        # the program replies twice, then sleeps with both pipes open: the
        # reply deadline ends the run, and the close escalation the program
        cmd = shlex.join([sys.executable, str(MISBEHAVING_MAP), "hang"])
        code, out, err, elapsed, lingered = run_in_group(
            ["-m", "curvespec.cli", "check", "--curve", "real-line", "--n", "3",
             "--trials", "5", "--seed", "1", "--map-cmd", cmd,
             "--map-timeout", "1"], timeout=20.0)
        assert code == 3 and elapsed < 10.0
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["error"] == "numerical-domain"
        assert "sent no reply byte in 1 s" in report["message"]
        assert not lingered, "a process of the run outlived it"

    def test_chunk_larger_than_the_pipe_does_not_deadlock(self, run_in_group):
        # 1024 rows at n = 8 are about 3 MB of requests, far more than a
        # pipe holds, sent while the program's replies fill its stdout
        code, out, _, elapsed, lingered = run_in_group(
            ["-m", "curvespec.cli", "check", "--curve", "real-line", "--n", "8",
             "--trials", "1024", "--seed", "1", "--map-cmd",
             shlex.join([sys.executable, str(TRANSPOSE_MAP)])], timeout=60.0)
        assert code == 0 and elapsed < 60.0
        verdict = json.loads(out)
        assert verdict["spectrum_ok"] is True and verdict["commutativity_ok"] is True
        assert not lingered, "a process of the run outlived it"

    def test_mute_map_program_on_a_large_chunk_costs_bounded_time(self, run_in_group):
        # the program stops reading its stdin with the pipe full of requests
        cmd = shlex.join([sys.executable, str(MISBEHAVING_MAP), "mute"])
        code, out, err, elapsed, lingered = run_in_group(
            ["-m", "curvespec.cli", "check", "--curve", "real-line", "--n", "8",
             "--trials", "1024", "--seed", "1", "--map-cmd", cmd], timeout=20.0)
        assert code == 3 and elapsed < 10.0
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert "closed its output" in json.loads(lines[0])["message"]
        assert not lingered, "a process of the run outlived it"

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        import curvespec.checking

        def broken(*args, **kwargs):
            raise KeyError("boom")

        # the check command looks check_cs up in its module at each run
        monkeypatch.setattr(curvespec.checking, "check_cs", broken)
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_overflowing_samples_are_unknown_without_warnings(self, capsys, seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text, err = _run(capsys, "classify", "--curve", HUGE_LINE_JSON,
                                   "--n", "3", "--seed", str(seed), "--map", RHO_JSON)
        assert not caught, [str(w.message) for w in caught]
        assert code == 0 and err == ""
        obj = json.loads(text)
        assert obj["type"] == "unknown"
        assert obj["reason"] == "sample spectrum norm overflows"

    def test_overflowing_replies_are_unknown_without_warnings(self, capsys):
        cmd = shlex.join([sys.executable, str(MISBEHAVING_MAP), "huge"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text, err = _run(capsys, "classify", "--curve", "real-line",
                                   "--n", "3", "--seed", "1", "--map-cmd", cmd)
        assert not caught, [str(w.message) for w in caught]
        assert code == 0 and err == ""
        obj = json.loads(text)
        assert obj["type"] == "unknown"
        assert obj["reason"] == "matrix norm overflows"

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


@pytest.mark.parametrize("argv", [
    ["regularity", "--curve", "real-line", "--center", "1e17", "--order", "3",
     "--seed", "1"],
    ["rho-continuity", "--curve", "real-line", "--corner", "1e17", "--seed", "1"],
    ["regularity", "--curve", "corner-graph:-1,1", "--center", "0", "--order", "3",
     "--scales", "1e-310", "--seed", "1"],
])
def test_non_finite_quotients_exit_three(run_in_group, argv):
    # at 1e17 every sampled tuple collapses to one point in floating point,
    # so each difference quotient is 0/0; at a subnormal scale the corner's
    # quotients overflow: no verdict may be built on either
    code, out, err, _, _ = run_in_group(["-m", "curvespec.cli", *argv])
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["error"] == "numerical-domain"
    assert "non-finite difference quotients" in report["message"]


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
