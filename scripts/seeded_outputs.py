#!/usr/bin/env python3
"""Hash the output of a fixed list of seeded curvespec commands.

Each command runs as ``python -m curvespec.cli`` in a fresh interpreter,
with the curvespec that PYTHONPATH selects, once for each of the seeds 1, 2
and 7 (a command without a seed runs once).  The script prints one line per
run: the sha256 of its stdout, stderr and exit code, then the command, with
{python} in place of the interpreter that runs the external map programs
(this checkout's tests/transpose_map.py and tests/planted_map.py).  Two
source trees give byte-identical output on these commands exactly when the
printed lines agree:

    PYTHONPATH=old/src python3 scripts/seeded_outputs.py > old.txt
    PYTHONPATH=new/src python3 scripts/seeded_outputs.py > new.txt
    diff old.txt new.txt

tests/seeded_outputs.txt holds the lines of the current tree, and
tests/test_seeded_outputs.py recomputes them in process; after a change
meant to move these bytes, regenerate that file with

    PYTHONPATH=src python3 scripts/seeded_outputs.py > tests/seeded_outputs.txt
"""

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 7)

RHO = '{"variant": "rho"}'
# "{python}" marks where the interpreter goes (see resolve)
TRANSPOSE = "{python} tests/transpose_map.py"
SHIFT, FLIP = ("{python} tests/planted_map.py " + mode for mode in ("shift", "flip"))
POLYLINE = {"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1.5]]}
LINE = {"kind": "line", "point": [0.5, -0.25], "direction": [0.7, 0.3]}
FRAME = {"n": 3, "entries": [[[1, 0], [1, 0], [0, 0]],
                             [[0, 0], [1, 0], [0, 1]],
                             [[0.5, 0], [0, 0], [1, 0]]]}
# upper triangular, not normal, with eigenvalues 2, 0.5 and 1
MATRIX = {"n": 3, "entries": [[[2, 0], [1, 0], [0, 0]],
                              [[0, 0], [0.5, 0], [1, 0]],
                              [[0, 0], [0, 0], [1, 0]]]}
# diag(3+1j, 1+1j, 0): two points at distance 1 from the real line, which
# eigvals returns in the other order than np.unique
OFF_REAL = {"n": 3, "entries": [[[3, 1], [0, 0], [0, 0]],
                                [[0, 0], [1, 1], [0, 0]],
                                [[0, 0], [0, 0], [0, 0]]]}


def _order_map(curve: dict) -> str:
    return json.dumps({"variant": "order", "curve": curve, "T": FRAME})


# "{seed}" marks where the seed goes; a command without it runs once.
COMMANDS = [
    # check, classify and the experiments on the shorthand curves
    ["check", "--curve", "real-line", "--n", "4", "--seed", "{seed}", "--map", RHO],
    ["check", "--curve", "circle-arc:0.5", "--n", "3", "--class", "semisimple",
     "--seed", "{seed}", "--map", RHO],
    ["check", "--curve", "real-line", "--n", "3", "--seed", "{seed}",
     "--map-cmd", TRANSPOSE],
    ["classify", "--curve", "real-line", "--n", "3", "--seed", "{seed}",
     "--map-cmd", TRANSPOSE],
    ["classify", "--curve", "real-line", "--n", "4", "--seed", "9",
     "--map-cmd", TRANSPOSE],
    ["classify", "--curve", "real-line", "--n", "3", "--seed", "{seed}",
     "--map", _order_map({"kind": "real_interval"})],
    ["rho-continuity", "--curve", "corner-graph:-1,1", "--seed", "{seed}"],
    ["rho-continuity", "--curve", "circle-arc:0", "--corner", "2", "--seed", "{seed}"],
    ["regularity", "--curve", "circle-arc:0", "--center", "2", "--order", "3",
     "--mode", "dc", "--seed", "{seed}"],
    ["demo-circle", "--n", "3", "--spectrum", "0,1,2", "--cuts", "0.5,3"],
    ["sample", "--curve", "circle-arc:0.5", "--n", "4", "--seed", "{seed}"],
    # every curve kind through eval and invert
    ["regularity", "--curve", "corner-graph:0,2.5", "--center", "-0.5",
     "--order", "2", "--seed", "{seed}"],
    ["regularity", "--curve", "unit-circle", "--center", "1", "--order", "2",
     "--seed", "{seed}"],
    ["regularity", "--curve", '{"kind": "segment", "z0": [0, 0], "z1": [1, 0.5]}',
     "--center", "0.4", "--order", "3", "--mode", "dc", "--seed", "{seed}"],
    ["regularity", "--curve",
     '{"kind": "line", "point": [0.5, -0.25], "direction": [0.7, 0.3]}',
     "--center", "0.2", "--order", "2", "--seed", "{seed}"],
    ["regularity", "--curve", json.dumps(POLYLINE), "--center", "1", "--order", "2",
     "--seed", "{seed}"],
    ["sample", "--curve", json.dumps(POLYLINE), "--n", "4", "--seed", "{seed}"],
    ["sample", "--curve", "corner-graph:0,2.5", "--n", "4", "--seed", "{seed}"],
    ["check", "--curve", json.dumps(POLYLINE), "--n", "3", "--seed", "{seed}",
     "--map", _order_map(POLYLINE)],
    ["classify", "--curve", "circle-arc:0", "--n", "3", "--seed", "{seed}",
     "--map", _order_map({"kind": "circle_arc"})],
    # the batch and per-matrix routes of the ordering map
    ["check", "--curve", "real-line", "--n", "3", "--class", "semisimple",
     "--seed", "{seed}", "--map", _order_map({"kind": "real_interval"})],
    ["apply", "--map", _order_map({"kind": "real_interval"}),
     "--matrix", json.dumps(MATRIX)],
    # failures: a frame of the wrong size, an ordering curve off the spectra
    ["check", "--curve", "real-line", "--n", "4", "--trials", "5", "--seed", "1",
     "--map", json.dumps({"variant": "conj", "T": FRAME})],
    ["check", "--curve", "circle-arc:0.5", "--n", "3", "--seed", "{seed}",
     "--map", _order_map({"kind": "real_interval"})],
    ["apply", "--map", _order_map({"kind": "real_interval"}),
     "--matrix", json.dumps(OFF_REAL)],
    # planted non-preservers: a spectrum and a commutativity counterexample,
    # and the classifier's unknown from a failed holdout and from a witness
    *[[cmd, "--curve", "real-line", "--n", "3", "--seed", "{seed}",
       "--map-cmd", prog] for prog in (SHIFT, FLIP) for cmd in ("check", "classify")],
    # tuples of 4 and 5 points: thin one-sided strata, where the sampler's
    # separation floor halves after 100 rounds
    ["regularity", "--curve", "corner-graph:-1,1", "--center", "0", "--order", "5",
     "--seed", "{seed}"],
    ["regularity", "--curve", "corner-graph:-1,1", "--center", "0", "--order", "4",
     "--mode", "dc", "--seed", "{seed}"],
    ["rho-continuity", "--curve", "corner-graph:-1,1", "--n", "4", "--seed", "{seed}"],
    # the corner_collision benchmark's probe size: 500 rows a one-sided
    # stratum, where each call runs past a separation halving
    *[["regularity", "--curve", "corner-graph:-1,1", "--center", "0", "--order", "5",
       "--samples", "2000", "--mode", mode, "--seed", "{seed}"] for mode in ("db", "dc")],
    # the experiment's bounded side, and a second corner
    *[["rho-continuity", "--curve", curve, *n, "--seed", "{seed}"]
      for curve in ("real-line", "corner-graph:-0.5,2") for n in ((), ("--n", "4"))],
    # a window so narrow that about half of the classifier's candidates
    # fail certification from their drawn spectrum and are decomposed
    *[["classify", "--curve", "real-line", "--n", "3", "--window", "0,1e-6",
       "--seed", "{seed}", *map_args]
      for map_args in (("--map", _order_map({"kind": "real_interval"})),
                       ("--map-cmd", TRANSPOSE))],
    # spectra of norm about 1e8, whose roundoff exceeds the curve's absolute
    # tolerance unless they are ordered at their own scale
    ["classify", "--curve", json.dumps(LINE), "--n", "3", "--window", "1e8,2e8",
     "--seed", "{seed}", "--map", _order_map(LINE)],
]


def runs(commands):
    """Every command with its seeds filled in, in list order."""
    for cmd in commands:
        seeds = SEEDS if "{seed}" in cmd else (None,)
        for seed in seeds:
            yield [str(seed) if arg == "{seed}" else arg for arg in cmd]


def resolve(argv) -> list:
    """argv with this interpreter in place of {python}."""
    return [arg.replace("{python}", shlex.quote(sys.executable)) for arg in argv]


def hash_run(stdout: bytes, stderr: bytes, code: int) -> str:
    """sha256 over a run's stdout, stderr and exit code."""
    h = hashlib.sha256()
    for part in (stdout, stderr, str(code).encode()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def digest(argv) -> str:
    proc = subprocess.run([sys.executable, "-m", "curvespec.cli", *resolve(argv)],
                          cwd=ROOT, capture_output=True, timeout=600)
    return hash_run(proc.stdout, proc.stderr, proc.returncode)


def main(limit=None) -> int:
    for argv in runs(COMMANDS[:limit]):
        print(digest(argv), shlex.join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
