#!/usr/bin/env python3
"""Hash the output of a fixed list of seeded curvespec commands.

Each command runs as ``python -m curvespec.cli`` in a fresh interpreter,
with the curvespec that PYTHONPATH selects, once for each of the seeds 1, 2
and 7 (a command without a seed runs once).  The script prints one line per
run: the sha256 of its stdout, stderr and exit code, then the command.
Two source trees give byte-identical output on these commands exactly when
the printed lines agree:

    PYTHONPATH=old/src python3 scripts/seeded_outputs.py > old.txt
    PYTHONPATH=new/src python3 scripts/seeded_outputs.py > new.txt
    diff old.txt new.txt

The external map program is this checkout's tests/transpose_map.py.
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
TRANSPOSE = shlex.join([sys.executable, "tests/transpose_map.py"])
POLYLINE = {"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1.5]]}
FRAME = {"n": 3, "entries": [[[1, 0], [1, 0], [0, 0]],
                             [[0, 0], [1, 0], [0, 1]],
                             [[0.5, 0], [0, 0], [1, 0]]]}


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
]


def runs(commands):
    """Every command with its seeds filled in, in list order."""
    for cmd in commands:
        seeds = SEEDS if "{seed}" in cmd else (None,)
        for seed in seeds:
            yield [str(seed) if arg == "{seed}" else arg for arg in cmd]


def digest(argv) -> str:
    proc = subprocess.run([sys.executable, "-m", "curvespec.cli", *argv],
                          cwd=ROOT, capture_output=True, timeout=600)
    h = hashlib.sha256()
    for part in (proc.stdout, proc.stderr, str(proc.returncode).encode()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def main(limit=None) -> int:
    for argv in runs(COMMANDS[:limit]):
        print(digest(argv), shlex.join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
