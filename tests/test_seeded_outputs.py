"""Every seeded command of scripts/seeded_outputs.py still prints the bytes
recorded in tests/seeded_outputs.txt.

The commands run in this process through cli.run instead of in fresh
interpreters, from the repository root, and their stdout, stderr and exit
code are hashed as the script hashes them.  No seeded command warns, so a
warning, which a fresh interpreter would print on stderr, fails the run.
The recorded file changes only in a change meant to move these bytes:

    PYTHONPATH=src python3 scripts/seeded_outputs.py > tests/seeded_outputs.txt
"""

import contextlib
import importlib.util
import io
import shlex
import warnings
from pathlib import Path

from curvespec.cli import run

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "seeded_outputs", ROOT / "scripts" / "seeded_outputs.py")
seeded = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seeded)


def _line(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(seeded.resolve(argv))
    assert not caught, (shlex.join(argv), [str(w.message) for w in caught])
    digest = seeded.hash_run(out.getvalue().encode(), err.getvalue().encode(), code)
    return f"{digest} {shlex.join(argv)}"


def test_seeded_outputs_match_the_recorded_lines(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (ROOT / "tests" / "seeded_outputs.txt").read_text().splitlines()
    runs = list(seeded.runs(seeded.COMMANDS))
    assert len(runs) == len(expected)
    for argv, want in zip(runs, expected):
        assert _line(argv) == want, f"seeded output moved: {shlex.join(argv)}"
