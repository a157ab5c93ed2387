"""Command-line front end: reproducible experiments over the library.

Every randomized subcommand demands an explicit --seed; outputs are plain
JSON (or the regularity CSV) so that each subcommand's output feeds back
through its own parser.  Errors leave as single-line JSON diagnostics on
stderr with exit code 2 for configuration problems and 3 for numerical
domain problems; --expect-pass turns a found property violation into
exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shlex
import sys

import numpy as np

# what parsing the arguments needs; each command imports the modules it runs
from .curves import (
    CornerGraph,
    Interval,
    UnitCircleClosed,
    curve_from_json,
    real_line,
    unit_circle_arc,
)
from .errors import ConfigError, NumericalDomainError
from .spectral import MatrixClass

__all__ = ["run", "main"]


def parse_curve(text: str):
    """Curve from a shorthand name, inline JSON, or a .json file path."""
    text = text.strip()
    if text.startswith("{") or text.endswith(".json"):
        return curve_from_json(_read_json(text))
    name, _, arg = text.partition(":")
    if name == "real-line":
        return real_line()
    if name == "unit-circle":
        return UnitCircleClosed()
    if name == "circle-arc":
        return unit_circle_arc(_floats(arg, "circle-arc angle", 1)[0] if arg else 0.0)
    if name == "corner-graph":
        a, b = _floats(arg, "corner-graph slopes", 2) if arg else (-1.0, 1.0)
        return CornerGraph(a, b)
    raise ConfigError(f"unknown curve {text!r}")


def _floats(text: str, what: str, count: int | None = None) -> list:
    """Comma-separated finite numbers (exactly count of them, if given)."""
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        vals = []
    if not (vals and np.all(np.isfinite(vals)) and len(vals) == (count or len(vals))):
        raise ConfigError(f"{what}: expected {count or 'one or more'} "
                          f"comma-separated finite number(s), got {text!r}")
    return vals


def _integer(least: int):
    """An option's type: an integer >= least."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


def _positive(what: str):
    """An option's type: a positive finite number."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if not (value > 0.0 and np.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"expected a positive finite {what}, got {text!r}")
        return value
    return parse


# a --seed value is a nonnegative integer, as numpy's generators take
_seed = _integer(0)
_seconds = _positive("number of seconds")


def _parse_window(text: str | None) -> Interval | None:
    if text is None:
        return None
    return Interval(*_floats(text, "window", 2))


def _read_json(text: str):
    """An option's JSON value: inline when it starts with "{", else the
    contents of the file it names."""
    if text.strip().startswith("{"):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def _finite(X: np.ndarray, what: str) -> np.ndarray:
    """X, refused when an overflow has left non-finite entries in it."""
    if not np.all(np.isfinite(X)):
        raise NumericalDomainError(f"{what} has non-finite entries")
    return X


@contextlib.contextmanager
def _black_box(args, domain):
    """The map under test; an external program is closed on the way out."""
    from .checking import BlackBoxMap, ExternalProgramMap

    if getattr(args, "map", None) is not None:
        from .maps import map_from_json

        yield BlackBoxMap(map_from_json(_read_json(args.map)), domain, name="canonical")
    elif getattr(args, "map_cmd", None) is not None:
        with ExternalProgramMap(shlex.split(args.map_cmd), args.map_timeout) as ext:
            yield BlackBoxMap(ext, domain, name="external")
    else:
        raise ConfigError("one of --map or --map-cmd is required")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        print(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True), out_path)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts like a negative number, such as the comma
        # list -1,1, is a value and not an option
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse prints usage and exits; route its complaints through the
    # single-line JSON diagnostic channel instead
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="curvespec")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, seed=True, window=True):
        sp.add_argument("--curve", required=True)
        sp.add_argument("--n", type=int, required=True)
        if window:
            sp.add_argument("--window")
        if seed:
            sp.add_argument("--seed", type=_seed, required=True)
        sp.add_argument("-o", "--output")

    sp = sub.add_parser("sample")
    common(sp)
    sp.add_argument("--class", dest="mclass", default="normal",
                    choices=[c.value for c in MatrixClass])

    sp = sub.add_parser("apply")
    sp.add_argument("--map", required=True)
    sp.add_argument("--matrix", required=True)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("check")
    common(sp)
    sp.add_argument("--class", dest="mclass", default="normal",
                    choices=[c.value for c in MatrixClass])
    sp.add_argument("--map")
    sp.add_argument("--map-cmd")
    sp.add_argument("--map-timeout", type=_seconds, default=60.0,
                    help="seconds a --map-cmd program may go without replying")
    sp.add_argument("--trials", type=_integer(1), default=200)
    sp.add_argument("--tol", type=_positive("number"), default=1e-6)
    sp.add_argument("--expect-pass", action="store_true")

    sp = sub.add_parser("classify")
    common(sp)
    sp.add_argument("--map")
    sp.add_argument("--map-cmd")
    sp.add_argument("--map-timeout", type=_seconds, default=60.0,
                    help="seconds a --map-cmd program may go without replying")
    sp.add_argument("--trials", type=_integer(1), default=20)
    sp.add_argument("--expect-pass", action="store_true")

    sp = sub.add_parser("regularity")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--center", type=float, required=True,
                    help="curve parameter of the probe center")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--mode", choices=["db", "dc"], default="db")
    sp.add_argument("--scales")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("rho-continuity")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--corner", type=float, default=0.0,
                    help="curve parameter of the suspected bad point")
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("demo-circle")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--spectrum", required=True,
                    help="comma-separated angles in radians")
    sp.add_argument("--cuts", required=True,
                    help="two comma-separated angles in radians")
    sp.add_argument("-o", "--output")

    sp = sub.add_parser("selftest")
    sp.add_argument("--quick", action="store_true")
    return p


def _cmd_sample(args) -> int:
    from .spectral import matrix_to_json, sample

    X = sample(parse_curve(args.curve), args.n, MatrixClass(args.mclass),
               np.random.default_rng(args.seed), _parse_window(args.window))
    _emit_json(matrix_to_json(X), args.output)
    return 0


def _cmd_apply(args) -> int:
    from .maps import map_from_json
    from .spectral import matrix_from_json, matrix_to_json

    m = map_from_json(_read_json(args.map))
    X = matrix_from_json(
        json.load(sys.stdin) if args.matrix == "-" else _read_json(args.matrix))
    # a finite input can overflow inside a map: report that, not NaN
    with np.errstate(all="ignore"):
        Y = m.apply(X)
    _emit_json(matrix_to_json(_finite(Y, "map output")), args.output)
    return 0


def _cmd_check(args) -> int:
    from .checking import DomainSpec, check_cs

    curve = parse_curve(args.curve)
    domain = DomainSpec(curve, args.n, MatrixClass(args.mclass),
                        _parse_window(args.window))
    with _black_box(args, domain) as bb:
        verdict = check_cs(bb, args.trials, args.tol,
                           np.random.default_rng(args.seed))
    _emit_json(verdict.to_json(), args.output)
    if args.expect_pass and not verdict.ok:
        return 1
    return 0


def _cmd_classify(args) -> int:
    from .checking import DomainSpec
    from .classify import check_classifiable, classify_preserver

    curve = parse_curve(args.curve)
    domain = DomainSpec(curve, args.n, MatrixClass.NORMAL,
                        _parse_window(args.window))
    check_classifiable(domain)
    with _black_box(args, domain) as bb:
        result = classify_preserver(bb, np.random.default_rng(args.seed),
                                    args.trials)
    _emit_json(result.to_json(), args.output)
    if args.expect_pass and result.kind == "unknown":
        return 1
    return 0


def _cmd_regularity(args) -> int:
    from .regularity import db_profile, dc_probe, write_profile_csv

    curve = parse_curve(args.curve)
    center = curve.eval(args.center)
    probe = db_profile if args.mode == "db" else dc_probe
    kwargs = {"samples_per_scale": args.samples,
              "rng": np.random.default_rng(args.seed)}
    if args.scales:
        kwargs["scales"] = tuple(_floats(args.scales, "scales"))
    profile = probe(curve, np.conj, args.order, center, **kwargs)
    if args.output is None or args.output == "-":
        write_profile_csv(profile, sys.stdout)
    else:
        write_profile_csv(profile, args.output)
    return 0


def _cmd_rho_continuity(args) -> int:
    from .regularity import rho_continuity_experiment

    curve = parse_curve(args.curve)
    report = rho_continuity_experiment(curve, args.n, args.corner,
                                       rng=np.random.default_rng(args.seed))
    _emit_json(report.to_json(), args.output)
    return 0


def _cmd_demo_circle(args) -> int:
    from .classify import circle_obstruction_demo

    spectrum = [np.exp(1j * a) for a in _floats(args.spectrum, "spectrum")]
    cuts = [np.exp(1j * a) for a in _floats(args.cuts, "cuts")]
    report = circle_obstruction_demo(args.n, spectrum, cuts)
    _emit_json(report.to_json(), args.output)
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "apply": _cmd_apply,
    "check": _cmd_check,
    "classify": _cmd_classify,
    "regularity": _cmd_regularity,
    "rho-continuity": _cmd_rho_continuity,
    "demo-circle": _cmd_demo_circle,
}


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.cmd == "selftest":
            return _selftest(quick=args.quick)
        return _COMMANDS[args.cmd](args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except NumericalDomainError as exc:
        print(json.dumps({"error": "numerical-domain", "message": str(exc)}),
              file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a size past memory is a count the user asked for (--trials,
        # --samples or --order; n is capped at 12)
        print(json.dumps({"error": "config",
                          "message": f"requested size too large: {exc}"}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never of its input
        import traceback
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(json.dumps({"error": "internal",
                          "message": f"{type(exc).__name__}: {exc}",
                          "at": f"{os.path.basename(where.filename)}:{where.lineno}"}),
              file=sys.stderr)
        return 3


def main() -> int:
    return run(sys.argv[1:])


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks(quick: bool):
    from . import maps
    from .checking import BlackBoxMap, DomainSpec, check_cs
    from .classify import circle_obstruction_demo, classify_preserver
    from .maps import Conj, OrderMap, Rho
    from .regularity import divided_difference, rho_continuity_experiment
    from .spectral import random_unitary, sample, spectra_equal

    # maps.rho is read at each call, so the checks test the rho Rho falls back on
    rl = real_line()

    def rho_fixed_oracles():
        # the skewed rotation: conjugate of a rotation by diag(2, 1)
        X = np.array([[0.0, 2.0], [-0.5, 0.0]], dtype=complex)
        want = np.array([[0.0, 0.5], [-2.0, 0.0]], dtype=complex)
        assert np.linalg.norm(maps.rho(X) - want) <= 1e-12

    def rho_skew_conjugation():
        rng = np.random.default_rng(31)
        for _ in range(20 if quick else 100):
            Q = random_unitary(3, rng)
            R = (Q * rng.uniform(0.5, 2.0, size=3)) @ Q.conj().T
            U = random_unitary(3, rng)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            N = (U * w) @ U.conj().T
            X = R @ N @ np.linalg.inv(R)
            got = maps.rho(X)
            want = np.linalg.inv(R) @ N @ R
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(X)

    def rho_involution_and_fixed_points():
        rng = np.random.default_rng(32)
        for _ in range(10):
            X = sample(rl, 3, MatrixClass.SEMISIMPLE, rng)
            assert np.linalg.norm(maps.rho(maps.rho(X)) - X) <= 1e-6 * np.linalg.norm(X)
            N = sample(rl, 3, MatrixClass.NORMAL, rng)
            assert np.linalg.norm(maps.rho(N) - N) <= 1e-8 * max(1.0, np.linalg.norm(N))
            assert np.array_equal(Rho().apply(N), N)

    def quotient_corner_blowup():
        cg = CornerGraph(-1.0, 1.0)
        for eps in (1e-1, 1e-2, 1e-3):
            pts = (cg.eval(-eps), cg.eval(0.0), cg.eval(eps))
            q = divided_difference(np.conj, pts)
            assert abs(abs(q) - 1.0 / eps) <= 1e-6 / eps

    def check_preservers():
        rng = np.random.default_rng(33)
        dom = DomainSpec(rl, 3, MatrixClass.NORMAL)
        T = random_unitary(3, rng)
        for m in (Conj(T), OrderMap(rl, T), Rho()):
            v = check_cs(BlackBoxMap(m, dom), 40 if quick else 200, 1e-6,
                         np.random.default_rng(34))
            assert v.ok, f"{type(m).__name__} failed"
        bad = check_cs(BlackBoxMap(lambda X: X + np.eye(3), dom), 20, 1e-6,
                       np.random.default_rng(35))
        assert not bad.ok

    def spectra_match_shifted():
        rng = np.random.default_rng(36)
        Q = random_unitary(4, rng)
        X = (Q * rng.standard_normal(4)) @ Q.conj().T
        assert spectra_equal(X, X.T, 1e-9)
        assert not spectra_equal(X, X + np.eye(4), 1e-3)

    def obstruction_mismatch():
        rep = circle_obstruction_demo(
            3, [1, 1j, -1], [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 2)])
        assert abs(rep.mismatch - np.sqrt(8.0)) <= 1e-9
        assert not rep.same_gap

    def classify_round_trip():
        rng = np.random.default_rng(37)
        dom = DomainSpec(rl, 3, MatrixClass.NORMAL)
        T = random_unitary(3, rng)
        got = classify_preserver(BlackBoxMap(Conj(T), dom),
                                 np.random.default_rng(38))
        assert got.kind == "conjugation" and got.residual <= 1e-6
        got = classify_preserver(BlackBoxMap(OrderMap(rl, T), dom),
                                 np.random.default_rng(38))
        assert got.kind == "ordering_map" and got.residual <= 1e-6

    def corner_experiment_flags():
        rep = rho_continuity_experiment(CornerGraph(-1.0, 1.0), 3, 0.0,
                                        rng=np.random.default_rng(39))
        assert rep.db.verdict_db == "diverging"
        assert rep.any_flag and rep.concordant
        quiet = rho_continuity_experiment(rl, 3, 0.0,
                                          rng=np.random.default_rng(39))
        assert quiet.db.verdict_db == "bounded" and not quiet.any_flag

    checks = [
        ("rho fixed oracles", rho_fixed_oracles),
        ("rho skew conjugation", rho_skew_conjugation),
        ("rho involution and fixed points", rho_involution_and_fixed_points),
        ("corner quotient blowup", quotient_corner_blowup),
        ("preserver checks", check_preservers),
        ("spectra matching", spectra_match_shifted),
        ("circle obstruction", obstruction_mismatch),
    ]
    if not quick:
        checks += [
            ("classifier round trip", classify_round_trip),
            ("corner continuity experiment", corner_experiment_flags),
        ]
    return checks


def _selftest(quick: bool = False) -> int:
    failures = 0
    for name, fn in _selftest_checks(quick):
        try:
            fn()
        except Exception as exc:  # report every failure, keep going
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"PASS  {name}")
    print(f"{'OK' if failures == 0 else 'FAILED'} "
          f"({failures} failure{'s' if failures != 1 else ''})")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
