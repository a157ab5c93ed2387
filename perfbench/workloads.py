"""The four benchmark workloads: inputs built from the seed, ops, checks.

Each build_* function takes the workload seed and returns the ops of one
pass.  Building an op makes every input it needs (curves, domains,
frames, maps, black boxes, per-op rng seeds), so that the ops themselves
only call into curvespec.  The library sees the generated inputs, never
the seed.

An op's `run` is what gets timed.  Its `check` compares the outcome with
what the acceptance criteria promise and returns (ok, outcome), where
outcome is the discrete part of the result (verdict flags, first
counterexample trial, labels, continuity flags) that goes into the digest.
Checks use numpy only, so that in a traced run they add no curvespec spans.

curvespec is called through module attributes at call time
(`cs.check_cs`, not a name imported once), so that the wrappers of a
traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import curvespec as cs
from curvespec import cli

HERE = os.path.dirname(os.path.abspath(__file__))
MAP_PROGRAM = os.path.join(HERE, "transpose_map.py")

# check_cs at the criterion-1 size
SWEEP_TRIALS = 500
SWEEP_TOL = 1e-6
# fixed composition shapes over the base maps (Conj, TransposeConj,
# OrderMap, Rho) = (0, 1, 2, 3); the seed draws frames, not shapes, so
# that every seed does the same kind of work.  Passes are kept short so
# that each op repeats often in a run: timings are each op's best pass.
SWEEP_PAIRS = ((1, 2), (3, 0), (2, 2))
SWEEP_TRIPLES = ((3, 2, 3),)

# classifier round trips per (n, map kind); frames alternate unitary and
# oblique, as in criterion 6
CLASSIFY_PER_KIND = 6
CLASSIFY_TOL = 1e-6

# corner_collision: rho_continuity_experiment in the criterion-5 regime,
# regularity probes with many tuples per scale
RHO_N = 3
RHO_SAMPLES = 101
PROBE_SAMPLES = 2000
LIMIT_TOL = 1e-3

# external_cli invocations per pass: (curve, n, trials)
CLI_CASES = (("real-line", 3, 50), ("circle-arc:0.5", 4, 200), ("real-line", 5, 600))
CLI_DEADLINE_S = 60.0


@dataclass
class Op:
    """One closed-loop operation of a workload."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    # in-process variant, used by traced runs and their untraced
    # comparison passes; None means `run` itself
    run_inproc: Callable[[], object] | None = None
    state: dict = field(default_factory=dict)


def _seeds(seed: int, stream: int, count: int) -> list:
    """Per-op rng seeds, a pure function of the workload seed."""
    ss = np.random.SeedSequence([int(seed), stream])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint64)]


def _oblique(n: int, rng) -> np.ndarray:
    return np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))


def _line_distance(u, v) -> float:
    c = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.sqrt(max(0.0, 1.0 - min(c, 1.0) ** 2)))


def _shift(X):
    """Planted non-preserver X -> X + I."""
    return X + np.eye(X.shape[0])


def _double(X):
    """Planted non-preserver X -> 2X."""
    return 2 * X


# ---------------------------------------------------------------------------
# preserver_sweep


def sweep_op(label: str, bb, expect_ok: bool, op_seed: int) -> Op:
    """One check_cs verdict; a planted map must be rejected on spectrum."""

    def run():
        return cs.check_cs(bb, SWEEP_TRIALS, SWEEP_TOL, np.random.default_rng(op_seed))

    def check(v):
        ce = v.counterexample
        outcome = (v.spectrum_ok, v.commutativity_ok,
                   None if ce is None else (ce.kind, ce.trial))
        if expect_ok:
            ok = v.ok and ce is None and v.trials == SWEEP_TRIALS
        else:
            ok = (not v.spectrum_ok and ce is not None and ce.kind == "spectrum"
                  and ce.magnitude > ce.tolerance)
        return ok, outcome

    return Op(label, run, check)


def build_preserver_sweep(seed: int) -> list:
    rng = np.random.default_rng(_seeds(seed, 1, 1)[0])
    cells = []
    for curve in (cs.real_line(), cs.unit_circle_arc(0.0)):
        for n in (3, 4, 5):
            cells.append((curve, n))
    per_cell = 4 + len(SWEEP_PAIRS) + len(SWEEP_TRIPLES) + 2
    op_seeds = iter(_seeds(seed, 2, per_cell * len(cells)))
    ops = []
    for i, (curve, n) in enumerate(cells):
        base = [
            cs.Conj(cs.random_unitary(n, rng)),
            cs.TransposeConj(cs.random_unitary(n, rng)),
            cs.OrderMap(curve, cs.random_unitary(n, rng)),
            cs.Rho(),
        ]
        names = ["Conj", "TransposeConj", "OrderMap", "Rho"]
        maps = list(zip(names, base))
        for shape in SWEEP_PAIRS + SWEEP_TRIPLES:
            maps.append(("∘".join(names[k] for k in shape),
                         cs.Compose(tuple(base[k] for k in shape))))
        normal = cs.DomainSpec(curve, n, cs.MatrixClass.NORMAL)
        semi = cs.DomainSpec(curve, n, cs.MatrixClass.SEMISIMPLE)
        cell = f"{curve.kind}/n={n}"
        for name, m in maps:
            ops.append(sweep_op(f"{cell}/{name}", cs.BlackBoxMap(m, normal),
                                True, next(op_seeds)))
        ops.append(sweep_op(f"{cell}/semisimple/Rho", cs.BlackBoxMap(cs.Rho(), semi),
                            True, next(op_seeds)))
        # one planted non-preserver per cell, the two kinds alternating
        name, f = (("X+I", _shift), ("2X", _double))[i % 2]
        ops.append(sweep_op(f"{cell}/planted {name}", cs.BlackBoxMap(f, normal, name=name),
                            False, next(op_seeds)))
    return ops


# ---------------------------------------------------------------------------
# classify_roundtrip


def classify_op(label: str, bb, want: str, T0, op_seed: int) -> Op:
    """One classify_preserver call, checked at the criterion-6 tolerances."""

    def run():
        return cs.classify_preserver(bb, np.random.default_rng(op_seed))

    def check(pt):
        ok = pt.kind == want
        if ok and want != "unknown":
            ok = pt.residual <= CLASSIFY_TOL
            if want == "ordering_map":
                ok = ok and all(_line_distance(pt.T[:, j], T0[:, j]) <= CLASSIFY_TOL
                                for j in range(T0.shape[1]))
            else:
                # compare up to scale, pivoting both on the recovered
                # matrix's largest entry
                k = int(np.argmax(np.abs(pt.T)))
                diff = pt.T / pt.T.flat[k] - T0 / T0.flat[k]
                ok = ok and float(np.linalg.norm(diff)) <= CLASSIFY_TOL
        return ok, (pt.kind,)

    return Op(label, run, check)


def build_classify_roundtrip(seed: int) -> list:
    rng = np.random.default_rng(_seeds(seed, 1, 1)[0])
    curve = cs.real_line()
    op_seeds = iter(_seeds(seed, 2, 3 * (3 * CLASSIFY_PER_KIND + 2)))
    ops = []
    for n in (3, 4, 5):
        dom = cs.DomainSpec(curve, n, cs.MatrixClass.NORMAL)
        for i in range(CLASSIFY_PER_KIND):
            frame = "unitary" if i % 2 == 0 else "oblique"
            T0 = cs.random_unitary(n, rng) if i % 2 == 0 else _oblique(n, rng)
            for want, m in (("conjugation", cs.Conj(T0)),
                            ("transpose_conjugation", cs.TransposeConj(T0)),
                            ("ordering_map", cs.OrderMap(curve, T0))):
                ops.append(classify_op(f"n={n}/{frame}/{want}", cs.BlackBoxMap(m, dom),
                                       want, T0, next(op_seeds)))
        # 2X is planted at n = 3 only: at n >= 4 classify_preserver raises
        # numpy's LinAlgError for it (see the notes, known defects)
        planted = (("X+I", _shift), ("2X", _double)) if n == 3 else (("X+I", _shift),)
        for name, f in planted:
            ops.append(classify_op(f"n={n}/planted {name}",
                                   cs.BlackBoxMap(f, dom, name=name),
                                   "unknown", None, next(op_seeds)))
    return ops


# ---------------------------------------------------------------------------
# corner_collision


def rho_op(label: str, curve, param: float, corner: bool, op_seed: int) -> Op:
    """One rho_continuity_experiment, checked against criterion 5."""

    def run():
        return cs.rho_continuity_experiment(
            curve, RHO_N, param, samples=RHO_SAMPLES,
            rng=np.random.default_rng(op_seed))

    def check(rep):
        flags = tuple(bool(t.flag) for _, t in sorted(rep.path_tables.items()))
        outcome = (rep.db.verdict_db, rep.dc.verdict_dc, flags, rep.concordant)
        if corner:
            sym = rep.path_tables["straddle-sym"]
            ok = (rep.db.verdict_db == "diverging" and rep.any_flag and rep.concordant
                  and sym.flag and sym.output_sups[0] >= 0.1
                  and sym.input_sups[0] <= 1e-3)
        else:
            ok = (rep.db.verdict_db == "bounded" and not rep.any_flag
                  and rep.concordant)
        return ok, outcome

    return Op(label, run, check)


def probe_op(label: str, mode: str, curve, center: complex, order: int,
             want: str, limit, op_seed: int) -> Op:
    """One db_profile or dc_probe call, checked against criterion 4."""
    probe = "db_profile" if mode == "db" else "dc_probe"

    def run():
        return getattr(cs, probe)(curve, np.conj, order, center, samples_per_scale=PROBE_SAMPLES,
                  rng=np.random.default_rng(op_seed))

    def check(p):
        if mode == "db":
            got = p.verdict_db
            ok = got == want and (p.slope >= 0.9 if want == "diverging"
                                  else p.slope <= 0.1)
        else:
            got = p.verdict_dc
            ok = got == want
            if ok and limit is not None:
                ok = abs(p.dc_limit - limit) <= LIMIT_TOL
        return ok, (got,)

    return Op(label, run, check)


def build_corner_collision(seed: int) -> list:
    corner = cs.CornerGraph(-1.0, 1.0)
    rl = cs.real_line()
    arc = cs.unit_circle_arc(0.0)
    tilted = cs.Line(0.5 - 0.25j, np.exp(0.7j))
    experiments = (
        ("corner(-1,1)", corner, 0.0, True),
        ("corner(-0.5,2)", cs.CornerGraph(-0.5, 2.0), 0.0, True),
        ("real_line", rl, 0.0, False),
        ("arc(0)@2", arc, 2.0, False),
        ("arc(1.1)@2.5", cs.unit_circle_arc(1.1), 2.5, False),
    )
    arc_c = arc.eval(2.0)
    # boundedness: diverging at the corner, bounded on smooth curves
    db_cases = [(name, c, z, k, want)
                for name, c, z, want in (("corner", corner, 0j, "diverging"),
                                         ("real_line", rl, 0j, "bounded"),
                                         ("tilted_line", tilted, tilted.eval(0.2), "bounded"),
                                         ("arc", arc, arc_c, "bounded"))
                for k in (3, 4, 5)]
    # limits: none at the corner; on lines conj is affine, so quotients of
    # order >= 3 tend to 0; on the unit circle conj(z) = 1/z, whose
    # order-k quotient tends to (-1)^(k-1) c^(-k)
    dc_cases = [("corner", corner, 0j, k, "no_limit", None) for k in (3, 4, 5)]
    dc_cases += [("real_line", rl, 0.3 + 0j, k, "converges", 0j) for k in (3, 4, 5)]
    dc_cases += [("tilted_line", tilted, tilted.eval(0.2), k, "converges", 0j)
                 for k in (3, 4, 5)]
    # the arc only up to order 3: see the notes, known defects
    dc_cases += [("arc", arc, arc_c, k, "converges", (-1) ** (k - 1) * arc_c ** (-k))
                 for k in (2, 3)]
    op_seeds = iter(_seeds(seed, 2, len(experiments) + len(db_cases) + len(dc_cases)))
    ops = [rho_op(f"rho/{name}", c, p, corner_, next(op_seeds))
           for name, c, p, corner_ in experiments]
    ops += [probe_op(f"db/{name}/order={k}", "db", c, z, k, want, None, next(op_seeds))
            for name, c, z, k, want in db_cases]
    ops += [probe_op(f"dc/{name}/order={k}", "dc", c, z, k, want, lim, next(op_seeds))
            for name, c, z, k, want, lim in dc_cases]
    return ops


# ---------------------------------------------------------------------------
# external_cli


@dataclass
class CliOutcome:
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool = False
    lingering: bool = False
    inproc: bool = False
    maxrss_kib: int = 0


def run_process(argv, env, deadline: float) -> CliOutcome:
    """Run argv in its own process group under a deadline.

    On timeout the whole group is killed.  Any process of the group still
    alive after the leader exits is killed and reported as lingering.  The
    leader is reaped with wait4, which gives its peak RSS (the larger of
    its own and that of its reaped children).
    """
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, start_new_session=True)
    output = {}

    def drain(name, pipe):
        with pipe:
            output[name] = pipe.read().decode()

    def reap():
        _, output["status"], output["usage"] = os.wait4(proc.pid, 0)

    readers = [threading.Thread(target=drain, args=item)
               for item in (("out", proc.stdout), ("err", proc.stderr))]
    waiter = threading.Thread(target=reap)
    for t in readers + [waiter]:
        t.start()
    waiter.join(deadline)
    timed_out = waiter.is_alive()
    if timed_out:
        _kill_group(proc.pid)
        waiter.join()
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(output["status"])
    lingering = _kill_group(proc.pid)
    for t in readers:
        t.join()
    return CliOutcome(proc.returncode, output["out"], output["err"], timed_out, lingering,
                      maxrss_kib=output["usage"].ru_maxrss)


def _kill_group(pgid: int) -> bool:
    """SIGKILL every process left in the group; True if there was one."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def cli_op(label: str, args: list, trials: int, env) -> Op:
    """One `python -m curvespec.cli check --map-cmd ...` invocation."""
    argv = [sys.executable, "-m", "curvespec.cli"] + args
    state = {}

    def run():
        o = run_process(argv, env, CLI_DEADLINE_S)
        state["maxrss_kib"] = max(state.get("maxrss_kib", 0), o.maxrss_kib)
        return o

    def run_inproc():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(args)
        return CliOutcome(rc, out.getvalue(), err.getvalue(), inproc=True)

    def check(o):
        ok = o.returncode == 0 and not o.timed_out and not o.lingering
        verdict = None
        if ok:
            try:
                verdict = json.loads(o.stdout)
            except json.JSONDecodeError:
                ok = False
        if ok:
            ok = (verdict.get("spectrum_ok") is True
                  and verdict.get("commutativity_ok") is True
                  and verdict.get("trials") == trials
                  and verdict.get("counterexample") is None)
            # repeated invocations with one seed must print the same bytes
            first = state.setdefault("inproc" if o.inproc else "process", o.stdout)
            ok = ok and o.stdout == first
        outcome = (o.returncode, o.timed_out, o.lingering,
                   None if verdict is None else (verdict.get("spectrum_ok"),
                                                 verdict.get("commutativity_ok")))
        return ok, outcome

    return Op(label, run, check, run_inproc, state)


def build_external_cli(seed: int, env) -> list:
    map_cmd = f"{shlex.quote(sys.executable)} {shlex.quote(MAP_PROGRAM)}"
    seeds = _seeds(seed, 2, len(CLI_CASES))
    ops = []
    for (curve, n, trials), s in zip(CLI_CASES, seeds):
        args = ["check", "--curve", curve, "--n", str(n), "--map-cmd", map_cmd,
                "--trials", str(trials), "--seed", str(s % 2**31)]
        ops.append(cli_op(f"{curve}/n={n}/trials={trials}", args, trials, env))
    return ops


def build(name: str, seed: int, env) -> list:
    """The ops of one pass of workload `name` for `seed`."""
    if name == "preserver_sweep":
        return build_preserver_sweep(seed)
    if name == "classify_roundtrip":
        return build_classify_roundtrip(seed)
    if name == "external_cli":
        return build_external_cli(seed, env)
    if name == "corner_collision":
        return build_corner_collision(seed)
    raise ValueError(f"unknown workload {name!r}")
