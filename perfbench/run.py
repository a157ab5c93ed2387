#!/usr/bin/env python3
"""curvespec benchmark: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; curvespec is imported from
./src.  A run repeats whole passes of the workload's ops (see
workloads.py) until --seconds have passed and the workload's minimum op
count is reached, checks every op's output, and prints a run record,
the outcome digest and the metrics, with one JSON object as the last
line of stdout.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, run in-process, and prints the per-layer metrics of
tracing.py; it also writes the spans of the first traced pass and the run
record to .perfbench-out/.  See NOTES.md for what each metric means.
"""

import os
import sys

# one BLAS thread here and, through the environment, in every subprocess;
# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("preserver_sweep", "classify_roundtrip", "external_cli", "corner_collision")

# Every timing is taken from the fastest of a run's passes, op by op:
# contention from other tenants of the machine only ever adds time, and
# it comes and goes (see NOTES.md).  A run makes at least 3 passes.
MIN_PASSES = 3
# op_tail_ms needs at least 10 samples beyond its percentile.  With 20 or
# more ops per pass the samples are the ops' best latencies; external_cli
# has 3 ops a pass, so it pools every latency of the run and runs at
# least this many ops.
MIN_OPS = {"external_cli": 30}
# a run stops after this many seconds of passes even below its minimum,
# so that a much slower program still finishes inside the run deadline
HARD_CAP_S = 120.0
SETUP_REPEATS = 5
SETUP_DEADLINE_S = 60.0

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def tail_percentile(workload: str, ops_per_pass: int) -> float:
    """Fixed per workload: at least 10 samples lie beyond it."""
    n = ops_per_pass if ops_per_pass >= 20 else MIN_OPS[workload]
    return 100.0 * (1.0 - 10.0 / n)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def cpu_seconds() -> float:
    """CPU time of this process (precise clock) and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Pass:
    """Timings and outcomes of one pass over the workload's ops."""

    def __init__(self):
        self.wall = 0.0
        self.latencies = []
        self.cpu_times = []
        self.outcomes = []
        self.failures = []

    @property
    def digest(self) -> str:
        blob = json.dumps(self.outcomes, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def run_op(op, inproc: bool):
    """Run and check one op; returns (wall s, CPU s, ok, outcome)."""
    fn = op.run_inproc if inproc and op.run_inproc is not None else op.run
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an op that raises is a failed op
        out, failure = None, ("raised", type(exc).__name__, str(exc)[:200])
    else:
        failure = None
    latency, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    if failure is not None:
        return latency, cpu, False, failure
    try:
        ok, outcome = op.check(out)
    except Exception as exc:
        return latency, cpu, False, ("check raised", type(exc).__name__, str(exc)[:200])
    return latency, cpu, ok, outcome


def run_pass(ops, inproc: bool = False, tracer=None) -> Pass:
    p = Pass()
    w0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        latency, cpu, ok, outcome = run_op(op, inproc)
        p.latencies.append(latency)
        p.cpu_times.append(cpu)
        p.outcomes.append([op.label, outcome])
        if not ok:
            p.failures.append((op.label, outcome))
    p.wall = time.perf_counter() - w0
    return p


def keep_going(passes, start: float, seconds: float, workload: str) -> bool:
    elapsed = time.perf_counter() - start
    if passes and elapsed >= HARD_CAP_S:
        return False
    done = sum(len(p.latencies) for p in passes)
    return (elapsed < seconds or len(passes) < MIN_PASSES
            or done < MIN_OPS.get(workload, 0))


def setup_once(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports curvespec and builds
    the workload's inputs, without running an op."""
    import workloads

    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    o = workloads.run_process(argv, child_env(), SETUP_DEADLINE_S)
    elapsed = time.perf_counter() - t0
    if o.returncode != 0 or o.timed_out or o.lingering:
        raise RuntimeError(f"setup run failed: exit {o.returncode}: {o.stderr[-500:]}")
    return elapsed


def run_record(args) -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:  # the config layout differs across versions
            return "unknown"

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": rev or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def report_outcomes(workload: str, passes) -> bool:
    """Print the outcome digest; True when every pass gave the same one."""
    digests = {p.digest for p in passes}
    first = passes[0]
    tally = collections.Counter(json.dumps(o[1], default=repr) for o in first.outcomes)
    print(f"digest {workload}: {first.digest} over {len(first.outcomes)} ops/pass, "
          f"{'identical' if len(digests) == 1 else 'DIFFERENT'} in {len(passes)} passes")
    for outcome, count in sorted(tally.items()):
        print(f"  {count:4d} x {outcome}")
    for p in passes:
        for label, outcome in p.failures[:10]:
            print(f"FAILED {label}: {outcome}")
    return len(digests) == 1


def end_to_end(args, ops) -> tuple:
    start = time.perf_counter()
    run_op(ops[0], inproc=False)  # warm-up, neither timed nor counted
    passes, setup = [], []
    while keep_going(passes, start, args.seconds, args.workload):
        passes.append(run_pass(ops))
        # set-up runs sit between passes, so that a slow spell of the
        # machine does not catch all of them
        if len(setup) < SETUP_REPEATS:
            setup.append(setup_once(args.workload, args.seed))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once(args.workload, args.seed))
    if args.workload == "external_cli":
        peak_kib = max(op.state["maxrss_kib"] for op in ops)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy as np

    k = len(ops)
    best = [min(p.latencies[i] for p in passes) for i in range(k)]
    pct = tail_percentile(args.workload, k)
    tail_of = best if k >= 20 else [x for p in passes for x in p.latencies]
    metrics = {
        "ops_per_s": k / sum(best),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_tail_ms": 1e3 * float(np.percentile(tail_of, pct)),
        "cpu_s": sum(min(p.cpu_times[i] for p in passes) for i in range(k)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    units = dict(END_TO_END)
    stable = report_outcomes(args.workload, passes)
    print(f"passes {len(passes)}, pass wall s {[round(p.wall, 3) for p in passes]}, "
          f"setup s {[round(s, 3) for s in setup]}")
    print(f"op_tail_ms is p{pct:.4g} of {len(tail_of)} "
          f"{'best op latencies' if k >= 20 else 'op latencies'}")
    return passes, stable, {name: {"value": v, "unit": units[name]}
                            for name, v in metrics.items()}


def per_layer(args, ops, record: dict, import_s: float) -> tuple:
    import tracing

    tracer = tracing.Tracer()
    start = time.perf_counter()
    run_op(ops[0], inproc=True)  # warm-up, neither timed nor counted
    plain, traced, layers = [], [], []
    spans = None
    while not traced or (time.perf_counter() - start < args.seconds
                         and time.perf_counter() - start < HARD_CAP_S):
        plain.append(run_pass(ops, inproc=True))
        tracer.spans = []
        tracer.install()
        try:
            traced.append(run_pass(ops, inproc=True, tracer=tracer))
        finally:
            tracer.uninstall()
        layers.append(tracing.layer_metrics(tracer.spans))
        if spans is None:
            spans = tracer.spans
    if tracer.missing:
        print(f"trace: not found, metrics read 0: {', '.join(tracer.missing)}")

    counters_stable = all(m[k] == layers[0][k] for m in layers for k in tracing.COUNTERS)
    if not counters_stable:
        print("trace: counters DIFFER between traced passes of one seed")
    values = {}
    for name, unit, _ in tracing.PER_LAYER:
        if name == "cli.import_s":
            values[name] = import_s
        elif name == "trace.overhead":
            values[name] = statistics.median(t.wall / u.wall for u, t in zip(plain, traced))
        elif name in tracing.COUNTERS:
            values[name] = layers[0][name]
        else:
            values[name] = min(m[name] for m in layers)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    stable = report_outcomes(args.workload, plain + traced) and counters_stable
    print(f"pairs {len(traced)}, untraced pass wall s {[round(p.wall, 3) for p in plain]}, "
          f"traced {[round(p.wall, 3) for p in traced]}, spans/pass {len(spans)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump({"record": record, "metrics": metrics,
                   "ops": [op.label for op in ops], "span_fields": tracing.SPAN_FIELDS,
                   "spans": tracing.span_rows(spans)}, fh)
    print(f"spans of the first traced pass written to {os.path.relpath(path, ROOT)}")
    return plain + traced, stable, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "curvespec", "__init__.py")):
        print(f"error: no curvespec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # numpy is first imported here too, so this is the whole import cost
    t0 = time.perf_counter()
    import curvespec

    import_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(curvespec.__file__))
    if where != os.path.join(SRC, "curvespec"):
        print(f"error: imported curvespec from {where}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed, child_env())
    if args.setup_only:
        return 0

    record = run_record(args)
    print("record: " + json.dumps(record, sort_keys=True))
    if args.trace:
        passes, stable, metrics = per_layer(args, ops, record, import_s)
    else:
        passes, stable, metrics = end_to_end(args, ops)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"error_rate {failed}/{attempted} = {failed / attempted:g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and stable, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
