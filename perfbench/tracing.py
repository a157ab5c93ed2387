"""Outside-in tracing of curvespec for the per-layer metrics.

A traced run wraps public names of curvespec from the benchmark's side:
module functions, rebound in every curvespec namespace that imported them
(so `checking.sample_batch` is wrapped along with `spectral.sample_batch`),
and methods on their classes.  The library itself is not changed, and an
untraced run installs nothing.

Each wrapper call appends a span (name, op index, start, end, parent span,
measured value, raised) to an in-memory list.  A span's self time is its
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.

Names that are absent (renamed or removed by a later change) are skipped
and listed, so the benchmark keeps running; their metrics then read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

_NAME, _OP, _START, _END, _PARENT, _VALUE, _RAISED = range(7)


def _points(args, result):
    return int(np.size(args[1]))


def _rows_in(args, result):
    return int(np.shape(args[1])[0])


def _rows_out(args, result):
    # sample_batch returns one stack, the pair sampler a pair of stacks
    if isinstance(result, tuple):
        return sum(int(r.shape[0]) for r in result)
    return int(result.shape[0])


def _tuples(args, result):
    return int(result.samples_per_scale) * len(result.scales)


def _unknown(args, result):
    return int(result.kind == "unknown")


# (span name, module, attribute path, value measured per call)
TARGETS = (
    ("curves.eval_array", "curvespec.curves", "Curve.eval_array", _points),
    ("curves.invert_array", "curvespec.curves", "Curve.invert_array", _points),
    ("spectral.sample", "curvespec.spectral", "sample_batch", _rows_out),
    ("spectral.sample", "curvespec.spectral", "sample_commuting_pair_batch", _rows_out),
    ("spectral.decompose", "curvespec.spectral", "spectral_decompose", None),
    ("spectral.eigenflag", "curvespec.spectral", "eigenflag", None),
    ("spectral.match", "curvespec.spectral", "spectral_bottleneck_distance", None),
    ("spectral.match", "curvespec.spectral", "spectra_equal", None),
    # leaf maps only: Compose forwards to its parts, and Rho.apply to rho()
    ("maps.apply", "curvespec.maps", "rho", None),
    ("maps.apply", "curvespec.maps", "eigen_conj", None),
    ("maps.apply", "curvespec.maps", "Conj.apply", None),
    ("maps.apply", "curvespec.maps", "TransposeConj.apply", None),
    ("maps.apply", "curvespec.maps", "OrderMap.apply", None),
    ("maps.apply_batch", "curvespec.maps", "Conj.apply_batch", _rows_in),
    ("maps.apply_batch", "curvespec.maps", "TransposeConj.apply_batch", _rows_in),
    ("maps.apply_batch", "curvespec.maps", "OrderMap.apply_batch", _rows_in),
    ("maps.apply_batch", "curvespec.maps", "Rho.apply_batch", _rows_in),
    ("checking.check_cs", "curvespec.checking", "check_cs", None),
    ("checking.blackbox.apply", "curvespec.checking", "BlackBoxMap.apply", None),
    ("checking.blackbox.apply_batch", "curvespec.checking", "BlackBoxMap.apply_batch",
     _rows_in),
    ("checking.external", "curvespec.checking", "ExternalProgramMap.__call__", None),
    ("checking.continuity", "curvespec.checking", "continuity_probe", None),
    ("checking.continuity", "curvespec.checking", "rho_continuity_experiment", None),
    ("classify", "curvespec.classify", "classify_preserver", _unknown),
    ("classify.equivariance", "curvespec.classify", "equivariance_test", None),
    ("classify.reconstruct", "curvespec.classify", "reconstruct_conjugator", None),
    ("subspaces", "curvespec.subspaces", "orthonormal_columns", None),
    ("subspaces", "curvespec.subspaces", "principal_angles", None),
    ("subspaces", "curvespec.subspaces", "max_principal_angle", None),
    ("subspaces", "curvespec.subspaces", "subspace_sum", None),
    ("subspaces", "curvespec.subspaces", "subspace_intersection", None),
    ("subspaces", "curvespec.subspaces", "line_distance", None),
    ("subspaces", "curvespec.subspaces", "projector_range", None),
    ("regularity.probe", "curvespec.regularity", "db_profile", _tuples),
    ("regularity.probe", "curvespec.regularity", "dc_probe", _tuples),
    ("cli.run", "curvespec.cli", "run", None),
)

# per-layer metrics in output order: (name, unit, better)
PER_LAYER = (
    ("curves.eval_array.calls", "count", "lower"),
    ("curves.eval_array.points", "count", "lower"),
    ("curves.eval_array.self_s", "s", "lower"),
    ("curves.invert_array.calls", "count", "lower"),
    ("curves.invert_array.points", "count", "lower"),
    ("curves.invert_array.self_s", "s", "lower"),
    ("spectral.sample.calls", "count", "lower"),
    ("spectral.sample.rows", "count", "lower"),
    ("spectral.sample.self_s", "s", "lower"),
    ("spectral.decompose.calls", "count", "lower"),
    ("spectral.decompose.errors", "count", "lower"),
    ("spectral.decompose.self_s", "s", "lower"),
    ("spectral.eigenflag.calls", "count", "lower"),
    ("spectral.eigenflag.self_s", "s", "lower"),
    ("spectral.match.calls", "count", "lower"),
    ("spectral.match.self_s", "s", "lower"),
    ("maps.apply.calls", "count", "lower"),
    ("maps.apply.errors", "count", "lower"),
    ("maps.apply.self_s", "s", "lower"),
    ("maps.apply_batch.calls", "count", "lower"),
    ("maps.apply_batch.rows", "count", "lower"),
    ("maps.apply_batch.self_s", "s", "lower"),
    ("maps.fallback_rows", "count", "lower"),
    ("maps.batch_fast_ratio", "ratio", "higher"),
    ("checking.check_cs.calls", "count", "lower"),
    ("checking.check_cs.self_s", "s", "lower"),
    ("checking.blackbox.apply.calls", "count", "lower"),
    ("checking.blackbox.apply_batch.rows", "count", "lower"),
    ("checking.batch_share", "ratio", "higher"),
    ("checking.external.roundtrips", "count", "lower"),
    ("checking.external.wait_s", "s", "lower"),
    ("checking.external.us_per_roundtrip", "us", "lower"),
    ("checking.continuity.calls", "count", "lower"),
    ("checking.continuity.self_s", "s", "lower"),
    ("classify.calls", "count", "lower"),
    ("classify.unknown", "count", "lower"),
    ("classify.self_s", "s", "lower"),
    ("classify.equivariance.self_s", "s", "lower"),
    ("classify.reconstruct.self_s", "s", "lower"),
    ("classify.bb_calls_per_call", "count", "lower"),
    ("subspaces.calls", "count", "lower"),
    ("subspaces.self_s", "s", "lower"),
    ("regularity.probe.calls", "count", "lower"),
    ("regularity.probe.tuples", "count", "lower"),
    ("regularity.probe.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# metrics that must repeat exactly for a seed; the others are timings
COUNTERS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "ratio")
                 and name != "trace.overhead")


class Tracer:
    """Installs the wrappers and collects spans in memory."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []
        self.missing = []

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "curvespec" or name.startswith("curvespec.")) and m]
        for span, modname, path, measure in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = None if owner is None else vars(owner).get(attr)
            if orig is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(span, orig, measure)
            if cls_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _wrap(self, name, fn, measure):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, tracer.op, 0.0, 0.0, stack[-1] if stack else -1, 0, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_RAISED] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if measure is not None:
                span[_VALUE] = measure(args, result)
            return result

        return traced


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass from its spans (all but the two
    measured by the runner: cli.import_s and trace.overhead)."""
    n = len(spans)
    covered = [0.0] * n
    for s in spans:
        if s[_PARENT] >= 0:
            covered[s[_PARENT]] += s[_END] - s[_START]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total = defaultdict(int)
    raised = defaultdict(int)
    in_classify = [False] * n
    per_matrix_batch = set()
    fallback = bb_loose = bb_in_classify = 0
    for i, s in enumerate(spans):
        name, parent = s[_NAME], s[_PARENT]
        pname = spans[parent][_NAME] if parent >= 0 else None
        calls[name] += 1
        self_s[name] += s[_END] - s[_START] - covered[i]
        total[name] += s[_VALUE]
        raised[name] += s[_RAISED]
        in_classify[i] = name == "classify" or (parent >= 0 and in_classify[parent])
        if name == "maps.apply" and pname == "maps.apply_batch":
            fallback += 1
        if name == "checking.blackbox.apply":
            if pname == "checking.blackbox.apply_batch":
                per_matrix_batch.add(parent)
            else:
                bb_loose += 1
        # black-box calls made by the classifier, a batch counting once
        if in_classify[i] and (name == "checking.blackbox.apply_batch" or (
                name == "checking.blackbox.apply"
                and pname != "checking.blackbox.apply_batch")):
            bb_in_classify += 1
    bb_rows = total["checking.blackbox.apply_batch"]
    bb_vectorized = sum(s[_VALUE] for i, s in enumerate(spans)
                        if s[_NAME] == "checking.blackbox.apply_batch"
                        and i not in per_matrix_batch)
    batch_rows = total["maps.apply_batch"]
    trips = calls["checking.external"]
    wait = self_s["checking.external"]
    return {
        "curves.eval_array.calls": calls["curves.eval_array"],
        "curves.eval_array.points": total["curves.eval_array"],
        "curves.eval_array.self_s": self_s["curves.eval_array"],
        "curves.invert_array.calls": calls["curves.invert_array"],
        "curves.invert_array.points": total["curves.invert_array"],
        "curves.invert_array.self_s": self_s["curves.invert_array"],
        "spectral.sample.calls": calls["spectral.sample"],
        "spectral.sample.rows": total["spectral.sample"],
        "spectral.sample.self_s": self_s["spectral.sample"],
        "spectral.decompose.calls": calls["spectral.decompose"],
        "spectral.decompose.errors": raised["spectral.decompose"],
        "spectral.decompose.self_s": self_s["spectral.decompose"],
        "spectral.eigenflag.calls": calls["spectral.eigenflag"],
        "spectral.eigenflag.self_s": self_s["spectral.eigenflag"],
        "spectral.match.calls": calls["spectral.match"],
        "spectral.match.self_s": self_s["spectral.match"],
        "maps.apply.calls": calls["maps.apply"],
        "maps.apply.errors": raised["maps.apply"],
        "maps.apply.self_s": self_s["maps.apply"],
        "maps.apply_batch.calls": calls["maps.apply_batch"],
        "maps.apply_batch.rows": batch_rows,
        "maps.apply_batch.self_s": self_s["maps.apply_batch"],
        "maps.fallback_rows": fallback,
        "maps.batch_fast_ratio": 1.0 - fallback / batch_rows if batch_rows else 0.0,
        "checking.check_cs.calls": calls["checking.check_cs"],
        "checking.check_cs.self_s": self_s["checking.check_cs"],
        "checking.blackbox.apply.calls": calls["checking.blackbox.apply"],
        "checking.blackbox.apply_batch.rows": bb_rows,
        "checking.batch_share": (bb_vectorized / (bb_rows + bb_loose)
                                 if bb_rows + bb_loose else 0.0),
        "checking.external.roundtrips": trips,
        "checking.external.wait_s": wait,
        "checking.external.us_per_roundtrip": 1e6 * wait / trips if trips else 0.0,
        "checking.continuity.calls": calls["checking.continuity"],
        "checking.continuity.self_s": self_s["checking.continuity"],
        "classify.calls": calls["classify"],
        "classify.unknown": total["classify"],
        "classify.self_s": self_s["classify"],
        "classify.equivariance.self_s": self_s["classify.equivariance"],
        "classify.reconstruct.self_s": self_s["classify.reconstruct"],
        "classify.bb_calls_per_call": (bb_in_classify / calls["classify"]
                                       if calls["classify"] else 0.0),
        "subspaces.calls": calls["subspaces"],
        "subspaces.self_s": self_s["subspaces"],
        "regularity.probe.calls": calls["regularity.probe"],
        "regularity.probe.tuples": total["regularity.probe"],
        "regularity.probe.self_s": self_s["regularity.probe"],
        "cli.run.self_s": self_s["cli.run"],
    }


SPAN_FIELDS = ("name", "op", "start_s", "end_s", "parent", "value", "raised")


def span_rows(spans) -> list:
    """Spans as rows of SPAN_FIELDS, times relative to the first span."""
    t0 = spans[0][_START] if spans else 0.0
    return [[s[_NAME], s[_OP], round(s[_START] - t0, 9), round(s[_END] - t0, 9),
             s[_PARENT], s[_VALUE], s[_RAISED]] for s in spans]
