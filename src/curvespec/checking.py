"""Randomized preserver checks and the continuity probe.

check_cs throws sampled single matrices and exactly-commuting pairs at an
arbitrary matrix map and tests spectrum preservation and commutativity
preservation at relative tolerances with absolute floors.  Every map call
crosses one boundary, BlackBoxMap.apply_rows: a map that carries a
vectorized apply_batch gets whole stacked chunks, which is what makes the
large canonical-map sweeps affordable; an external program gets each
whole chunk (at most _CHUNK = 1,024 rows) pipelined, its rows written
while its replies are read, sees each row once and in order, and may see
rows after the one whose reply fails; and an opaque callable is applied
one matrix at a time, through BlackBoxMap.apply, inside the same
pipeline.  Both properties share one chunk loop (_first_violation).

continuity_probe estimates a modulus of continuity of any map along a
matrix path and raises a heuristic discontinuity flag when the output
oscillation refuses to decay at the finest grid separation even though
the input path steps have contracted.  The involution experiment that
runs it on collision paths is regularity.rho_continuity_experiment.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

from .curves import Curve, Interval
from .errors import ConfigError, MapProtocolError, NumericalDomainError
from .spectral import (
    MatrixClass,
    _batch_greedy_match_max,
    _bottleneck,
    _draw,
    as_matrix,
    default_window,
    matrix_from_json,
    matrix_to_json,
    sample_batch,
    sample_commuting_pair_batch,
)

__all__ = [
    "DomainSpec",
    "BlackBoxMap",
    "ExternalProgramMap",
    "Counterexample",
    "PreserverVerdict",
    "check_cs",
    "ContinuityTable",
    "continuity_probe",
]

_CHUNK = 1024
# bytes moved per read or write on an external map's pipes: a Linux pipe's
# default capacity
_PIPE_BYTES = 65536

# an external map gets this long to exit after stdin closes, and again
# after SIGTERM, before it is killed
_CLOSE_GRACE_S = 2.0
# characters of an external map's stderr kept for diagnostics
_STDERR_TAIL_CHARS = 500


@dataclass(frozen=True)
class DomainSpec:
    """Sampling domain: curve, dimension, matrix class, parameter window."""

    curve: Curve
    n: int
    matrix_class: MatrixClass
    window: Interval | None = None

    def __post_init__(self):
        if self.window is None:
            object.__setattr__(self, "window", default_window(self.curve))

    def sample_batch(self, rng, count: int) -> np.ndarray:
        return sample_batch(
            self.curve, self.n, self.matrix_class, rng, self.window, count
        )

    def sample_pair_batch(self, rng, count: int):
        return sample_commuting_pair_batch(
            self.curve, self.n, self.matrix_class, rng, self.window, count
        )

    def _draw(self, rng, count: int):
        """sample_batch(rng, count) before its assembly (spectral._assemble)."""
        return _draw(self.curve, self.n, self.matrix_class, rng, self.window, count)


class BlackBoxMap:
    """An opaque matrix map under test, together with its sampling domain."""

    def __init__(self, func, domain: DomainSpec, name: str = "map"):
        if not callable(func):
            raise ConfigError("black-box map needs a callable")
        self.func = func
        self.domain = domain
        self.name = name

    def _validated(self, Xs: np.ndarray, Ys) -> np.ndarray:
        """The map's output for Xs, a stack or one row, checked against it."""
        Ys = np.asarray(Ys, dtype=complex)
        if Ys.shape != Xs.shape:
            raise MapProtocolError(
                f"{self.name} returned shape {Ys.shape} for input shape {Xs.shape}"
            )
        if not np.all(np.isfinite(Ys)):
            raise MapProtocolError(f"{self.name} returned non-finite entries")
        return Ys

    def apply_rows(self, Xs: np.ndarray):
        """Outputs of the map on the leading rows of the stack Xs, and the
        exception it raised on the next row, or None when every row went
        through.

        A map with its own apply_batch gets the whole stack in one call.
        Such a map is pure, so when that call raises or returns a malformed
        stack, the rows are replayed one at a time to find the row that
        fails and its own error.  A map with its own apply_rows, an
        external program, gets the whole stack once and returns its replies
        up to the first bad one with that row's error; the replies are
        checked in order and never replayed.  A plain callable is applied
        row by row in order and sees each row once.
        """
        Xs = np.asarray(Xs, dtype=complex)
        batch = getattr(self.func, "apply_batch", None)
        if batch is not None:
            try:
                return self._validated(Xs, batch(Xs)), None
            except Exception:
                pass  # the replay below finds the row and its own error
        out = np.empty_like(Xs)
        exchange = getattr(self.func, "apply_rows", None)
        if exchange is not None:
            replies, exc = exchange(Xs)
            for i, Y in enumerate(replies):
                try:
                    out[i] = self._validated(Xs[i], Y)
                except MapProtocolError as bad:
                    return out[:i], bad
            return out[: len(replies)], exc
        for i, X in enumerate(Xs):
            try:
                out[i] = self.apply(X)
            except Exception as exc:
                return out[:i], exc
        return out, None

    def apply_batch(self, Xs: np.ndarray) -> np.ndarray:
        out, exc = self.apply_rows(Xs)
        if exc is not None:
            raise exc
        return out

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex)
        return self._validated(X, self.func(X))


class ExternalProgramMap:
    """A map implemented by a subprocess speaking matrix JSON line protocol.

    One matrix JSON object per input line, one per output line, in order.
    apply_rows sends a whole stack while it reads the replies, so the two
    processes work at once; a call on one matrix is its one-row case.  A
    program that cannot start is a config error; a program that exits,
    closes its output, sends no reply byte for `timeout` seconds or sends a
    malformed reply is a protocol error.  The program's stderr is drained
    on a thread, so that a chatty program cannot fill the pipe and stall;
    the last characters are kept for diagnostics.
    """

    def __init__(self, argv, timeout: float = 60.0):
        self.argv = list(argv)
        if not (timeout > 0.0 and np.isfinite(timeout)):
            raise ConfigError(f"map timeout must be positive and finite, got {timeout}")
        self.timeout = float(timeout)
        try:
            self.proc = subprocess.Popen(
                self.argv,
                bufsize=0,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise ConfigError(f"cannot start {self.argv}: {exc}") from None
        # writes never block: a blocked write cannot read the replies that
        # a program stalled on its own full stdout is waiting to send
        os.set_blocking(self.proc.stdin.fileno(), False)
        self._received = bytearray()  # reply bytes after the last full line
        self._stderr_bytes = b""
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _drain_stderr(self) -> None:
        fd = self.proc.stderr.fileno()
        # keep up to 4 bytes per character: UTF-8's longest encoding
        while chunk := os.read(fd, 65536):
            self._stderr_bytes = (self._stderr_bytes + chunk)[-4 * _STDERR_TAIL_CHARS:]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        replies, exc = self.apply_rows(np.asarray(X)[None])
        if exc is not None:
            raise exc
        return replies[0]

    def apply_rows(self, Xs):
        """The program's replies to the rows of the stack Xs up to the first
        row whose reply is bad, and that row's MapProtocolError (None when
        every reply is good).

        Each row is sent once, in order, while the replies are read, and
        every reply to the stack is read before returning, also after a bad
        one, so that the next call's rows meet their own replies.  A
        program that closes its output or sends no reply byte for `timeout`
        seconds is ended (see _end).
        """
        if self.proc.poll() is not None:
            return [], MapProtocolError(
                f"external map exited with code {self.proc.returncode}"
            )
        wfd, rfd = self.proc.stdin.fileno(), self.proc.stdout.fileno()
        replies, failure, count = [], None, 0
        outbox, sent = bytearray(), 0
        with selectors.DefaultSelector() as sel:
            sel.register(rfd, selectors.EVENT_READ)
            sel.register(wfd, selectors.EVENT_WRITE)
            deadline = time.monotonic() + self.timeout
            while True:
                buf, start = self._received, 0
                while count < len(Xs) and (end := buf.find(b"\n", start)) >= 0:
                    count += 1
                    if failure is None:
                        try:
                            replies.append(_reply(buf[start:end]))
                        except MapProtocolError as exc:
                            failure = exc
                    start = end + 1
                del buf[:start]
                if count == len(Xs):
                    return replies, failure
                events = sel.select(deadline - time.monotonic())
                if not events:
                    stop = self._ended(f"sent no reply byte in {self.timeout:g} s")
                    return replies, failure or stop
                for key, _ in events:
                    if key.fd == wfd:
                        while sent < len(Xs) and len(outbox) < _PIPE_BYTES:
                            outbox += (json.dumps(matrix_to_json(Xs[sent])) + "\n").encode()
                            sent += 1
                        try:
                            del outbox[: os.write(wfd, outbox)]
                        except BlockingIOError:
                            pass
                        except OSError:
                            # the program stopped reading; its output says why
                            outbox.clear()
                            sent = len(Xs)
                        if not outbox and sent == len(Xs):
                            sel.unregister(wfd)
                        continue
                    data = os.read(rfd, _PIPE_BYTES)
                    if not (data or buf):
                        stop = self._ended("closed its output")
                        return replies, failure or stop
                    buf += data or b"\n"  # end an unterminated last line
                    deadline = time.monotonic() + self.timeout

    def _ended(self, what: str) -> MapProtocolError:
        """End the program (see _end) and describe why, with its stderr tail."""
        code = self._end()
        self._drain.join(timeout=_CLOSE_GRACE_S)
        err = self._stderr_bytes.decode("utf-8", errors="replace")
        return MapProtocolError(
            f"external map {what} (exit {code}): {err[-_STDERR_TAIL_CHARS:]}"
        )

    def _end(self) -> int:
        """Stop the program and return its exit code, never raising: stdin
        EOF, then SIGTERM, then SIGKILL, each after a grace period in which
        it may exit."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass  # ending the program must not fail on its pipe
        for escalate in (self.proc.terminate, self.proc.kill):
            try:
                return self.proc.wait(timeout=_CLOSE_GRACE_S)
            except subprocess.TimeoutExpired:
                escalate()
        return self.proc.wait()

    def close(self) -> None:
        """End the program (see _end) and release its pipes; never raises."""
        self._end()
        self.proc.stdout.close()
        self._drain.join(timeout=_CLOSE_GRACE_S)
        if not self._drain.is_alive():
            self.proc.stderr.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _reply(line) -> np.ndarray:
    """The matrix of one reply line of an external map."""
    try:
        return matrix_from_json(json.loads(line))
    except ValueError as exc:  # bad JSON, bad UTF-8 or a bad matrix
        raise MapProtocolError(f"external map reply malformed: {exc}") from None


@dataclass
class Counterexample:
    """First recorded violation: the witnesses and the violation size."""

    kind: str  # "spectrum" or "commutativity"
    trial: int
    inputs: tuple
    outputs: tuple
    magnitude: float
    tolerance: float

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "trial": self.trial,
            "inputs": [matrix_to_json(m) for m in self.inputs],
            "outputs": [matrix_to_json(m) for m in self.outputs],
            "magnitude": self.magnitude,
            "tolerance": self.tolerance,
        }


@dataclass
class PreserverVerdict:
    spectrum_ok: bool
    commutativity_ok: bool
    trials: int
    counterexample: Counterexample | None

    def __post_init__(self):
        has_violation = not (self.spectrum_ok and self.commutativity_ok)
        if has_violation != (self.counterexample is not None):
            raise ConfigError("counterexample must be present iff a flag is false")

    @property
    def ok(self) -> bool:
        return self.spectrum_ok and self.commutativity_ok

    def to_json(self) -> dict:
        return {
            "spectrum_ok": self.spectrum_ok,
            "commutativity_ok": self.commutativity_ok,
            "trials": self.trials,
            "counterexample": None
            if self.counterexample is None
            else self.counterexample.to_json(),
        }


def _first_violation(trials: int, run) -> Counterexample | None:
    """The first counterexample run(start, count, judge) returns over the
    chunks of trials.  Every chunk is run, so that the draws and map calls
    do not depend on the verdict; judge is False once one is found."""
    found = None
    for start in range(0, trials, _CHUNK):
        bad = run(start, min(_CHUNK, trials - start), found is None)
        if found is None:
            found = bad
    return found


def _suspects(kind: str, start: int, magnitudes, tols):
    """Rows of a chunk over tolerance, in trial order.  A row whose magnitude
    or tolerance is not finite, which no comparison would flag, raises
    NumericalDomainError when reached."""
    finite = np.isfinite(magnitudes) & np.isfinite(tols)
    for i in np.flatnonzero(~finite | (magnitudes > tols)):
        if not finite[i]:
            raise NumericalDomainError(
                f"{kind} trial {start + int(i)}: {magnitudes[i]} against "
                f"tolerance {tols[i]} is not finite")
        yield int(i)


def check_cs(
    bb: BlackBoxMap, trials: int, tol: float = 1e-6, rng=None
) -> PreserverVerdict:
    """Randomized spectrum/commutativity preservation check.

    Spectrum: eigenvalue multisets of X and the image must match within
    max(1e-12, tol * ||X||) on `trials` single samples.  Commutativity:
    images of exactly-commuting pairs must have commutator norm at most
    max(1e-12, tol * ||im X|| * ||im Y||) on `trials` constructed pairs.
    The first violation in trial order is recorded, with its magnitude
    computed from the eigenvalues or commutator that judged it.  A trial
    before it whose magnitude or tolerance overflows raises NumericalDomainError.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if not (tol > 0.0 and np.isfinite(tol)):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if rng is None:
        rng = np.random.default_rng(0)

    def spectrum(start, cnt, judge):
        Xs = bb.domain.sample_batch(rng, cnt)
        FXs = bb.apply_batch(Xs)
        if not judge:
            return None
        with np.errstate(all="ignore"):
            wx = np.linalg.eigvals(Xs)
            wy = np.linalg.eigvals(FXs)
            tols = np.maximum(1e-12, tol * np.linalg.norm(Xs, axis=(1, 2)))
            D = np.abs(wx[:, :, None] - wy[:, None, :])
            # the greedy maxima bound the bottleneck distances from above
            bounds = _batch_greedy_match_max(D)
        for i in _suspects("spectrum", start, bounds, tols):
            gap = _bottleneck(D[i])
            if gap > tols[i]:
                return Counterexample("spectrum", start + i, (Xs[i],),
                                      (FXs[i],), gap, float(tols[i]))
        return None

    def commutativity(start, cnt, judge):
        Xs, Ys = bb.domain.sample_pair_batch(rng, cnt)
        FXs = bb.apply_batch(Xs)
        FYs = bb.apply_batch(Ys)
        if not judge:
            return None
        with np.errstate(all="ignore"):
            comm = np.linalg.norm(FXs @ FYs - FYs @ FXs, axis=(1, 2))
            tols = np.maximum(1e-12, tol * np.linalg.norm(FXs, axis=(1, 2))
                              * np.linalg.norm(FYs, axis=(1, 2)))
        i = next(_suspects("commutativity", start, comm, tols), None)
        if i is None:
            return None
        return Counterexample("commutativity", start + i, (Xs[i], Ys[i]),
                              (FXs[i], FYs[i]), float(comm[i]), float(tols[i]))

    spectrum_bad = _first_violation(trials, spectrum)
    comm_bad = _first_violation(trials, commutativity)
    return PreserverVerdict(
        spectrum_ok=spectrum_bad is None,
        commutativity_ok=comm_bad is None,
        trials=trials,
        counterexample=spectrum_bad or comm_bad,
    )


# ---------------------------------------------------------------------------
# continuity probing

# the heuristic thresholds of the discontinuity flag (see continuity_probe)
_RATIO_THRESHOLD = 0.9
_INPUT_CONTRACTION = 1e-3
_OUTPUT_FLOOR = 1e-6


@dataclass
class ContinuityTable:
    """Empirical modulus of continuity of a map along a path."""

    deltas: tuple
    output_sups: tuple
    input_sups: tuple
    flag: bool
    ratio: float

    def to_json(self) -> dict:
        return {
            "deltas": list(self.deltas),
            "output_sups": list(self.output_sups),
            "input_sups": list(self.input_sups),
            "flag": self.flag,
            "ratio": self.ratio,
            "ratio_threshold": _RATIO_THRESHOLD,
            "input_contraction": _INPUT_CONTRACTION,
            "output_floor": _OUTPUT_FLOOR,
        }


def continuity_probe(bb: BlackBoxMap, path, samples: int = 101) -> ContinuityTable:
    """Modulus-of-continuity table for bb along path: [0,1] -> matrices.

    The grid is uniform; delta levels double from the grid spacing upward.
    The discontinuity flag trips iff the output sup at the finest delta
    stays above _RATIO_THRESHOLD times the next level's sup (no decay on
    refinement), the input path's finest-level sup is at most
    _INPUT_CONTRACTION (the path itself has contracted), and the output sup
    clears _OUTPUT_FLOOR (constant paths stay quiet).  Thresholds are
    heuristics; the raw table is the real product.
    """
    if samples < 3:
        raise ConfigError("need at least 3 path samples")
    ts = np.linspace(0.0, 1.0, samples)
    Xs = np.array([as_matrix(path(t)) for t in ts])
    FXs = bb.apply_batch(Xs)

    spacing = 1.0 / (samples - 1)
    deltas = []
    d = spacing
    while d <= 1.0 + 1e-12:
        deltas.append(d)
        d *= 2.0

    # pairwise distances, then sup over |t - s| <= delta for each level
    diff_in = np.linalg.norm(Xs[:, None] - Xs[None, :], axis=(2, 3))
    diff_out = np.linalg.norm(FXs[:, None] - FXs[None, :], axis=(2, 3))
    gaps = np.abs(ts[:, None] - ts[None, :])
    out_sups, in_sups = [], []
    for d in deltas:
        mask = gaps <= d + 1e-12
        out_sups.append(float(diff_out[mask].max()))
        in_sups.append(float(diff_in[mask].max()))

    ratio = out_sups[0] / out_sups[1] if out_sups[1] > 0 else 0.0
    flag = (
        len(deltas) >= 2
        and ratio > _RATIO_THRESHOLD
        and in_sups[0] <= _INPUT_CONTRACTION
        and out_sups[0] >= _OUTPUT_FLOOR
    )
    return ContinuityTable(
        deltas=tuple(deltas),
        output_sups=tuple(out_sups),
        input_sups=tuple(in_sups),
        flag=flag,
        ratio=float(ratio),
    )
