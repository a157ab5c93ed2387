"""Randomized preserver checks and continuity probing."""

import json
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from curvespec.checking import (
    BlackBoxMap,
    ContinuityTable,
    Counterexample,
    DomainSpec,
    ExternalProgramMap,
    PreserverVerdict,
    check_cs,
    continuity_probe,
)
from curvespec.curves import CornerGraph, Interval, Line, real_line, unit_circle_arc
from curvespec.errors import ConfigError, MapProtocolError, NumericalDomainError
from curvespec.maps import (
    CanonicalMap,
    Compose,
    Conj,
    OrderMap,
    Rho,
    TransposeConj,
    eigen_conj,
    rho,
)
from curvespec.regularity import (
    collision_path,
    divided_difference,
    rho_continuity_experiment,
)
from curvespec.spectral import (
    MatrixClass,
    matrix_to_json,
    random_unitary,
    spectral_bottleneck_distance,
)


def _domain(n=4, curve=None):
    return DomainSpec(curve if curve is not None else real_line(), n, MatrixClass.NORMAL)


def _frame(n, seed):
    return random_unitary(n, np.random.default_rng(seed))


class _FixedPairs:
    """A domain that serves the given commuting-pair trials, and as many
    single trials of one small diagonal matrix, in place of random draws."""

    def __init__(self, pairs):
        self.pairs = np.array(pairs, dtype=complex)
        self.singles = np.array([np.diag([1.0, 2.0])] * len(pairs), dtype=complex)

    def sample_batch(self, rng, count):
        return self.singles[:count]

    def sample_pair_batch(self, rng, count):
        return self.pairs[:count, 0], self.pairs[:count, 1]


class TestCheckCS:
    def test_identity_conjugation_passes(self):
        v = check_cs(BlackBoxMap(Conj(np.eye(4)), _domain()), 200, 1e-6,
                     np.random.default_rng(0))
        assert v.ok and v.spectrum_ok and v.commutativity_ok
        assert v.trials == 200 and v.counterexample is None

    @pytest.mark.parametrize("make", [
        lambda n, c: Conj(_frame(n, 1)),
        lambda n, c: TransposeConj(_frame(n, 2)),
        lambda n, c: OrderMap(c, _frame(n, 3)),
        lambda n, c: Rho(),
        lambda n, c: Compose((Rho(), Conj(_frame(n, 4)))),
    ])
    def test_canonical_maps_pass_on_arc(self, make):
        arc = unit_circle_arc(0.2)
        dom = _domain(4, arc)
        v = check_cs(BlackBoxMap(make(4, arc), dom), 100, 1e-6,
                     np.random.default_rng(9))
        assert v.ok

    @pytest.mark.parametrize("cls", list(MatrixClass), ids=lambda c: c.value)
    @pytest.mark.parametrize("make", [lambda: Rho(), lambda: OrderMap(real_line(), _frame(3, 5))],
                             ids=["Rho", "OrderMap"])
    def test_spectral_maps_pass_on_a_small_window(self, make, cls):
        # the samples of [0, 1e-2] are small matrices, where a merge of the
        # default cluster threshold failed to reconstruct and both maps raised
        dom = DomainSpec(real_line(), 3, cls, Interval(0.0, 1e-2))
        for seed in range(5):
            v = check_cs(BlackBoxMap(make(), dom), 2000, 1e-6,
                         np.random.default_rng(seed))
            assert v.ok, seed

    @pytest.mark.parametrize("mutant", [
        lambda X: X + np.eye(X.shape[0]),
        lambda X: X @ X,
        lambda X: np.diag(np.diag(X)),
    ])
    def test_mutants_fail_on_spectrum(self, mutant):
        v = check_cs(BlackBoxMap(mutant, _domain()), 25, 1e-6,
                     np.random.default_rng(3))
        assert not v.spectrum_ok
        assert v.counterexample is not None
        assert v.counterexample.kind == "spectrum"
        assert v.counterexample.magnitude > v.counterexample.tolerance

    def test_spectrum_preserving_commutativity_breaker(self):
        # per-matrix frame choice keeps every spectrum but tears pairs apart
        P = np.eye(4)[[1, 0, 2, 3]]

        def f(X):
            return P @ X @ P.T if X[0, 1].real > 0 else X

        v = check_cs(BlackBoxMap(f, _domain()), 40, 1e-6, np.random.default_rng(2))
        assert v.spectrum_ok
        assert not v.commutativity_ok
        ce = v.counterexample
        assert ce.kind == "commutativity" and len(ce.inputs) == 2
        FX, FY = ce.outputs
        assert np.linalg.norm(FX @ FY - FY @ FX) == pytest.approx(ce.magnitude)

    def test_first_violation_past_the_first_chunk(self):
        # a plain callable, applied one matrix at a time, that shifts every
        # input from its call 1,100 on (counting from 0): the spectrum
        # trials come first, so trial 1,100 is the first violation, in the
        # second chunk
        calls = []

        def f(X):
            calls.append(None)
            return X + np.eye(3) if len(calls) > 1100 else X

        v = check_cs(BlackBoxMap(f, _domain(3)), 1500, 1e-6,
                     np.random.default_rng(4))
        assert not v.spectrum_ok and v.commutativity_ok
        assert v.counterexample.kind == "spectrum"
        assert v.counterexample.trial == 1100
        # every chunk is drawn and mapped, judged or not
        assert len(calls) == 3 * 1500

    @pytest.mark.parametrize("kind,f,trial", [
        ("spectrum", lambda X: X + np.eye(3), 0),
        # swaps the first two coordinates of some inputs: keeps spectra
        ("commutativity", lambda X: X[[1, 0, 2]][:, [1, 0, 2]] if X[0, 1].real > 0 else X, 2),
    ])
    def test_chunk_after_the_violation_is_drawn_and_mapped_unjudged(self, kind, f, trial):
        # the first violation is in the first chunk of 1,024: the second
        # chunk is drawn and mapped all the same, so the rng ends where a
        # passing run's does
        calls = []

        def counted(X):
            calls.append(None)
            return f(X)

        rngs = [np.random.default_rng(6) for _ in range(2)]
        v = check_cs(BlackBoxMap(counted, _domain(3)), 1500, 1e-6, rngs[0])
        assert v.counterexample.kind == kind and v.counterexample.trial == trial
        assert len(calls) == 3 * 1500
        assert check_cs(BlackBoxMap(Conj(np.eye(3)), _domain(3)), 1500, 1e-6, rngs[1]).ok
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("cls", [MatrixClass.NORMAL, MatrixClass.SEMISIMPLE])
    @pytest.mark.parametrize("planted", [
        lambda X: X + np.eye(X.shape[0]),
        lambda X: 2 * X,
    ])
    def test_spectrum_magnitude_is_the_bottleneck_distance(self, n, cls, planted):
        dom = DomainSpec(real_line(), n, cls)
        ce = check_cs(BlackBoxMap(planted, dom), 30, 1e-6,
                      np.random.default_rng(n)).counterexample
        assert ce.kind == "spectrum"
        assert ce.magnitude == spectral_bottleneck_distance(ce.inputs[0],
                                                            ce.outputs[0])
        assert ce.magnitude > ce.tolerance

    def test_first_violation_in_trial_order(self):
        v1 = check_cs(BlackBoxMap(lambda X: 2 * X, _domain()), 30, 1e-6,
                      np.random.default_rng(5))
        v2 = check_cs(BlackBoxMap(lambda X: 2 * X, _domain()), 30, 1e-6,
                      np.random.default_rng(5))
        assert v1.counterexample.trial == v2.counterexample.trial == 0
        assert np.array_equal(v1.counterexample.inputs[0],
                              v2.counterexample.inputs[0])

    def test_seed_reproducibility(self):
        dom = _domain(3, unit_circle_arc(0.1))
        runs = [check_cs(BlackBoxMap(Rho(), dom), 60, 1e-6,
                         np.random.default_rng(77)) for _ in range(2)]
        assert runs[0].to_json() == runs[1].to_json()

    def test_overflowing_tolerances_raise_without_warnings(self):
        # a sample whose norm overflows has every tolerance inf, and no
        # comparison with it would flag 2X: the sampler refuses it, and
        # check_cs refuses such a row from any other domain
        dom = DomainSpec(Line(0j, 1e300 + 0j), 3, MatrixClass.NORMAL)
        huge = _FixedPairs([(np.eye(2), np.eye(2))])
        huge.singles *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDomainError,
                               match="sample spectrum norm overflows"):
                check_cs(BlackBoxMap(lambda X: 2 * X, dom), 20)
            with pytest.raises(NumericalDomainError, match="spectrum trial 0"):
                check_cs(BlackBoxMap(lambda X: 2 * X, huge), 1)

    @pytest.mark.parametrize("overflow_first", [True, False])
    def test_overflow_counts_only_before_the_first_violation(self, overflow_first):
        # under the identity, a pair that does not commute is a violation,
        # and a pair at 1e200 overflows its commutator and its tolerance
        huge = 1e200 * np.eye(2)
        apart = (np.array([[1.0, 1.0], [0.0, 2.0]]), np.diag([1.0, 3.0]))
        pairs = [(huge, huge), apart] if overflow_first else [apart, (huge, huge)]
        bb = BlackBoxMap(lambda X: X, _FixedPairs(pairs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if overflow_first:
                with pytest.raises(NumericalDomainError,
                                   match="commutativity trial 0"):
                    check_cs(bb, 2)
            else:
                v = check_cs(bb, 2)
                assert v.spectrum_ok and not v.commutativity_ok
                assert v.counterexample.trial == 0

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            check_cs(BlackBoxMap(lambda X: X, _domain()), 0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        # every comparison with a NaN tolerance is false, so 2X would pass
        with pytest.raises(ConfigError):
            check_cs(BlackBoxMap(lambda X: 2 * X, _domain()), 20, tol)

    def test_verdict_counterexample_consistency(self):
        with pytest.raises(ConfigError):
            PreserverVerdict(spectrum_ok=False, commutativity_ok=True,
                             trials=5, counterexample=None)
        with pytest.raises(ConfigError):
            PreserverVerdict(
                spectrum_ok=True, commutativity_ok=True, trials=5,
                counterexample=Counterexample("spectrum", 0, (), (), 1.0, 0.0))


class TestBlackBoxMap:
    def test_needs_callable(self):
        with pytest.raises(ConfigError):
            BlackBoxMap("not callable", _domain())

    def test_wrong_output_shape(self):
        bb = BlackBoxMap(lambda X: X[:2, :2], _domain(4))
        with pytest.raises(MapProtocolError):
            bb.apply(np.eye(4, dtype=complex))

    def test_nonfinite_output(self):
        bb = BlackBoxMap(lambda X: X * np.nan, _domain(3))
        with pytest.raises(MapProtocolError):
            bb.apply(np.eye(3, dtype=complex))

    def test_batch_matches_sequential_for_canonical_map(self):
        dom = _domain(3)
        m = Conj(_frame(3, 8))
        bb = BlackBoxMap(m, dom)
        Xs = dom.sample_batch(np.random.default_rng(1), 7)
        batch = bb.apply_batch(Xs)
        seq = np.array([m.apply(X) for X in Xs])
        assert np.allclose(batch, seq, atol=1e-12)


@dataclass(frozen=True)
class _MarkedRowsMap(CanonicalMap):
    """A pure batch map that doubles every row and misbehaves on the rows
    whose [0, 0] entry is negative: it raises naming the last such entry,
    returns inf there, or returns the stack with its last column cut off."""

    mode: str

    def apply_batch(self, Xs):
        marked = Xs[:, 0, 0].real < 0
        if self.mode == "raise" and marked.any():
            raise ValueError(f"marked row {Xs[marked][-1, 0, 0].real}")
        out = 2.0 * Xs
        if self.mode == "inf":
            out[marked] = np.inf
        if self.mode == "shape" and marked.any():
            return out[:, :, :-1]
        return out


def _marked_stack(rows=6, marked=(2, 4)):
    Xs = np.array([(1.0 + i) * np.eye(3, dtype=complex) for i in range(rows)])
    for i in marked:
        Xs[i, 0, 0] = -float(i)
    return Xs


class TestApplyRows:
    def test_batch_map_that_raises_returns_rows_before_and_their_own_error(self):
        Xs = _marked_stack()
        out, exc = BlackBoxMap(_MarkedRowsMap("raise"), _domain(3)).apply_rows(Xs)
        assert np.array_equal(out, 2.0 * Xs[:2])
        # the error of row 2 itself, not the stack's, which names row 4
        assert isinstance(exc, ValueError) and str(exc) == "marked row -2.0"

    @pytest.mark.parametrize("mode", ["inf", "shape"])
    def test_malformed_batch_output_is_replayed_to_the_row(self, mode):
        Xs = _marked_stack()
        bb = BlackBoxMap(_MarkedRowsMap(mode), _domain(3), name="marked")
        out, exc = bb.apply_rows(Xs)
        assert np.array_equal(out, 2.0 * Xs[:2])
        assert isinstance(exc, MapProtocolError)
        assert str(exc).startswith("marked returned ")
        with pytest.raises(MapProtocolError):
            bb.apply_batch(Xs)

    def test_plain_callable_sees_each_row_once_in_order(self):
        Xs = _marked_stack(marked=())
        seen = []

        def f(X):
            seen.append(X.copy())
            if len(seen) == 4:
                raise ValueError("fourth call")
            return X

        out, exc = BlackBoxMap(f, _domain(3)).apply_rows(Xs)
        assert len(seen) == 4
        assert all(np.array_equal(a, b) for a, b in zip(seen, Xs))
        assert np.array_equal(out, Xs[:3]) and str(exc) == "fourth call"

    def test_every_row_through_gives_no_error(self):
        Xs = _marked_stack(marked=())
        for func in (_MarkedRowsMap("raise"), lambda X: 2.0 * X):
            out, exc = BlackBoxMap(func, _domain(3)).apply_rows(Xs)
            assert exc is None and np.array_equal(out, 2.0 * Xs)

    def test_apply_is_the_checked_map_on_one_row(self):
        for mode in ("raise", "inf"):
            bb = BlackBoxMap(_MarkedRowsMap(mode), _domain(3), name="marked")
            assert np.array_equal(bb.apply(np.eye(3)), 2.0 * np.eye(3))
        X = np.eye(3, dtype=complex)
        X[0, 0] = -1.0
        with pytest.raises(ValueError, match="marked row -1.0"):
            BlackBoxMap(_MarkedRowsMap("raise"), _domain(3)).apply(X)
        with pytest.raises(MapProtocolError, match="marked returned non-finite"):
            bb.apply(X)


class _Exchange:
    """An in-process stand-in for an external program: replies 2X to each
    row, a 2x2 matrix to the rows whose [0, 0] entry is negative, and
    records every stack it is handed."""

    def __init__(self):
        self.stacks = []

    def apply_rows(self, Xs):
        self.stacks.append(Xs.copy())
        return [np.eye(2) if X[0, 0].real < 0 else 2.0 * X for X in Xs], None

    def __call__(self, X):
        return self.apply_rows(X[None])[0][0]


class TestApplyRowsExchange:
    def test_replies_are_checked_in_order_and_never_replayed(self):
        ex = _Exchange()
        bb = BlackBoxMap(ex, _domain(3), name="exchange")
        Xs = _marked_stack()
        out, exc = bb.apply_rows(Xs)
        assert np.array_equal(out, 2.0 * Xs[:2])
        assert isinstance(exc, MapProtocolError)
        assert str(exc) == "exchange returned shape (2, 2) for input shape (3, 3)"
        assert len(ex.stacks) == 1 and np.array_equal(ex.stacks[0], Xs)

    def test_the_exchange_error_follows_the_good_rows(self):
        Xs = _marked_stack(marked=())
        bad = MapProtocolError("row 3 was bad")

        class Failing(_Exchange):
            def apply_rows(self, Xs):
                return super().apply_rows(Xs)[0][:3], bad

        out, exc = BlackBoxMap(Failing(), _domain(3)).apply_rows(Xs)
        assert np.array_equal(out, 2.0 * Xs[:3]) and exc is bad


# one line per reply: X^t, except reply GARBLE (0-based, -1 for none), which
# is junk; every request line is appended to the file TEE
_TEE_MAP = """
import json, sys
tee, garble = sys.argv[1], int(sys.argv[2])
with open(tee, "a") as log:
    for count, line in enumerate(sys.stdin):
        log.write(line)
        log.flush()
        m = json.loads(line)
        m["entries"] = [list(col) for col in zip(*m["entries"])]
        print("junk" if count == garble else json.dumps(m), flush=True)
"""


def _tee_map(tmp_path, garble=-1, timeout=60.0):
    tee = tmp_path / "requests.jsonl"
    argv = [sys.executable, "-c", _TEE_MAP, str(tee), str(garble)]
    return ExternalProgramMap(argv, timeout), tee


class TestExternalProgramMap:
    ECHO = ("import sys, json\n"
            "for line in sys.stdin:\n"
            "    print(line.strip(), flush=True)\n")

    def test_program_receives_each_row_once_in_order(self, tmp_path):
        # 400 rows at n = 4 are about 300 kB of requests, more than a pipe
        # holds, and a one-row call follows the stack
        Xs = _domain(4).sample_batch(np.random.default_rng(8), 401)
        ext, tee = _tee_map(tmp_path)
        with ext:
            out, exc = BlackBoxMap(ext, _domain(4)).apply_rows(Xs[:400])
            last = ext(Xs[400])
        assert exc is None
        assert np.array_equal(out, Xs[:400].transpose(0, 2, 1))
        assert np.array_equal(last, Xs[400].T)
        want = "".join(json.dumps(matrix_to_json(X)) + "\n" for X in Xs)
        assert tee.read_text() == want

    @pytest.mark.parametrize("garble", [0, 5, 299])
    def test_garbled_reply_keeps_the_stream_in_step(self, tmp_path, garble):
        Xs = _domain(3).sample_batch(np.random.default_rng(9), 301)
        ext, tee = _tee_map(tmp_path, garble)
        with ext:
            out, exc = BlackBoxMap(ext, _domain(3)).apply_rows(Xs[:300])
            assert np.array_equal(out, Xs[:garble].transpose(0, 2, 1))
            assert isinstance(exc, MapProtocolError)
            assert "reply malformed" in str(exc)
            # the replies after the garbled one were read: the next call
            # gets the reply to its own row
            assert np.array_equal(ext(Xs[300]), Xs[300].T)
        assert tee.read_text().count("\n") == 301

    def test_silent_program_meets_the_deadline(self):
        prog = ("import sys, time\n"
                "print(sys.stdin.readline().strip(), flush=True)\n"
                "time.sleep(600)\n")
        ext = ExternalProgramMap([sys.executable, "-c", prog], timeout=0.5)
        with ext:
            Xs = _domain(3).sample_batch(np.random.default_rng(2), 3)
            out, exc = ext.apply_rows(Xs)
            assert len(out) == 1 and np.array_equal(out[0], Xs[0])
            assert isinstance(exc, MapProtocolError)
            assert "sent no reply byte in 0.5 s" in str(exc)
            assert ext.proc.returncode is not None
            with pytest.raises(MapProtocolError, match="exited with code"):
                ext(np.eye(1, dtype=complex))

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_deadline_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ConfigError, match="map timeout"):
            ExternalProgramMap([sys.executable, "-c", self.ECHO], timeout)

    def test_exit_mid_stack_reports_the_closed_output(self):
        prog = ("import sys\n"
                "for count, line in enumerate(sys.stdin):\n"
                "    if count == 2:\n"
                "        sys.stderr.write('giving up')\n"
                "        sys.exit(4)\n"
                "    print(line.strip(), flush=True)\n")
        with ExternalProgramMap([sys.executable, "-c", prog]) as ext:
            Xs = _domain(3).sample_batch(np.random.default_rng(2), 5)
            out, exc = ext.apply_rows(Xs)
            assert np.array_equal(np.array(out), Xs[:2])
            assert isinstance(exc, MapProtocolError)
            assert str(exc) == "external map closed its output (exit 4): giving up"

    def test_unterminated_last_reply_is_a_reply(self):
        prog = ("import sys\n"
                "sys.stdout.write(sys.stdin.readline().strip())\n")
        with ExternalProgramMap([sys.executable, "-c", prog]) as ext:
            X = np.diag([1.0, 2.0]).astype(complex)
            assert np.array_equal(ext(X), X)
            # ended by the empty reply, or found gone before the request
            with pytest.raises(MapProtocolError,
                               match="closed its output|exited with code"):
                ext(X)

    def test_echo_program_is_identity(self):
        with ExternalProgramMap([sys.executable, "-c", self.ECHO]) as ext:
            dom = _domain(3)
            bb = BlackBoxMap(ext, dom)
            X = dom.sample_batch(np.random.default_rng(4), 1)[0]
            assert np.allclose(bb.apply(X), X, atol=1e-15)
            v = check_cs(bb, 3, 1e-6, np.random.default_rng(6))
            assert v.ok

    def test_dead_program_raises(self):
        with ExternalProgramMap([sys.executable, "-c", "import sys; sys.exit(3)"]) as ext:
            with pytest.raises(MapProtocolError):
                ext(np.eye(3, dtype=complex))

    def test_malformed_reply_raises(self):
        prog = "import sys\nfor line in sys.stdin:\n    print('junk', flush=True)\n"
        with ExternalProgramMap([sys.executable, "-c", prog]) as ext:
            with pytest.raises(MapProtocolError):
                ext(np.eye(3, dtype=complex))


class TestDomainSpec:
    def test_default_window_filled(self):
        dom = DomainSpec(unit_circle_arc(0.5), 3, MatrixClass.NORMAL)
        assert dom.window is not None


class TestContinuityProbe:
    def test_constant_path_never_flags(self):
        bb = BlackBoxMap(lambda X: X, _domain(3))
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        tab = continuity_probe(bb, lambda t: A, samples=33)
        assert not tab.flag
        assert max(tab.output_sups) == 0.0

    def test_linear_path_decays(self):
        bb = BlackBoxMap(lambda X: X, _domain(3))
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        B = 0.01 * np.eye(3, dtype=complex)
        tab = continuity_probe(bb, lambda t: A + t * B, samples=65)
        assert not tab.flag
        assert tab.ratio == pytest.approx(0.5, rel=1e-6)

    def test_discontinuous_map_flags_on_contracting_path(self):
        def jumpy(X):
            return X + np.eye(3) * (1.0 if X[0, 0].real > 2.0 else 0.0)

        bb = BlackBoxMap(jumpy, _domain(3))
        A = np.diag([2.0, 3.0, 4.0]).astype(complex)
        B = 0.01 * np.eye(3, dtype=complex)
        tab = continuity_probe(bb, lambda t: A + (t - 0.5) * B, samples=101)
        assert tab.flag
        assert tab.output_sups[0] >= 1.0

    def test_no_flag_when_input_path_jumps(self):
        A = np.diag([1.0, 2.0, 3.0]).astype(complex)
        B = A + np.eye(3)

        def f(X):
            return np.eye(3) * (1.0 if X[0, 0].real > 1.5 else 0.0)

        bb = BlackBoxMap(f, _domain(3))
        tab = continuity_probe(bb, lambda t: B if t > 0.5 else A, samples=41)
        assert tab.ratio > 0.9 and tab.output_sups[0] >= 1.0
        assert not tab.flag  # the input itself jumped, so no verdict on the map

    def test_requires_three_samples(self):
        bb = BlackBoxMap(lambda X: X, _domain(3))
        with pytest.raises(ConfigError):
            continuity_probe(bb, lambda t: np.eye(3, dtype=complex), samples=2)


class TestCollisionPath:
    def test_diagonal_on_curve_and_endpoint_scalar(self):
        cg = CornerGraph(-1.0, 1.0)
        p = collision_path(cg, 3, 0.0, "straddle-sym")
        X = p(0.0)
        assert np.allclose(np.tril(X, -1), 0)
        for d in np.diag(X):
            assert cg._nearest(d)[2][0] <= 1e-12
        end = p(1.0)
        assert np.allclose(end, cg.eval(0.0) * np.eye(3), atol=1e-15)

    def test_straddle_offsets_bracket_center(self):
        p = collision_path(real_line(), 3, 0.0, "straddle-sym")
        d = np.diag(p(0.0)).real
        assert d.min() < 0 < d.max()
        p1 = collision_path(real_line(), 3, 0.0, "one-sided")
        assert np.diag(p1(0.0)).real.min() > 0

    def test_pinned_entry_matches_quotient(self):
        # triangular functional calculus: corner entry of the involution's
        # conjugate is the coupling product times the order-2 quotient
        cg = CornerGraph(-1.0, 1.0)
        p = collision_path(cg, 3, 0.0, "straddle-sym")
        X = p(0.0)
        d = tuple(np.diag(X))
        expected = X[0, 1] * X[1, 2] * divided_difference(np.conj, d)
        g = eigen_conj(X)
        assert abs(g[0, 2] - expected) <= 1e-9
        assert abs(expected - (-1j)) <= 1e-9

    def test_bad_style_and_dimension(self):
        with pytest.raises(ConfigError):
            collision_path(real_line(), 3, 0.0, "sideways")
        with pytest.raises(ConfigError):
            collision_path(real_line(), 1, 0.0)


class TestRhoContinuityExperiment:
    def test_corner_flags_and_concurs(self):
        rep = rho_continuity_experiment(CornerGraph(-1.0, 1.0), 3, 0.0,
                                        rng=np.random.default_rng(11))
        assert rep.db.verdict_db == "diverging"
        assert rep.path_tables["straddle-sym"].flag
        assert rep.path_tables["straddle-skew"].flag
        assert not rep.path_tables["one-sided"].flag
        assert rep.any_flag and rep.concordant
        sym = rep.path_tables["straddle-sym"]
        assert sym.output_sups[0] >= 0.1
        assert sym.input_sups[0] <= 1e-3

    @pytest.mark.parametrize("curve,param", [
        (real_line(), 0.0),
        (unit_circle_arc(0.3), 1.2),
    ])
    def test_smooth_curves_stay_quiet(self, curve, param):
        rep = rho_continuity_experiment(curve, 3, param,
                                        rng=np.random.default_rng(11))
        assert rep.db.verdict_db == "bounded"
        assert not rep.any_flag
        assert rep.concordant

    def test_fixed_frame_collision_stays_continuous(self):
        # collapsing the spectrum inside one frozen oblique frame does not
        # expose the discontinuity: the output collapses along with the
        # input, so this construction must not flag
        cg = CornerGraph(-1.0, 1.0)
        S = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        Sinv = np.linalg.inv(S)

        def path(t):
            eps = (1.0 - t) * 1e-4 + 1e-8
            block = S @ np.diag([cg.eval(-eps), cg.eval(eps)]) @ Sinv
            X = np.zeros((3, 3), dtype=complex)
            X[:2, :2] = block
            X[2, 2] = cg.eval(1.0)
            return X

        dom = DomainSpec(cg, 3, MatrixClass.SEMISIMPLE)
        bb = BlackBoxMap(lambda X: rho(X, cluster_tol=1e-9), dom)
        tab = continuity_probe(bb, path, samples=101)
        assert not tab.flag

    def test_report_json_fields(self):
        rep = rho_continuity_experiment(real_line(), 3, 0.0,
                                        rng=np.random.default_rng(1))
        obj = rep.to_json()
        assert obj["db_verdict"] == "bounded"
        assert set(obj["paths"]) == {"straddle-sym", "straddle-skew", "one-sided"}
        assert obj["concordant"] is True
        json.dumps(obj)  # serializable end to end

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ConfigError):
            rho_continuity_experiment(real_line(), 1, 0.0)
