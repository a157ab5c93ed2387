"""Randomized preserver checks and continuity probing."""

import json
import sys

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
    collision_path,
    continuity_probe,
    rho_continuity_experiment,
)
from curvespec.curves import CornerGraph, real_line, unit_circle_arc
from curvespec.errors import ConfigError, MapProtocolError
from curvespec.maps import Compose, Conj, OrderMap, Rho, TransposeConj, eigen_conj, rho
from curvespec.regularity import divided_difference
from curvespec.spectral import MatrixClass, random_unitary


def _domain(n=4, curve=None):
    return DomainSpec(curve if curve is not None else real_line(), n, MatrixClass.NORMAL)


def _frame(n, seed):
    return random_unitary(n, np.random.default_rng(seed))


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


class TestExternalProgramMap:
    ECHO = ("import sys, json\n"
            "for line in sys.stdin:\n"
            "    print(line.strip(), flush=True)\n")

    def test_echo_program_is_identity(self):
        with ExternalProgramMap([sys.executable, "-c", self.ECHO]) as ext:
            dom = _domain(3)
            bb = BlackBoxMap(ext, dom)
            X = dom.sample_batch(np.random.default_rng(4), 1)[0]
            assert np.allclose(bb.apply(X), X, atol=1e-15)
            v = check_cs(bb, 3, 1e-6, np.random.default_rng(6))
            assert v.ok

    def test_dead_program_raises(self):
        ext = ExternalProgramMap([sys.executable, "-c", "import sys; sys.exit(3)"])
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
            assert cg.distance(d) <= 1e-12
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
        eps = 1e-3
        p = collision_path(cg, 3, 0.0, "straddle-sym", eps_max=eps)
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
