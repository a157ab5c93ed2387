"""Preserver classification, conjugator reconstruction, obstruction demo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvespec.checking import BlackBoxMap, DomainSpec
from curvespec.classify import (
    EQUIVARIANT,
    FACTORS_THROUGH_QUOTIENT,
    EquivarianceVerdict,
    circle_obstruction_demo,
    classify_preserver,
    equivariance_test,
    reconstruct_conjugator,
    subspace_image,
)
from curvespec.curves import CornerGraph, real_line, unit_circle_arc
from curvespec.errors import (
    ClosedCurveError,
    CoincidentPointsError,
    ConfigError,
    MixedWitnessError,
    ReconstructionError,
)
from curvespec.curves import UnitCircleClosed
from curvespec.maps import Conj, OrderMap, TransposeConj
from curvespec.spectral import MatrixClass, random_unitary
from curvespec.subspaces import (
    line_distance,
    max_principal_angle,
    subspace_intersection,
    subspace_sum,
)


def _dom(n=3, curve=None):
    return DomainSpec(curve if curve is not None else real_line(), n,
                      MatrixClass.NORMAL)


def _unitary(n, seed):
    return random_unitary(n, np.random.default_rng(seed))


def _oblique(n, seed):
    rng = np.random.default_rng(seed)
    return np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))


class TestEquivariance:
    def test_conjugation_tracks_eigenspaces(self):
        bb = BlackBoxMap(Conj(_unitary(3, 1)), _dom())
        v = equivariance_test(bb, 12, np.random.default_rng(0))
        assert v.kind == EQUIVARIANT and v.witnesses == 12

    def test_ordering_map_ignores_eigenspaces(self):
        bb = BlackBoxMap(OrderMap(real_line(), _unitary(3, 2)), _dom())
        v = equivariance_test(bb, 12, np.random.default_rng(0))
        assert v.kind == FACTORS_THROUGH_QUOTIENT

    def test_transpose_tracks_eigenspaces(self):
        bb = BlackBoxMap(lambda X: X.T, _dom())
        v = equivariance_test(bb, 12, np.random.default_rng(0))
        assert v.kind == EQUIVARIANT

    def test_two_faced_map_raises_mixed(self):
        T = _unitary(3, 3)
        conj, order = Conj(T), OrderMap(real_line(), T)

        def f(X):
            return conj.apply(X) if X[0, 0].real > 0 else order.apply(X)

        with pytest.raises(MixedWitnessError):
            equivariance_test(BlackBoxMap(f, _dom()), 20,
                              np.random.default_rng(1))

    def test_small_dimension_rejected(self):
        with pytest.raises(ConfigError):
            equivariance_test(BlackBoxMap(lambda X: X, _dom(2)), 5)

    def test_verdict_validation(self):
        with pytest.raises(ConfigError):
            EquivarianceVerdict("sideways", 3)
        with pytest.raises(ConfigError):
            EquivarianceVerdict(EQUIVARIANT, 0)


class TestReconstructConjugator:
    def test_unitary_round_trip(self):
        T0 = _unitary(3, 10)
        T, anti, res = reconstruct_conjugator(
            BlackBoxMap(Conj(T0), _dom()), np.random.default_rng(2))
        T0n = T0 / T0.ravel()[np.argmax(np.abs(T0))]
        assert not anti
        assert np.linalg.norm(T - T0n) <= 1e-7
        assert res <= 1e-10

    def test_oblique_round_trip(self):
        T0 = _oblique(4, 11)
        T, anti, res = reconstruct_conjugator(
            BlackBoxMap(Conj(T0), _dom(4)), np.random.default_rng(2))
        T0n = T0 / T0.ravel()[np.argmax(np.abs(T0))]
        assert not anti and np.linalg.norm(T - T0n) <= 1e-7

    def test_transpose_is_antilinear_identity(self):
        T, anti, res = reconstruct_conjugator(
            BlackBoxMap(lambda X: X.T, _dom()), np.random.default_rng(2))
        assert anti
        assert np.linalg.norm(T - np.eye(3)) <= 1e-10

    def test_diagonal_normalization(self):
        Td = np.diag([1.0, 2.0, 3.0]).astype(complex)
        T, anti, _ = reconstruct_conjugator(
            BlackBoxMap(Conj(Td), _dom()), np.random.default_rng(2))
        assert np.allclose(np.diag(T), [1 / 3, 2 / 3, 1], atol=1e-10)
        assert not anti

    def test_scalar_multiple_gives_same_normalized_frame(self):
        T0 = _unitary(3, 12)
        args = (np.random.default_rng(2),)
        T1, _, _ = reconstruct_conjugator(BlackBoxMap(Conj(T0), _dom()), *args)
        T2, _, _ = reconstruct_conjugator(
            BlackBoxMap(Conj((0.3 - 1.7j) * T0), _dom()), *args)
        assert np.linalg.norm(T1 - T2) <= 1e-9

    def test_non_preserver_fails_validation(self):
        with pytest.raises(ReconstructionError):
            reconstruct_conjugator(
                BlackBoxMap(lambda X: X + np.eye(3), _dom()),
                np.random.default_rng(2))


class TestClassifyPreserver:
    @pytest.mark.parametrize("n,curve", [
        (3, real_line()),
        (4, unit_circle_arc(0.1)),
    ])
    def test_conjugation_round_trip(self, n, curve):
        T0 = _unitary(n, 20 + n)
        pt = classify_preserver(BlackBoxMap(Conj(T0), _dom(n, curve)),
                                np.random.default_rng(5))
        assert pt.kind == "conjugation" and not pt.antilinear
        assert pt.residual <= 1e-6
        T0n = T0 / T0.ravel()[np.argmax(np.abs(T0))]
        assert np.linalg.norm(pt.T - T0n) <= 1e-6

    def test_transpose_conjugation_round_trip(self):
        T0 = _oblique(3, 21)
        pt = classify_preserver(BlackBoxMap(TransposeConj(T0), _dom()),
                                np.random.default_rng(5))
        assert pt.kind == "transpose_conjugation" and pt.antilinear
        assert pt.residual <= 1e-6

    def test_ordering_map_round_trip(self):
        Q = _unitary(3, 22)
        pt = classify_preserver(BlackBoxMap(OrderMap(real_line(), Q), _dom()),
                                np.random.default_rng(5))
        assert pt.kind == "ordering_map"
        assert pt.residual <= 1e-6
        # frame agrees with Q columnwise as lines
        for j in range(3):
            assert line_distance(pt.T[:, j], Q[:, j]) <= 1e-6

    @pytest.mark.parametrize("mutant", [
        lambda X: X + np.eye(3),
        lambda X: 2 * X,
    ])
    def test_planted_non_preservers_are_unknown(self, mutant):
        pt = classify_preserver(BlackBoxMap(mutant, _dom()),
                                np.random.default_rng(5))
        assert pt.kind == "unknown"
        assert pt.reason is not None

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_doubling_is_unknown(self, n, seed):
        # at n >= 4 the probes of 2X land on repeated output lines and the
        # reconstructed conjugator is singular
        pt = classify_preserver(BlackBoxMap(lambda X: 2 * X, _dom(n)),
                                np.random.default_rng(seed))
        assert pt.kind == "unknown" and pt.T is None
        assert pt.reason is not None

    def test_singular_conjugator_raises_reconstruction_error(self):
        with pytest.raises(ReconstructionError, match="near singular"):
            reconstruct_conjugator(BlackBoxMap(lambda X: 2 * X, _dom(4)),
                                   np.random.default_rng(0))

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            classify_preserver(BlackBoxMap(lambda X: X, _dom(2)))
        with pytest.raises(ClosedCurveError):
            classify_preserver(
                BlackBoxMap(lambda X: X, _dom(3, UnitCircleClosed())))
        semi = DomainSpec(real_line(), 3, MatrixClass.SEMISIMPLE)
        with pytest.raises(ConfigError):
            classify_preserver(BlackBoxMap(lambda X: X, semi))

    def test_report_json_shape(self):
        pt = classify_preserver(BlackBoxMap(Conj(_unitary(3, 23)), _dom()),
                                np.random.default_rng(5))
        obj = pt.to_json()
        assert obj["type"] == "conjugation"
        assert obj["antilinear"] is False
        assert obj["T"]["n"] == 3
        assert obj["residual"] <= 1e-6 and obj["trials"] == 20


class TestSubspaceImage:
    def test_well_defined_under_basis_change(self):
        bb = BlackBoxMap(Conj(_unitary(4, 30)), _dom(4))
        V = _unitary(4, 31)[:, :2]
        img1 = subspace_image(bb, V)
        img2 = subspace_image(bb, V @ _unitary(2, 32))
        assert max_principal_angle(img1, img2) <= 1e-6

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_lattice_compatibility(self, seed):
        rng = np.random.default_rng(seed)
        bb = BlackBoxMap(Conj(random_unitary(4, rng)), _dom(4))
        F = random_unitary(4, rng)
        dims = rng.integers(1, 3, size=2)
        V, W = F[:, : dims[0]], F[:, dims[0] : dims[0] + dims[1]]
        VW_sum = subspace_image(bb, subspace_sum(V, W))
        sum_imgs = subspace_sum(subspace_image(bb, V), subspace_image(bb, W))
        assert max_principal_angle(VW_sum, sum_imgs) <= 1e-6
        inter = subspace_intersection(V, W)
        if inter.shape[1] > 0:
            VW_int = subspace_image(bb, inter)
            int_imgs = subspace_intersection(
                subspace_image(bb, V), subspace_image(bb, W))
            assert max_principal_angle(VW_int, int_imgs) <= 1e-6

    def test_transpose_conjugation_also_coherent(self):
        bb = BlackBoxMap(TransposeConj(_unitary(4, 33)), _dom(4))
        F = _unitary(4, 34)
        V, W = F[:, :2], F[:, 2:3]
        VW = subspace_image(bb, subspace_sum(V, W))
        parts = subspace_sum(subspace_image(bb, V), subspace_image(bb, W))
        assert max_principal_angle(VW, parts) <= 1e-6


class TestCircleObstruction:
    def test_cuts_in_distinct_gaps_disagree(self):
        rep = circle_obstruction_demo(
            3, [1, 1j, -1],
            [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 2)])
        assert not rep.same_gap
        assert rep.mismatch == pytest.approx(np.sqrt(8.0), abs=1e-12)
        assert np.allclose(np.diag(rep.outputs[0]), [1j, -1, 1])
        assert np.allclose(np.diag(rep.outputs[1]), [1, 1j, -1])

    def test_cuts_in_same_gap_agree(self):
        rep = circle_obstruction_demo(
            3, [1, 1j, -1], [np.exp(0.3j), np.exp(0.8j)])
        assert rep.same_gap and rep.mismatch == 0.0

    def test_third_roots_cyclic_shift(self):
        w = np.exp(2j * np.pi / 3)
        rep = circle_obstruction_demo(
            3, [1, w, w**2],
            [np.exp(1j * np.pi / 3), np.exp(1j * np.pi)])
        assert not rep.same_gap and rep.mismatch > 0.1
        assert rep.orders[0] == (1, 2, 0) and rep.orders[1] == (2, 0, 1)

    def test_cut_on_spectrum_point_rejected(self):
        with pytest.raises(CoincidentPointsError):
            circle_obstruction_demo(3, [1, 1j, -1], [1j, np.exp(0.3j)])

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            circle_obstruction_demo(3, [1, 1j], [np.exp(0.3j), np.exp(0.8j)])
        with pytest.raises(ConfigError):
            circle_obstruction_demo(3, [1, 1j, -2], [np.exp(0.3j), np.exp(0.8j)])
        with pytest.raises(ConfigError):
            circle_obstruction_demo(3, [1, 1j, 1], [np.exp(0.3j), np.exp(0.8j)])
        with pytest.raises(ConfigError):
            circle_obstruction_demo(3, [1, 1j, -1], [np.exp(0.3j)])
