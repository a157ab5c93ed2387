"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line on success; a failure carries the
criterion number in the test name.  Criteria 1 and 6 enforce their own
wall-clock budgets.
"""

import itertools
import time

import numpy as np
import pytest

from curvespec.checking import BlackBoxMap, DomainSpec, check_cs
from curvespec.classify import (
    EQUIVARIANT,
    FACTORS_THROUGH_QUOTIENT,
    circle_obstruction_demo,
    classify_preserver,
    equivariance_test,
    subspace_image,
)
from curvespec.curves import CornerGraph, Line, real_line, unit_circle_arc
from curvespec.maps import Compose, Conj, OrderMap, Rho, TransposeConj, eigen_conj, rho
from curvespec.regularity import (
    db_profile,
    dc_probe,
    divided_difference,
    rho_continuity_experiment,
)
from curvespec.spectral import MatrixClass, random_unitary, sample
from curvespec.subspaces import line_distance
from oracles import max_principal_angle, subspace_intersection, subspace_sum

RL = real_line()
ARC = unit_circle_arc(0.0)
CORNER = CornerGraph(-1.0, 1.0)


def _oblique(n, rng):
    return np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))


def _variants(curve, n, rng):
    return [
        Conj(random_unitary(n, rng)),
        TransposeConj(random_unitary(n, rng)),
        OrderMap(curve, random_unitary(n, rng)),
        Rho(),
    ]


def test_criterion_1_canonical_preserver_suite():
    """All variants and depth <= 3 compositions pass check_cs, 500 trials,
    tol 1e-6, on (R, n, Normal) and (arc, n, Normal) for n = 3, 4, 5; Rho
    additionally on Semisimple domains; total runtime <= 60 s."""
    t0 = time.perf_counter()
    trials, tol = 500, 1e-6
    failures = []
    seed = itertools.count(1000)
    for curve in (RL, ARC):
        for n in (3, 4, 5):
            base = _variants(curve, n, np.random.default_rng(next(seed)))
            maps = list(base)
            for parts in itertools.product(base, repeat=2):
                maps.append(Compose(parts))
            for parts in itertools.product(base, repeat=3):
                maps.append(Compose(parts))
            assert len(maps) == 4 + 16 + 64
            dom = DomainSpec(curve, n, MatrixClass.NORMAL)
            for i, m in enumerate(maps):
                v = check_cs(BlackBoxMap(m, dom), trials, tol,
                             np.random.default_rng(next(seed)))
                if not v.ok:
                    failures.append((curve.kind, n, i, v.counterexample.kind))
            semi = DomainSpec(curve, n, MatrixClass.SEMISIMPLE)
            v = check_cs(BlackBoxMap(Rho(), semi), trials, tol,
                         np.random.default_rng(next(seed)))
            if not v.ok:
                failures.append((curve.kind, n, "rho-semisimple",
                                 v.counterexample.kind))
    elapsed = time.perf_counter() - t0
    assert not failures, f"violations: {failures}"
    assert elapsed <= 60.0, f"suite took {elapsed:.1f}s"
    print(f"PASS criterion 1: 84 maps x 6 normal cells + rho on semisimple, "
          f"{trials} trials each, {elapsed:.1f}s")


def test_criterion_2_rho_oracle():
    """rho(R N R^-1) = R^-1 N R for positive R, 200 draws at 1e-6; involution
    at 1e-6; normal fixed points at 1e-8; eigen_conj = rho(.)* at 1e-7."""
    rng = np.random.default_rng(2)
    for i in range(200):
        n = 3 + (i % 3)
        Q = random_unitary(n, rng)
        R = (Q * rng.uniform(0.5, 2.0, size=n)) @ Q.conj().T
        U = random_unitary(n, rng)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        N = (U * w) @ U.conj().T
        X = R @ N @ np.linalg.inv(R)
        norm_x = np.linalg.norm(X)

        got = rho(X)
        want = np.linalg.inv(R) @ N @ R
        assert np.linalg.norm(got - want) <= 1e-6 * norm_x
        assert np.linalg.norm(rho(got) - X) <= 1e-6 * norm_x
        assert np.linalg.norm(rho(N) - N) <= 1e-8 * max(1.0, np.linalg.norm(N))
        assert np.linalg.norm(eigen_conj(X) - got.conj().T) <= 1e-7 * norm_x
    print("PASS criterion 2: rho skew-conjugation oracle, involution, "
          "normal fixed points, adjoint relation (200 draws)")


def test_criterion_3_divided_difference_exactness():
    """|D1 conj| = 1 at 1e-12 on 1e4 on-curve pairs; D2 conj = 0 at 1e-9 on
    straight lines; the straddling corner triple gives |D2| = 1/eps at 1e-6
    relative for eps in {1e-1, 1e-2, 1e-3}."""
    rng = np.random.default_rng(3)
    curves = [RL, ARC, CORNER, Line(1.0 + 2.0j, np.exp(0.7j))]
    for i in range(10_000):
        c = curves[i % len(curves)]
        lo, hi = (-1.0, 1.0) if c.domain is None or not np.isfinite(
            c.domain.upper) else (c.domain.lower, c.domain.upper)
        while True:
            t = rng.uniform(lo + 1e-9, hi - 1e-9, size=2)
            if abs(t[0] - t[1]) > 1e-9:
                break
        q = divided_difference(np.conj, tuple(c.eval_array(t)))
        assert abs(abs(q) - 1.0) <= 1e-12

    for line in (RL, Line(1.0 + 2.0j, np.exp(0.7j)), Line(0j, 1j)):
        for _ in range(200):
            t = rng.uniform(-1.0, 1.0, size=3)
            if min(abs(t[0] - t[1]), abs(t[1] - t[2]), abs(t[0] - t[2])) < 1e-3:
                continue
            q = divided_difference(np.conj, tuple(line.eval_array(t)))
            assert abs(q) <= 1e-9

    for eps in (1e-1, 1e-2, 1e-3):
        triple = (CORNER.eval(-eps), CORNER.eval(0.0), CORNER.eval(eps))
        assert triple[0] == complex(-eps, eps) and triple[2] == complex(eps, eps)
        q = divided_difference(np.conj, triple)
        assert abs(abs(q) - 1.0 / eps) <= 1e-6 / eps
    print("PASS criterion 3: first-order modulus one (1e4 pairs), "
          "second order vanishes on lines, corner blowup 1/eps")


def test_criterion_4_regularity_verdicts():
    """db_profile order 3: diverging at the corner (slope >= 0.9), bounded on
    lines and arcs (slope <= 0.1); dc_probe order 2: no limit at the corner,
    converges on lines to e^{-2i theta} and on arcs to -e^{-2i theta0},
    limit error <= 1e-3."""
    rng = np.random.default_rng(4)

    p = db_profile(CORNER, np.conj, 3, 0j, rng=rng)
    assert p.verdict_db == "diverging" and p.slope >= 0.9

    tilted = Line(0.5 - 0.25j, np.exp(0.7j))
    for curve, center in ((RL, 0j), (tilted, tilted.eval(0.2)),
                          (ARC, ARC.eval(2.0))):
        p = db_profile(curve, np.conj, 3, center, rng=rng)
        assert p.verdict_db == "bounded" and p.slope <= 0.1, curve.kind

    p = dc_probe(CORNER, np.conj, 2, 0j, rng=rng)
    assert p.verdict_dc == "no_limit"

    for curve, center, want in (
        (RL, 0.3 + 0j, 1.0 + 0j),
        (tilted, tilted.eval(0.2), np.exp(-1.4j)),
        (ARC, ARC.eval(2.0), -np.exp(-4.0j)),
    ):
        p = dc_probe(curve, np.conj, 2, center, rng=rng)
        assert p.verdict_dc == "converges", curve.kind
        assert abs(p.dc_limit - want) <= 1e-3, curve.kind
    print("PASS criterion 4: db/dc verdicts and limits on corner, lines, arc")


def test_criterion_5_rho_continuity_concordance():
    """The corner collision path trips the discontinuity flag with final-gap
    sup >= 0.1 under path contraction <= 1e-3; identical constructions on
    the real line and on arcs stay quiet; every report is concordant."""
    corner_rep = rho_continuity_experiment(CORNER, 3, 0.0,
                                           rng=np.random.default_rng(5))
    sym = corner_rep.path_tables["straddle-sym"]
    assert sym.flag
    assert sym.output_sups[0] >= 0.1
    assert sym.input_sups[0] <= 1e-3
    assert corner_rep.any_flag and corner_rep.concordant

    for curve, param in ((RL, 0.0), (ARC, 2.0),
                         (unit_circle_arc(1.1), 2.5)):
        rep = rho_continuity_experiment(curve, 3, param,
                                        rng=np.random.default_rng(5))
        assert not rep.any_flag, curve.kind
        assert rep.concordant, curve.kind
    print("PASS criterion 5: corner path flags (sup >= 0.1 at contraction "
          "<= 1e-3), line and arcs quiet, all concordant")


def test_criterion_6_classifier_round_trips():
    """20 random instances each of Conj, TransposeConj, OrderMap at
    n = 3, 4, 5 labeled correctly with parameter residual <= 1e-6 up to
    normalization/column phase; planted non-preservers land in Unknown;
    runtime <= 120 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for n in (3, 4, 5):
        dom = DomainSpec(RL, n, MatrixClass.NORMAL)
        for i in range(20):
            T0 = random_unitary(n, rng) if i % 2 == 0 else _oblique(n, rng)
            T0n = T0 / T0.ravel()[np.argmax(np.abs(T0))]

            pt = classify_preserver(BlackBoxMap(Conj(T0), dom),
                                    np.random.default_rng(60 + i))
            assert pt.kind == "conjugation" and pt.residual <= 1e-6
            assert np.linalg.norm(pt.T - T0n) <= 1e-6

            pt = classify_preserver(BlackBoxMap(TransposeConj(T0), dom),
                                    np.random.default_rng(61 + i))
            assert pt.kind == "transpose_conjugation" and pt.residual <= 1e-6
            assert np.linalg.norm(pt.T - T0n) <= 1e-6

            pt = classify_preserver(BlackBoxMap(OrderMap(RL, T0), dom),
                                    np.random.default_rng(62 + i))
            assert pt.kind == "ordering_map" and pt.residual <= 1e-6
            for j in range(n):
                assert line_distance(pt.T[:, j], T0[:, j]) <= 1e-6

    dom3 = DomainSpec(RL, 3, MatrixClass.NORMAL)
    for planted in (lambda X: X + np.eye(3), lambda X: 2 * X):
        pt = classify_preserver(BlackBoxMap(planted, dom3),
                                np.random.default_rng(63))
        assert pt.kind == "unknown"
        assert not check_cs(BlackBoxMap(planted, dom3), 25, 1e-6,
                            np.random.default_rng(64)).ok
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"classifier suite took {elapsed:.1f}s"
    print(f"PASS criterion 6: 180 round trips + planted unknowns, "
          f"{elapsed:.1f}s")


def test_criterion_7_equivariance_dichotomy():
    """Unanimous Equivariant for Conj and TransposeConj, unanimous
    FactorsThroughQuotient for OrderMap, 50 trials each, no mixed verdicts."""
    rng = np.random.default_rng(7)
    dom = DomainSpec(RL, 4, MatrixClass.NORMAL)
    T = random_unitary(4, rng)
    for m, want in ((Conj(T), EQUIVARIANT),
                    (TransposeConj(T), EQUIVARIANT),
                    (OrderMap(RL, T), FACTORS_THROUGH_QUOTIENT)):
        v = equivariance_test(BlackBoxMap(m, dom), 50,
                              np.random.default_rng(70))
        assert v.kind == want and v.witnesses == 50
    print("PASS criterion 7: unanimous dichotomy verdicts, 50 witnesses each")


def test_criterion_8_circle_obstruction():
    """Cuts in distinct spectral gaps force mismatch >= 0.1; cuts in the
    same gap agree to 1e-9."""
    rep = circle_obstruction_demo(
        3, [1, 1j, -1], [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 2)])
    assert rep.mismatch >= 0.1 and not rep.same_gap
    rep = circle_obstruction_demo(3, [1, 1j, -1], [np.exp(0.2j), np.exp(0.6j)])
    assert rep.mismatch <= 1e-9 and rep.same_gap
    print("PASS criterion 8: distinct-gap mismatch and same-gap agreement")


def test_criterion_9_lattice_flag_coherence():
    """The induced subspace map of any equivariant canonical map respects
    span-sum and intersection within principal angle 1e-6 on 100
    orthogonally compatible pairs from shared frames at n = 4."""
    rng = np.random.default_rng(9)
    n = 4
    for i in range(100):
        T = random_unitary(n, rng) if i % 2 == 0 else _oblique(n, rng)
        m = Conj(T) if i % 4 < 2 else TransposeConj(T)
        bb = BlackBoxMap(m, DomainSpec(RL, n, MatrixClass.NORMAL))
        F = random_unitary(n, rng)
        while True:
            in_v = rng.random(n) < 0.5
            in_w = rng.random(n) < 0.5
            if in_v.any() and in_w.any():
                break
        V, W = F[:, in_v], F[:, in_w]

        sum_of_images = subspace_sum(subspace_image(bb, V),
                                     subspace_image(bb, W))
        image_of_sum = subspace_image(bb, subspace_sum(V, W))
        assert max_principal_angle(image_of_sum, sum_of_images) <= 1e-6

        inter = subspace_intersection(V, W)
        inter_of_images = subspace_intersection(subspace_image(bb, V),
                                                subspace_image(bb, W))
        if inter.shape[1] == 0:
            assert inter_of_images.shape[1] == 0
        else:
            image_of_inter = subspace_image(bb, inter)
            assert max_principal_angle(image_of_inter,
                                       inter_of_images) <= 1e-6
    print("PASS criterion 9: lattice sum/intersection coherence, 100 pairs")
