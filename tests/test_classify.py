"""Preserver classification, conjugator reconstruction, obstruction demo."""

import contextlib
import itertools
import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvespec.classify as classify
from curvespec.checking import BlackBoxMap, DomainSpec, ExternalProgramMap
from curvespec.classify import (
    _FRAME_SAMPLES,
    _GAP_BAND,
    _SAMPLE_ATTEMPTS,
    _VALIDATION_SAMPLES,
    EQUIVARIANT,
    FACTORS_THROUGH_QUOTIENT,
    EquivarianceVerdict,
    _first_line_images,
    _holdout_residual,
    _probe_params,
    _probes,
    _recover_fixed_frame,
    _simple_draws,
    _with_swaps,
    circle_obstruction_demo,
    classify_preserver,
    equivariance_test,
    reconstruct_conjugator,
    subspace_image,
)
from curvespec.curves import (
    CircleArc, CornerGraph, Curve, Interval, Line, RealInterval, real_line,
    unit_circle_arc)
from curvespec.errors import (
    ClosedCurveError,
    CoincidentPointsError,
    ConfigError,
    DefectiveMatrixError,
    MapProtocolError,
    MixedWitnessError,
    NumericalDomainError,
    OffCurveError,
    ParameterDomainError,
    ReconstructionError,
)
from curvespec.curves import UnitCircleClosed
from curvespec.maps import Compose, Conj, OrderMap, TransposeConj
from curvespec.spectral import (
    BASIS_COND_LIMIT,
    CLUSTER_RTOL,
    MatrixClass,
    _assemble,
    _batch_eig,
    _decompose_rows,
    _Draw,
    _eigenflags,
    default_window,
    matrix_to_json,
    random_unitary,
    spectral_decompose,
)
from curvespec.subspaces import line_distance
from oracles import (
    certified_simple,
    first_line_image,
    holdout_residual,
    idempotent_swap,
    joined,
    max_principal_angle,
    per_row_eigenflag,
    probe_with_first_line,
    recover_fixed_frame,
    simple_draws,
    subspace_intersection,
    subspace_sum,
    with_swap,
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

    def test_closed_curve_rejected(self):
        with pytest.raises(ClosedCurveError, match="requires a non-closed curve"):
            equivariance_test(BlackBoxMap(lambda X: X, _dom(3, UnitCircleClosed())), 5)

    def test_verdict_validation(self):
        with pytest.raises(ConfigError):
            EquivarianceVerdict("sideways", 3)
        with pytest.raises(ConfigError):
            EquivarianceVerdict(EQUIVARIANT, 0)


# the scalar reference: one witness at a time, each with two map calls and
# two eigenflags; equivariance_test must give the same verdict, or raise the
# same error with the same message, on the same seed


def _simple_sample(bb: BlackBoxMap, rng):
    """Draw a domain sample with n distinct eigenvalues, plus its draw."""
    n = bb.domain.n
    for _ in range(_SAMPLE_ATTEMPTS):
        draw = bb.domain.draw(rng, 1)
        X = _assemble(draw)[0, 0]
        if spectral_decompose(X).num_clusters == n:
            return X, draw
    raise NumericalDomainError("could not draw a simple-spectrum sample")


def _swapped_sample(draw, curve, j):
    """The draw's sample with its j-th and (j+1)-th eigenvalues in curve
    order exchanged, on the same frame."""
    lam = draw.lam[0, 0].copy()
    a, b = curve.order(lam)[[j, j + 1]]
    lam[a], lam[b] = lam[b], lam[a]
    return _assemble(_Draw(lam[None, None], draw.G, draw.S))[0, 0]


def _reference_witness(bb, X, draw, j, tol):
    curve = bb.domain.curve
    FX = bb.apply(X)
    FtX = bb.apply(_swapped_sample(draw, curve, j))
    L = per_row_eigenflag(spectral_decompose(FX), curve)
    Lt = per_row_eigenflag(spectral_decompose(FtX), curve)
    n = L.shape[1]
    if not all(line_distance(L[:, i], Lt[:, i]) <= tol
               for i in range(n) if i not in (j, j + 1)):
        return None
    swapped = (line_distance(L[:, j], Lt[:, j + 1]) <= tol
               and line_distance(L[:, j + 1], Lt[:, j]) <= tol)
    fixed = (line_distance(L[:, j], Lt[:, j]) <= tol
             and line_distance(L[:, j + 1], Lt[:, j + 1]) <= tol)
    if swapped == fixed:
        return None
    return "swap" if swapped else "fix"


def _reference_equivariance(bb, trials, rng, tol=1e-6):
    n = bb.domain.n
    counts = {"swap": 0, "fix": 0}
    for _ in range(trials):
        X, draw = _simple_sample(bb, rng)
        j = int(rng.integers(n - 1))
        w = _reference_witness(bb, X, draw, j, tol)
        if w is None:
            raise MixedWitnessError(
                "witness matched neither the swapped nor the fixed line pattern"
            )
        counts[w] += 1
    if counts["swap"] and counts["fix"]:
        raise MixedWitnessError(
            f"contradictory witnesses: {counts['swap']} swapped, {counts['fix']} fixed"
        )
    return EQUIVARIANT if counts["swap"] else FACTORS_THROUGH_QUOTIENT


def _outcome(run, case, seed, trials=20):
    """(kind, witnesses) of a verdict, or (exception type, message)."""
    n, make_func, *make_rng = case
    rng = make_rng[0](seed) if make_rng else np.random.default_rng(seed)
    try:
        got = run(BlackBoxMap(make_func(), _dom(n)), trials, rng)
    except Exception as exc:
        return type(exc), str(exc)
    return getattr(got, "kind", got), trials


class _Scripted:
    """A plain callable: X -> X, except that the calls numbered in `swap`
    (counting from 0) conjugate by a fixed unitary, from call `order_from`
    on an ordering map answers, call `fail` raises MapProtocolError and
    `output` maps a call number to a fixed reply.  Records every input."""

    def __init__(self, n, swap=(), fail=None, output=None, order_from=None):
        self.U = _unitary(n, 99)
        self.order = OrderMap(real_line(), _oblique(n, 98))
        self.swap, self.fail, self.order_from = set(swap), fail, order_from
        self.output = output or {}
        self.inputs = []

    def __call__(self, X):
        k = len(self.inputs)
        self.inputs.append(X.copy())
        if k == self.fail:
            raise MapProtocolError(f"scripted failure on call {k}")
        if k in self.output:
            return self.output[k]
        if self.order_from is not None and k >= self.order_from:
            return self.order.apply(X)
        if k in self.swap:
            return self.U @ X @ self.U.conj().T
        return X


class _RngDouble:
    """A generator over default_rng(seed) whose uniform draws a subclass
    changes, at a position (at) that it counts.  It is its own bit
    generator, whose state holds the inner state and the position, so that
    a rewind (bit_generator.state = state) restores both."""

    def __init__(self, seed):
        self.inner, self.at, self.bit_generator = np.random.default_rng(seed), 0, self

    def standard_normal(self, *args, **kwargs):
        return self.inner.standard_normal(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.inner.integers(*args, **kwargs)

    @property
    def state(self):
        return {"inner": self.inner.bit_generator.state, "at": self.at}

    @state.setter
    def state(self, state):
        self.inner.bit_generator.state, self.at = state["inner"], state["at"]


class _Drying(_RngDouble):
    """A generator whose uniform draws, from call `dry_from` on (counting
    from 0), repeat their first value: every candidate from the one of draw
    `dry_from` on has one repeated eigenvalue."""

    def __init__(self, seed, dry_from):
        super().__init__(seed)
        self.dry_from = dry_from

    def uniform(self, low, high, size):
        u = self.inner.uniform(low, high, size)
        if self.at >= self.dry_from:
            u[...] = u.flat[0]
        self.at += 1
        return u


_JORDAN = np.diag([1.0, 2.0, 3.0]).astype(complex)
_JORDAN[0, 1] = 1e3  # no decomposition: numerically defective
_JORDAN[1, 1] = 1.0

_ORACLE_CASES = {
    **{
        f"{kind}/{frame}/n={n}": (n, lambda kind=kind, frame=frame, n=n: {
            "conj": Conj, "transpose": TransposeConj,
            "order": lambda T: OrderMap(real_line(), T),
        }[kind]((_unitary if frame == "unitary" else _oblique)(n, 40 + n)))
        for kind in ("conj", "transpose", "order")
        for frame in ("unitary", "oblique")
        for n in (3, 4, 5)
    },
    "order/composed/n=4": (4, lambda: Compose(
        (Conj(_oblique(4, 50)), OrderMap(real_line(), _unitary(4, 51))))),
    "planted X+I/n=3": (3, lambda: (lambda X: X + np.eye(3))),
    "planted X+I/n=5": (5, lambda: (lambda X: X + np.eye(5))),
    "planted 2X/n=3": (3, lambda: (lambda X: 2 * X)),
    "planted 2X/n=4": (4, lambda: (lambda X: 2 * X)),
    "two-faced/n=3": (3, lambda: _two_faced(3)),
    "identity output/n=3": (3, lambda: (lambda X: np.eye(3, dtype=complex))),
    "off the curve/n=3": (3, lambda: (lambda X: X + 1j * np.eye(3))),
    "frame of wrong size/n=3": (3, lambda: Conj(_unitary(4, 7))),
    "fails on call 0": (3, lambda: _Scripted(3, fail=0)),
    "fails on call 5": (3, lambda: _Scripted(3, fail=5)),
    "mixed at trial 1, fails on call 5": (3, lambda: _Scripted(3, (3,), 5)),
    "mixed at trial 3, fails on call 5": (3, lambda: _Scripted(3, (7,), 5)),
    "defective at call 3": (3, lambda: _Scripted(3, output={3: _JORDAN})),
    "defective at call 4, mixed at trial 1": (
        3, lambda: _Scripted(3, (3,), output={4: _JORDAN})),
    "defective at call 6, mixed at trial 4": (
        3, lambda: _Scripted(3, (9,), output={6: _JORDAN})),
    "no simple sample from trial 3": (
        3, lambda: _Scripted(3), lambda seed: _Drying(seed, 3)),
    "no simple sample from trial 3, mixed at trial 1": (
        3, lambda: _Scripted(3, (3,)), lambda seed: _Drying(seed, 3)),
    "contradictory": (3, lambda: _Scripted(3, order_from=24)),
    "contradictory, fails on call 37": (
        3, lambda: _Scripted(3, fail=37, order_from=24)),
}


def _two_faced(n):
    T = _unitary(n, 3)
    conj, order = Conj(T), OrderMap(real_line(), T)
    return lambda X: conj.apply(X) if X[0, 0].real > 0 else order.apply(X)


class TestBatchedEquivarianceOracle:
    @pytest.mark.parametrize("seed", [1, 6])
    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_same_verdict_or_same_error_as_one_trial_at_a_time(self, case, seed):
        want = _outcome(_reference_equivariance, _ORACLE_CASES[case], seed)
        assert _outcome(equivariance_test, _ORACLE_CASES[case], seed) == want

    def test_cases_cover_every_outcome(self):
        got = {c: _outcome(_reference_equivariance, case, 1)
               for c, case in _ORACLE_CASES.items()}
        assert {kind for kind, _ in got.values()} == {
            EQUIVARIANT, FACTORS_THROUGH_QUOTIENT, MixedWitnessError,
            MapProtocolError, ConfigError, NumericalDomainError,
            OffCurveError, DefectiveMatrixError}
        assert got["contradictory"] == (
            MixedWitnessError, "contradictory witnesses: 12 swapped, 8 fixed")
        assert got["no simple sample from trial 3"] == (
            NumericalDomainError, "could not draw a simple-spectrum sample")

    @pytest.mark.parametrize("n", [3, 5])
    def test_map_sees_the_reference_inputs_in_order(self, n):
        ref, new = _Scripted(n), _Scripted(n)
        _reference_equivariance(BlackBoxMap(ref, _dom(n)), 20,
                                np.random.default_rng(4))
        equivariance_test(BlackBoxMap(new, _dom(n)), 20,
                          np.random.default_rng(4))
        assert len(new.inputs) == len(ref.inputs) == 40
        assert all(np.array_equal(a, b) for a, b in zip(new.inputs, ref.inputs))

    def test_rng_stream_is_unchanged(self):
        bb = BlackBoxMap(Conj(_oblique(4, 8)), _dom(4))
        ref, new = np.random.default_rng(2), np.random.default_rng(2)
        _reference_equivariance(bb, 20, ref)
        equivariance_test(bb, 20, new)
        assert ref.bit_generator.state == new.bit_generator.state


def _line_rows(n=3):
    """One row of each kind that the equivariance test's eigenlines meet
    (spectral._batch_eig with vectors): rows that its stacked
    eigensolve serves and rows that the stacked decomposition serves, and
    rows that fail there, on their multiplicities or on their curve order
    (real_line)."""
    U, S = _unitary(n, 70), _oblique(n, 71)
    lam = np.linspace(0.1, 0.9, n)
    rep, off = lam.copy(), lam.astype(complex)
    rep[1] = rep[0]
    off[0] += 0.5j
    jordan = np.diag(lam).astype(complex)
    jordan[0, 1], jordan[1, 1] = 1e3, lam[0]
    return {
        "normal": (U * lam) @ U.conj().T,
        "tiny normal": 1e-9 * (U * lam) @ U.conj().T,
        "skewed": S @ np.diag(lam) @ np.linalg.inv(S),
        "repeated": (U * rep) @ U.conj().T,
        "repeated off the curve": np.diag(rep + 0.5j),
        "off the curve": (U * off) @ U.conj().T,
        "defective": jordan,
        "non-finite": np.full((n, n), np.nan),
    }


_BAD_LINE_ROWS = ("repeated", "repeated off the curve", "off the curve",
                  "defective", "non-finite")


@pytest.mark.parametrize("bad", [*itertools.permutations(_BAD_LINE_ROWS, 2), ()],
                         ids=lambda bad: " then ".join(bad) or "none")
def test_batch_eigenlines_are_eigenflags_and_fail_at_the_first_failing_row(bad):
    rows = _line_rows()
    good = ["normal", "skewed", "tiny normal"]
    names = [*good, *(k for b in bad for k in (b, *good))]
    Xs = np.array([rows[k] for k in names], dtype=complex)
    (_, lines), exc = _batch_eig(Xs, real_line())
    want = None
    for i, X in enumerate(Xs):
        try:
            L = per_row_eigenflag(spectral_decompose(X), real_line())
        except Exception as err:
            want = err
            break
        if i < len(lines):
            # the same lines, up to phase
            overlap = np.abs(np.sum(L.conj() * lines[i], axis=0))
            assert np.allclose(overlap, 1.0, atol=1e-12), names[i]
    assert len(lines) == (i if want is not None else len(Xs))
    assert (type(exc), str(exc)) == (type(want), str(want))


# the swapped sample is assembled from the draw of X; the oracle exchanges
# the two eigenvalues of X across its spectral idempotents instead


_SWAP_CURVES = {
    "real-line": real_line(),
    "arc": unit_circle_arc(0.5),
    "corner": CornerGraph(-1.0, 2.0),
}


class TestSwapFromTheDraw:
    @pytest.mark.parametrize("mclass", list(MatrixClass))
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    @pytest.mark.parametrize("curve", sorted(_SWAP_CURVES))
    def test_swap_is_the_idempotent_swap(self, curve, n, mclass):
        curve = _SWAP_CURVES[curve]
        rng = np.random.default_rng(n)
        draw, _, failure = _simple_draws(DomainSpec(curve, n, mclass), rng, 300)
        assert failure is None
        js = rng.integers(n - 1, size=300)
        Xs, Xts = _assemble(_with_swaps(draw, curve, js))
        assert np.array_equal(Xs, _assemble(draw)[0])
        S = [None] * 300 if draw.S is None else draw.S[:, None]
        want = _assemble(joined([
            with_swap(_Draw(lam[None, None], G[None], s), curve, j)
            for lam, G, s, j in zip(draw.lam[0], draw.G, S, js)]))
        assert np.array_equal(Xts, want[1])
        for X, Xt, j in zip(Xs, Xts, js):
            assert (np.linalg.norm(Xt - idempotent_swap(X, curve, j))
                    <= 1e-11 * np.linalg.norm(X))


# ---------------------------------------------------------------------------
# the draws ahead keep the stream contract of the one-at-a-time loop
# (oracles.simple_draws): the same draws, then() values, error and final
# generator state, for every bit generator and both matrix classes,
# whichever attempt the loop rejects or fails at


_BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                   np.random.Philox, np.random.SFC64)


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _deviation_windows(curve, n):
    """Windows named by the deviation they force: attempts that fail
    certification now and then (about one in ten), a window 3e-6 wide at
    the lower end, where many do, an open lower endpoint that the draws
    hit, in a window so narrow that the attempts run out, a norm that
    overflows at every attempt or now and then, and, on a curve whose
    domain ends open, its endpoint hit."""
    w = default_window(curve)
    lo, hi = w.lower, w.upper
    z = curve.eval_array(np.full(n, lo))
    speed = abs(curve.eval_array([lo + 1e-6])[0] - z[0]) / 1e-6
    gap = CLUSTER_RTOL * max(1.0, float(np.linalg.norm(z))) / speed
    out = {
        "default": w,
        "open": Interval(lo, hi, False, w.upper_closed),
        "narrow": Interval(lo, lo + 8 * n * n * gap),
        "3e-6": Interval(lo, lo + 3e-6),
        "open-hit": Interval(lo, lo + 4 * np.spacing(abs(lo)), lower_closed=False),
    }
    if not curve.domain.upper < np.inf:
        # |z(t)| grows as |z(1)| t, so ||lam||^2 overflows past 1.8e308
        big = 1.34e154 / abs(curve.eval_array([1.0])[0])
        out["overflow-first"] = Interval(1e100 * big, 2e100 * big)
        # ||lam||^2 near 0.9 * 1.8e308 on average
        out["overflow-later"] = Interval(0.0, np.sqrt(2.7 / n) * big)
    elif not curve.domain.upper_closed:
        end = curve.domain.upper
        out["upper-hit"] = Interval(end - 4 * np.spacing(end), end, upper_closed=False)
    return out


class _EndpointHits(_RngDouble):
    """A generator whose uniform draws land on the lower endpoint at every
    13th value, as on an open window they may, rarely; no sample of n <= 13
    has two."""

    def uniform(self, low, high, size):
        u = self.inner.uniform(low, high, size)
        k = np.arange(self.at, self.at + u.size).reshape(u.shape)
        self.at += u.size
        u[k % 13 == 0] = low
        return u


class _Planted(_RngDouble):
    """A generator whose first uniform draws are the given rows."""

    def __init__(self, seed, rows):
        super().__init__(seed)
        self.rows = rows

    def uniform(self, low, high, size):
        u = self.inner.uniform(low, high, size)
        self.at += 1
        return np.reshape(self.rows[self.at - 1], u.shape) if self.at <= len(self.rows) else u


@contextlib.contextmanager
def _draw_work():
    """Mocks of Curve.eval_array and classify._decompose_rows that count
    the rounds of _simple_draws (one curve evaluation each, two at a
    parameter outside the domain) and its stacked decompositions."""
    with mock.patch.object(Curve, "eval_array", autospec=True,
                           side_effect=Curve.eval_array) as evals, \
            mock.patch.object(classify, "_decompose_rows",
                              wraps=_decompose_rows) as decs:
        yield evals, decs


def _stacked(draw):
    """The shape and bytes of each part of a draw."""
    return tuple(None if a is None else (a.shape, a.tobytes()) for a in draw)


def _draw_both(domain, make_rng, seed, count, then):
    """The loop's and the rounds' results on equal generators, and the
    rounds' work: their curve evaluations, and the rows of each stacked
    decomposition."""
    results = []
    for route in ("loop", "rounds"):
        rng = make_rng(seed)
        values = []
        step = (lambda: int(rng.integers(domain.n - 1))) if then else (lambda: None)
        try:
            if route == "loop":
                draws, failure = simple_draws(
                    domain, rng, count, lambda: values.append(step()))
                draw = joined(draws)
            else:
                with _draw_work() as (evals, decs):
                    draw, values, failure = _simple_draws(domain, rng, count, step)
        except Exception as exc:
            draw, failure = None, exc
        results.append((
            draw and _stacked(draw),
            values,
            failure and (type(failure), str(failure)),
            rng.bit_generator.state,
        ))
    return results, (evals.call_count, [len(c.args[0]) for c in decs.call_args_list])


class TestDrawsAhead:
    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS,
                             ids=lambda b: b.__name__)
    def test_stream_contract_of_the_loop(self, bit_generator):
        count, runs = 12, 0
        seen = {}
        for (name, curve), n, mclass in itertools.product(
                sorted(_SWAP_CURVES.items()), (3, 4, 5, 8, 12), MatrixClass):
            for case, window in _deviation_windows(curve, n).items():
                domain = DomainSpec(curve, n, mclass, window)
                for then in (True, False) if case == "default" else (True,):
                    runs += 1
                    (want, got), (rounds, rows) = _draw_both(
                        domain, lambda s: np.random.Generator(bit_generator(s)),
                        runs, count, then)
                    assert got[:3] == want[:3], (name, n, mclass, case)
                    assert _same_state(got[3], want[3]), (name, n, mclass, case)
                    drawn = want[0][0][0][1] if want[0] else 0
                    seen.setdefault(case, []).append(
                        (mclass, rounds, sum(rows), drawn, want[2]))
        # each path was taken: one round, in which every candidate of the
        # semisimple class is decomposed; rounds that a rejected candidate
        # ends mid-call; uncertified candidates decomposed; the attempts
        # running out, one round each; and each error
        assert all(r == 1 and m == count and d == (0 if c is MatrixClass.NORMAL else m)
                   for c, r, d, m, _ in seen["default"] + seen["open"])
        assert any(r > 1 for _, r, _, _, _ in seen["narrow"])
        assert all(m == count and err is None
                   for _, _, _, m, err in seen["narrow"] + seen["3e-6"])
        assert any(d > 0 for _, _, d, _, _ in seen["3e-6"])
        assert all(r == _SAMPLE_ATTEMPTS and m == 0 and err == (
            NumericalDomainError, "could not draw a simple-spectrum sample")
            for _, r, _, m, err in seen["open-hit"])
        assert all(r == 1 and m == 0 and err == (
            NumericalDomainError, "sample spectrum norm overflows")
            for _, r, _, m, err in seen["overflow-first"])
        assert any(0 < m and err is not None for *_, m, err in seen["overflow-later"])
        assert all(err[0] is ParameterDomainError for *_, err in seen["upper-hit"])

    def test_rejected_candidate_rewinds_into_the_planted_rows(self):
        # spectra (on the real line, their own parameters) whose least gap
        # lies s bands (_GAP_BAND) from the merge threshold: those at 0.5,
        # -5 and 0.95 are decomposed, and the one at -5, merged, is
        # rejected, so the first round rewinds there and replays the
        # planted rows before it
        n, gaps = 4, [3.0, 1.05, 0.5, -5.0, 2.0, 0.95, 3.0]
        rows = [_params_with_gap(real_line(), n, 0.3, 0.5, s) for s in gaps]
        assert [certified_simple(t + 0j) for t in rows] == [s > 1 for s in gaps]
        (want, got), work = _draw_both(
            _dom(n), lambda seed: _Planted(seed, rows), 1, len(gaps) - 1, True)
        assert got[:3] == want[:3] and _same_state(got[3], want[3])
        assert work == (2, [3, 1])
        kept = np.array(rows)[[0, 1, 2, 4, 5, 6]] + 0j
        assert got[0][0] == ((1, 6, n), kept.tobytes())

    @pytest.mark.parametrize("mclass", list(MatrixClass))
    def test_attempts_run_out_after_the_kept_draws(self, mclass):
        # draws 0, 1 and 2 are kept in the first round; every candidate of
        # draw 3 has a repeated eigenvalue and is rejected, one round each
        domain = DomainSpec(real_line(), 3, mclass)
        (want, got), (rounds, _) = _draw_both(
            domain, lambda seed: _Drying(seed, 3), 1, 12, True)
        assert got[:3] == want[:3] and _same_state(got[3], want[3])
        assert got[0][0][0] == (1, 3, 3) and rounds == _SAMPLE_ATTEMPTS
        assert got[2] == (NumericalDomainError, "could not draw a simple-spectrum sample")

    @pytest.mark.parametrize("curve", sorted(_SWAP_CURVES))
    def test_open_lower_endpoint_hit_in_certified_draws(self, curve):
        # the hits are moved to the window's midpoint, as _draw_params does
        curve = _SWAP_CURVES[curve]
        w = default_window(curve)
        window = Interval(w.lower, w.upper, False, w.upper_closed)
        for n in (3, 4, 5, 8, 12):
            domain = DomainSpec(curve, n, MatrixClass.NORMAL, window)
            (want, got), work = _draw_both(domain, _EndpointHits, n, 12, True)
            assert work == (1, []) and got[:3] == want[:3]
            assert _same_state(got[3], want[3])
            lam = np.frombuffer(got[0][0][1], complex)
            mid = curve.eval_array([0.5 * (w.lower + w.upper)])[0]
            assert np.count_nonzero(lam == mid) == -(-12 * n // 13)

    def test_rounds_after_a_rejection_stay_short(self):
        # on (-1, -1 + 3e-6) about half of the candidates are rejected; a
        # round of every attempt still needed would decompose about ten
        # times as many candidates as the loop tries
        domain = DomainSpec(real_line(), 4, MatrixClass.NORMAL, Interval(-1.0, -1.0 + 3e-6))
        (want, got), (_, rows) = _draw_both(domain, np.random.default_rng, 1, 60, False)
        assert got[:3] == want[:3] and _same_state(got[3], want[3])
        with _draw_work() as (evals, _):
            simple_draws(domain, np.random.default_rng(1), 60)
        assert sum(rows) < 1.5 * evals.call_count

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_small_spectra_are_decomposed_as_one_stack(self, seed):
        # on (0, 3e-6) about a third of the candidates fail certification;
        # their spectra are small, so the decomposition keeps each of them
        # (merging would move X past the reconstruction tolerance), and the
        # call is one round: one curve evaluation and one decomposition
        domain = DomainSpec(real_line(), 4, MatrixClass.NORMAL, Interval(0.0, 3e-6))
        (want, got), (rounds, rows) = _draw_both(
            domain, np.random.default_rng, seed, 20, True)
        assert got[:3] == want[:3] and _same_state(got[3], want[3])
        assert got[2] is None and rounds == 1 and len(rows) == 1 and rows[0] > 0


# ---------------------------------------------------------------------------
# the cluster count certified from the drawn spectrum


_GAP_CURVES = {
    "real-line": real_line(),
    "arc": unit_circle_arc(0),
    "corner": CornerGraph(-1.0, 2.0),
}


def _params_with_gap(curve, n, t0, u, s):
    """The parameters of n points on the curve whose least gap, between the
    first two, lies s bands (_GAP_BAND) from the merge threshold; t0 and u
    in [0, 1) place the first point and the n - 2 far ones."""
    w = DomainSpec(curve, n, MatrixClass.NORMAL).window
    lo, span = w.lower, w.upper - w.lower
    rest = lo + span * (0.5 + 0.45 * (np.arange(n - 2) + u) / (n - 2))
    t0 = lo + span * (0.05 + 0.4 * t0)
    dt = CLUSTER_RTOL
    for _ in range(3):
        lam = curve.eval_array(np.array([t0, t0 + dt, *rest]))
        scale = max(1.0, float(np.linalg.norm(lam)))
        dt *= (CLUSTER_RTOL + s * _GAP_BAND) * scale / abs(lam[1] - lam[0])
    return np.array([t0, t0 + dt, *rest])


class _Fixed(_RngDouble):
    """A generator whose every candidate is the same one: each uniform draw
    is the parameters t and puts the inner generator back to its seed,
    whose normal draws give the Ginibre halves and the skew frame."""

    def __init__(self, seed, t):
        super().__init__(seed)
        self.t, self.seeded = t, self.inner.bit_generator.state

    def uniform(self, low, high, size):
        self.inner.bit_generator.state = self.seeded
        return np.reshape(self.t, size).copy()


def _fixed_outcomes(domain, t, seed):
    """Today's test of the fixed candidate (n clusters, too few, or the
    decomposition's error), what _simple_draws makes of it (the candidate
    kept, False when the attempts run out, or the error), and the rows of
    each stacked decomposition that _simple_draws runs."""
    draw = domain.draw(_Fixed(seed, t), 1)
    try:
        want = spectral_decompose(_assemble(draw)[0, 0]).num_clusters == domain.n
    except Exception as exc:
        want = type(exc), str(exc)
    with _draw_work() as (_, decs):
        try:
            got = _stacked(_simple_draws(domain, _Fixed(seed, t), 1)[0]) == _stacked(draw)
        except Exception as exc:
            got = type(exc), str(exc)
            if got == (NumericalDomainError, "could not draw a simple-spectrum sample"):
                got = False
    return want, got, [len(c.args[0]) for c in decs.call_args_list]


class TestCertifiedClusterCount:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        curve=st.sampled_from(sorted(_GAP_CURVES)),
        n=st.integers(3, 6),
        t0=st.floats(0.0, 1.0, exclude_max=True),
        u=st.floats(0.0, 1.0, exclude_max=True),
        s=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spectrum_rule_agrees_with_the_decomposition(self, curve, n, t0, u, s, seed):
        curve = _GAP_CURVES[curve]
        t = _params_with_gap(curve, n, t0, u, s)
        domain = DomainSpec(curve, n, MatrixClass.NORMAL)
        want, got, rows = _fixed_outcomes(domain, t, seed)
        certified = certified_simple(curve.eval_array(t))
        if s >= 1.05:
            assert certified and want is True
        elif s <= 0.95:
            assert not certified
        # a candidate the spectrum does not certify is decomposed, once a round
        assert got == want
        if certified:
            assert rows == []
        else:
            assert rows == [1] * (_SAMPLE_ATTEMPTS if want is False else 1)

    def test_semisimple_candidates_are_always_decomposed(self):
        # S X S^-1 may have ||X|| well above ||lam||, and so a merge
        # threshold above a gap that clears the spectrum's own
        exposed = 0
        for curve in _GAP_CURVES.values():
            for n in range(3, 7):
                t = _params_with_gap(curve, n, 0.3, 0.5, 2.0)
                assert certified_simple(curve.eval_array(t))
                domain = DomainSpec(curve, n, MatrixClass.SEMISIMPLE)
                for seed in range(5):
                    want, got, rows = _fixed_outcomes(domain, t, seed)
                    exposed += want is not True
                    assert got == want
                    assert rows == [1] * (_SAMPLE_ATTEMPTS if want is False else 1)
        assert exposed


# ---------------------------------------------------------------------------
# the holdout, the probes and the frame cross the map boundary as one stack
# each; the references map one matrix at a time and read its output at once


def _reference_holdout(bb, rng, model):
    residual = 0.0
    for X in bb.domain.sample(rng, _VALIDATION_SAMPLES)[0][0]:
        residual = max(
            residual, np.linalg.norm(bb.apply(X) - model(X)) / np.linalg.norm(X)
        )
    return float(residual)


def _reference_reconstruct(bb, rng):
    n = bb.domain.n
    values = bb.domain.curve.eval_array(
        _probe_params(bb.domain.window, n))
    eye = np.eye(n, dtype=complex)

    def line(u):
        return first_line_image(
            spectral_decompose(bb.apply(probe_with_first_line(u, values))), values)

    cols = [line(eye[:, i]) for i in range(n)]
    T = np.empty((n, n), dtype=complex)
    T[:, 0] = cols[0]
    for j in range(1, n):
        w = line((eye[:, 0] + eye[:, j]) / np.sqrt(2))
        coeffs, *_ = np.linalg.lstsq(
            np.column_stack([cols[0], cols[j]]), w, rcond=None)
        alpha, beta = coeffs
        if abs(alpha) < 1e-12 or abs(beta) < 1e-12:
            raise ReconstructionError("scale probe did not mix both columns")
        T[:, j] = (beta / alpha) * cols[j]
    w = line((eye[:, 0] + 1j * eye[:, 1]) / np.sqrt(2))
    d_lin = line_distance(w, T @ (eye[:, 0] + 1j * eye[:, 1]))
    d_anti = line_distance(w, T @ (eye[:, 0] - 1j * eye[:, 1]))
    antilinear = d_anti < d_lin
    T /= T.ravel()[int(np.argmax(np.abs(T)))]
    if not np.linalg.cond(T) <= BASIS_COND_LIMIT:
        raise ReconstructionError("reconstructed conjugator is near singular")
    Tinv = np.linalg.inv(T)
    residual = _reference_holdout(
        bb, rng, lambda X: T @ (X.T if antilinear else X) @ Tinv)
    if residual > 1e-6:
        raise ReconstructionError(
            f"conjugator validation residual {residual:.3e} exceeds 1e-06")
    return T, antilinear, residual


def _reference_frame(bb, rng):
    curve = bb.domain.curve
    frame = None
    for _ in range(_FRAME_SAMPLES):
        X, _ = _simple_sample(bb, rng)
        F = per_row_eigenflag(spectral_decompose(bb.apply(X)), curve)
        if frame is None:
            frame = F.copy()
            ref = F
        else:
            for j in range(F.shape[1]):
                c = ref[:, j].conj() @ F[:, j]
                if abs(c) < 1e-12:
                    raise ReconstructionError("output frames do not share columns")
                F[:, j] *= c.conjugate() / abs(c)
            frame += F
    frame /= np.linalg.norm(frame, axis=0, keepdims=True)
    return frame


# stage: (batched, reference, scripted map that the stage succeeds on)
_STAGES = {
    "holdout": (lambda bb, rng: _holdout_residual(bb, rng, lambda Xs: Xs),
                lambda bb, rng: _reference_holdout(bb, rng, lambda X: X),
                {}),
    "probes": (reconstruct_conjugator, _reference_reconstruct, {}),
    "frame": (_recover_fixed_frame, _reference_frame, {"order_from": 0}),
}

# stage: scripted failures, as keyword arguments of _Scripted
_STAGE_FAILURES = {
    "holdout": [{"fail": 0}, {"fail": 17}, {"fail": 49},
                {"fail": 10, "output": {3: np.eye(4)}},
                {"fail": 3, "output": {10: np.eye(4)}}],
    "probes": [{"fail": 0}, {"fail": 2}, {"fail": 5},
               {"fail": 4, "output": {2: _JORDAN}},
               {"fail": 2, "output": {4: _JORDAN}}],
    "frame": [{"fail": 0}, {"fail": 7}, {"fail": 19},
              {"fail": 7, "output": {3: _JORDAN}},
              {"fail": 4, "output": {9: _JORDAN}}],
}


def _stage_outcome(run, func, seed=3):
    """The bytes of a stage's result, or (exception type, message)."""
    try:
        got = run(BlackBoxMap(func, _dom()), np.random.default_rng(seed))
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        return tuple(np.asarray(x).tobytes() for x in got)
    return np.asarray(got).tobytes()


class _Transposing:
    """X -> X^t, recording every input."""

    def __init__(self):
        self.inputs = []

    def __call__(self, X):
        self.inputs.append(X.copy())
        return X.T


_TEE = """
import json, sys
with open(sys.argv[1], "a") as log:
    for line in sys.stdin:
        log.write(line)
        log.flush()
        m = json.loads(line)
        m["entries"] = [list(col) for col in zip(*m["entries"])]
        print(json.dumps(m), flush=True)
"""


class TestStageBatchBoundary:
    @pytest.mark.parametrize("stage,case", [
        (stage, i) for stage, cases in _STAGE_FAILURES.items()
        for i in range(len(cases))])
    def test_failure_at_row_k_is_the_one_at_a_time_failure(self, stage, case):
        new, ref, base = _STAGES[stage]
        script = {**base, **_STAGE_FAILURES[stage][case]}
        want = _stage_outcome(ref, _Scripted(3, **script))
        assert isinstance(want[0], type) and issubclass(want[0], Exception)
        assert _stage_outcome(new, _Scripted(3, **script)) == want

    @pytest.mark.parametrize("stage", sorted(_STAGES))
    def test_counting_callable_sees_each_row_once_in_order(self, stage):
        new, ref, base = _STAGES[stage]
        a, b = _Scripted(3, **base), _Scripted(3, **base)
        want = _stage_outcome(ref, a)
        assert _stage_outcome(new, b) == want and isinstance(want, (bytes, tuple))
        assert len(b.inputs) == len(a.inputs) > 0
        assert all(x.tobytes() == y.tobytes() for x, y in zip(b.inputs, a.inputs))

    @pytest.mark.parametrize("stage", sorted(_STAGES))
    def test_program_receives_the_reference_rows(self, stage, tmp_path):
        new, ref, _ = _STAGES[stage]
        oracle = _Transposing()
        want = _stage_outcome(ref, oracle)
        tee = tmp_path / "requests.jsonl"
        with ExternalProgramMap([sys.executable, "-c", _TEE, str(tee)]) as ext:
            assert _stage_outcome(new, ext) == want
        assert tee.read_text() == "".join(
            json.dumps(matrix_to_json(X)) + "\n" for X in oracle.inputs)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("case", [
        "conj/unitary", "conj/oblique", "transpose/oblique", "order/unitary",
        "order/oblique", "planted X+I"])
    def test_holdout_residual_is_the_per_row_residual(self, case, seed):
        kind, _, frame = case.partition("/")
        T = _unitary(4, 60) if frame == "unitary" else _oblique(4, 61)
        Tinv = np.linalg.inv(T)
        if kind == "order":
            m = OrderMap(real_line(), T)
            func, batch, one = m, m.apply_batch, m.apply
        else:
            func = {"conj": Conj(T), "transpose": TransposeConj(T),
                    "planted X+I": lambda X: X + np.eye(4)}[kind]
            T = np.eye(4) if kind == "planted X+I" else T
            Tinv = np.linalg.inv(T)
            if kind == "transpose":
                def batch(Xs):
                    return T @ Xs.transpose(0, 2, 1) @ Tinv

                def one(X):
                    return T @ X.T @ Tinv
            else:
                def batch(Xs):
                    return T @ Xs @ Tinv

                def one(X):
                    return T @ X @ Tinv
        bb = BlackBoxMap(func, _dom(4))
        got = _holdout_residual(bb, np.random.default_rng(seed), batch)
        want = _reference_holdout(bb, np.random.default_rng(seed), one)
        assert got == want
        assert (want > 0.1) if kind == "planted X+I" else (want < 1e-9)


# ---------------------------------------------------------------------------
# each stage's numerics run once over its stack; the per-row routes they
# replaced (tests/oracles.py, verbatim) are their bit-for-bit references,
# rows, errors and the first failing row alike


def _rows_outcome(per_row, count):
    """The bytes of per_row(0), per_row(1), ... up to count rows or up to
    the first error, and that error as (type, message), or None."""
    out = []
    for i in range(count):
        try:
            out.append(np.asarray(per_row(i)).tobytes())
        except Exception as exc:
            return out, (type(exc), str(exc))
    return out, None


def _stacked_outcome(rows, exc):
    return [r.tobytes() for r in rows], None if exc is None else (type(exc), str(exc))


_FLAG_ROWS = ("repeated", "off the curve", "repeated off the curve")
_NOT_SIMPLE = np.diag([-0.5, -0.5, 0.5]).astype(complex)


class TestStackedNumericsAreThePerRowOnes:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    @pytest.mark.parametrize("bad", [(), *itertools.permutations(_FLAG_ROWS, 2)],
                             ids=lambda bad: " then ".join(bad) or "none")
    def test_eigenflags_fail_at_the_first_failing_row(self, bad, n):
        rows = _line_rows(n)
        good = ["normal", "skewed", "tiny normal"]
        names = [*good, *(k for b in bad for k in (b, *good))]
        decs, exc = _decompose_rows(np.array([rows[k] for k in names]))
        assert exc is None
        want = _rows_outcome(
            lambda i: per_row_eigenflag(decs.row(i), real_line()), len(names))
        assert _stacked_outcome(*_eigenflags(decs, real_line())) == want
        assert want[1] is None if not bad else want[1][0] is not None

    @pytest.mark.parametrize("first", ["normal", "repeated"])
    def test_eigenflags_refuse_a_closed_curve_after_the_multiplicities(self, first):
        rows = _line_rows()
        decs, _ = _decompose_rows(np.array([rows[first], rows["normal"]]))
        want = _rows_outcome(
            lambda i: per_row_eigenflag(decs.row(i), UnitCircleClosed()), 2)
        assert _stacked_outcome(*_eigenflags(decs, UnitCircleClosed())) == want
        assert want[0] == []

    @pytest.mark.parametrize("case", [
        {"output": {3: np.diag([0.5, 0.5, 0.2])}},
        {"output": {3: np.diag([0.5, 0.5, 0.2])}, "fail": 7},
        {"output": {7: np.diag([0.5, 0.5, 0.2])}, "fail": 3},
        {"output": {5: np.diag([0.1, 0.2 + 0.5j, 0.3]), 9: np.diag([0.5, 0.5, 0.2])}},
        {"output": {0: np.diag([0.1, 0.2, 0.3]), 4: np.diag([0.2, 0.1, 0.3]),
                    6: np.diag([0.5, 0.5, 0.2])}},
        {"output": {19: np.diag([0.5, 0.5, 0.2])}},
    ])
    def test_frame_is_the_per_row_loop_with_a_repeated_output(self, case):
        # a planted map whose k-th frame output has a repeated eigenvalue,
        # or is off the curve, or shares no line with the first one
        want = _stage_outcome(recover_fixed_frame, _Scripted(3, order_from=0, **case))
        assert isinstance(want[0], type)
        got = _stage_outcome(_recover_fixed_frame, _Scripted(3, order_from=0, **case))
        assert got == want

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_frame_is_the_per_row_loop_bit_for_bit(self, n, seed):
        m = OrderMap(real_line(), _oblique(n, 62))
        args = (BlackBoxMap(m, _dom(n)), np.random.default_rng(seed))
        want = recover_fixed_frame(*args[:1], np.random.default_rng(seed))
        assert _recover_fixed_frame(*args).tobytes() == want.tobytes()

    @pytest.mark.parametrize("curve", sorted(_SWAP_CURVES))
    @pytest.mark.parametrize("n", range(2, 13))
    def test_probes_are_the_per_row_probes(self, n, curve):
        curve = _SWAP_CURVES[curve]
        values = curve.eval_array(_probe_params(DomainSpec(
            curve, n, MatrixClass.NORMAL).window, n))
        eye = np.eye(n, dtype=complex)
        rng = np.random.default_rng(n)
        lines = np.array([
            *eye.T, *((eye[:, 0] + eye[:, j]) / np.sqrt(2) for j in range(1, n)),
            (eye[:, 0] + 1j * eye[:, 1]) / np.sqrt(2),
            *(rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))])
        want = np.array([probe_with_first_line(u, values) for u in lines])
        assert _probes(lines, values).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    @pytest.mark.parametrize("at", [None, 0, 2, 3])
    def test_first_line_images_fail_at_the_first_not_simple_image(self, at, n):
        # probe images of an oblique conjugation, one of them with a
        # repeated eigenvalue nearest values[0], and one clustered away
        # from values[0], which has a first line
        values = np.linspace(0.1, 0.9, n)
        eye = np.eye(n, dtype=complex)
        lines = np.array([*eye.T, *((eye[:, 0] + eye[:, j]) / np.sqrt(2)
                                    for j in range(1, n))])
        images = Conj(_oblique(n, 63)).apply_batch(_probes(lines, values))
        far = values.copy()
        far[-1] = far[-2]
        images[1] = np.diag(far)
        if at is not None:
            near = values.copy()
            near[1] = near[0]
            images[at] = np.diag(near)
            images[-1] = np.diag(near[::-1])
        decs, exc = _decompose_rows(images)
        assert exc is None
        want = _rows_outcome(lambda i: first_line_image(decs.row(i), values),
                             len(images))
        assert _stacked_outcome(*_first_line_images(decs, values)) == want
        assert len(want[0]) == (len(images) if at is None else at)

    @pytest.mark.parametrize("case", [
        {"fail": 0}, {"fail": 17}, {"fail": 49}, {"fail": 4, "output": {2: _JORDAN}},
        {"fail": 2, "output": {4: _JORDAN}},
        # a probe image whose eigenvalue nearest values[0] = -0.5 is not simple
        {"output": {3: _NOT_SIMPLE}}, {"output": {1: _NOT_SIMPLE}, "fail": 4},
        {"output": {4: _NOT_SIMPLE, 2: _JORDAN}},
        {"output": {4: _NOT_SIMPLE}, "fail": 5}])
    def test_reconstruction_is_the_per_row_one(self, case):
        want = _stage_outcome(_reference_reconstruct, _Scripted(3, **case))
        assert _stage_outcome(reconstruct_conjugator, _Scripted(3, **case)) == want

    @pytest.mark.parametrize("case", [
        "conj", "order", "planted X+I", "fails at row 17", "model fails at row 5"])
    def test_holdout_is_the_per_row_loop_bit_for_bit(self, case):
        # a map that raises partway, and a model that raises partway: an
        # ordering map along [-1, 0.8], which the spectra of sample 5 leave
        T = _oblique(3, 64)
        model = Conj(T).apply_batch
        if case == "order":
            model = OrderMap(real_line(), T).apply_batch
        if case == "model fails at row 5":
            model = OrderMap(RealInterval(interval=Interval(-1.0, 0.8)), T).apply_batch

        def outcome(holdout):
            func = {"conj": Conj(T), "order": OrderMap(real_line(), T),
                    "planted X+I": lambda X: X + np.eye(3),
                    "fails at row 17": _Scripted(3, fail=17),
                    "model fails at row 5": Conj(T)}[case]
            try:
                got = holdout(BlackBoxMap(func, _dom()), np.random.default_rng(3), model)
            except Exception as exc:
                return type(exc), str(exc)
            return np.float64(got).tobytes()

        want = outcome(holdout_residual)
        assert outcome(_holdout_residual) == want
        if case.startswith(("fails", "model")):
            assert isinstance(want[0], type)

    def test_swaps_raise_the_first_off_curve_draw(self):
        # the later draw lies farther off the curve: the error of a stack
        # would name its point, one draw at a time names the first draw's
        dom = _dom(4)
        rng = np.random.default_rng(8)
        draws = [dom.draw(rng, 1) for _ in range(6)]
        draws[2].lam[0, 0, 1] += 1e-3j
        draws[4].lam[0, 0, 3] += 1.0j
        js = np.array([0, 1, 2, 0, 1, 2])
        with pytest.raises(OffCurveError) as want:
            for d, j in zip(draws, js):
                with_swap(d, real_line(), j)
        with pytest.raises(OffCurveError) as got:
            _with_swaps(joined(draws), real_line(), js)
        assert str(got.value) == str(want.value)
        assert "distance 1.000e-03" in str(got.value)


# LAPACK calls made through np.linalg, curve orders and curve evaluations
# of one fixed-seed round trip per label: each stage's numerics are one
# stacked call, so the counts do not grow with the trials, the probes or
# the samples.  The per-row stages (tests/oracles.py) made, in the order
# below, conjugation 9, 10, 1, 0, 1 and 21; transpose conjugation 11, 10,
# 3, 0, 3 and 21; ordering map 23, 3, 3, 4, 3 and 45.  Each drawing stage
# (the trials, the frame samples, the holdout) evaluates its spectra once,
# and the probes their values once; one draw at a time made 22, 22 and 41
_WORK = {
    "conjugation": {"svd": 2, "qr": 3, "eig": 1, "eigvals": 0, "inv": 1,
                    "order": 2, "eval_array": 3},
    "transpose_conjugation": {"svd": 4, "qr": 3, "eig": 3, "eigvals": 0, "inv": 3,
                              "order": 2, "eval_array": 3},
    "ordering_map": {"svd": 4, "qr": 3, "eig": 3, "eigvals": 4, "inv": 3,
                     "order": 7, "eval_array": 3},
}


@pytest.mark.parametrize("label", list(_WORK))
def test_round_trip_makes_one_stacked_call_per_stage(label):
    n = 4
    U, S = _unitary(n, 70), _oblique(n, 71)
    m = {"conjugation": Conj(U), "transpose_conjugation": TransposeConj(S),
         "ordering_map": OrderMap(real_line(), S)}[label]
    calls = {}
    with contextlib.ExitStack() as stack:
        for name in ("svd", "qr", "eig", "eigvals", "inv"):
            calls[name] = stack.enter_context(mock.patch.object(
                np.linalg, name, wraps=getattr(np.linalg, name)))
        for name in ("order", "eval_array"):
            calls[name] = stack.enter_context(mock.patch.object(
                Curve, name, autospec=True, side_effect=getattr(Curve, name)))
        pt = classify_preserver(BlackBoxMap(m, _dom(n)), np.random.default_rng(5))
    assert pt.kind == label
    assert {name: c.call_count for name, c in calls.items()} == _WORK[label]


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

    @pytest.mark.parametrize("seed", range(5))
    def test_ordering_maps_with_frames_sharing_no_column_are_unknown(self, seed):
        # the frame is I or a cyclic permutation of it, by the sign of the trace
        eye = np.eye(3)
        maps = OrderMap(real_line(), eye), OrderMap(real_line(), eye[:, [1, 2, 0]])
        pt = classify_preserver(
            BlackBoxMap(lambda X: maps[int(np.trace(X).real < 0)].apply(X), _dom()),
            np.random.default_rng(seed))
        assert pt.kind == "unknown" and pt.T is None
        assert pt.reason == "output frames do not share columns"

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

    @staticmethod
    def _off_by_a_shift(m):
        """m plus 1e-3 * ||X|| * I: the eigenlines are m's, the values are not."""
        return lambda X: m.apply(X) + 1e-3 * np.linalg.norm(X) * np.eye(X.shape[0])

    def test_conjugator_holdout_failure_is_unknown(self):
        f = self._off_by_a_shift(Conj(_unitary(3, 24)))
        pt = classify_preserver(BlackBoxMap(f, _dom()), np.random.default_rng(5))
        assert pt.kind == "unknown" and pt.T is None
        assert pt.reason.startswith("conjugator validation residual ")
        assert pt.reason.endswith(" exceeds 1e-06")
        assert pt.residual == float("inf")

    def test_ordering_map_holdout_failure_is_unknown(self):
        f = self._off_by_a_shift(OrderMap(real_line(), _unitary(3, 25)))
        pt = classify_preserver(BlackBoxMap(f, _dom()), np.random.default_rng(5))
        assert pt.kind == "unknown" and pt.T is None
        assert pt.reason == f"ordering-map validation residual {pt.residual:.3e}"
        assert 1e-6 < pt.residual < np.inf

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

    # spectra of norm about 1e8, whose roundoff exceeds the curves' absolute
    # tolerance 1e-9: the trials order each drawn spectrum at its own scale,
    # as the maps order their outputs at ||FX||
    @pytest.mark.parametrize("curve,window", [
        (Line(0.5 - 0.25j, 0.7 + 0.3j), Interval(1e8, 2e8)),
        (CircleArc(radius=1e8, angles=Interval(0.0, 3.0)), None),
    ], ids=["line", "arc"])
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_large_spectra_are_labelled(self, curve, window, seed):
        T = np.array([[1, 1, 0], [0, 1, 1j], [0.5, 0, 1]])
        dom = DomainSpec(curve, 3, MatrixClass.NORMAL, window)
        for m, kind in ((OrderMap(curve, T), "ordering_map"), (Conj(T), "conjugation")):
            pt = classify_preserver(BlackBoxMap(m, dom), np.random.default_rng(seed))
            assert (pt.kind, pt.reason) == (kind, None)
            assert pt.residual <= 1e-6

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
