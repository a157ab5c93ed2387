"""The aggregation of scripts/bench_pairs.py, on canned run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"op_tail_ms": "lower", "ops_per_s": "higher"}


def _run(tail, ops, digest="d1", failed=0):
    return {"metrics": {"op_tail_ms": tail, "ops_per_s": ops}, "digest": digest,
            "attempted": 100, "failed": failed, "correct": failed == 0}


def _pairs(base, change, faults=None):
    """Pairs of (op_tail_ms, ops_per_s) runs, seeds from 801; faults maps a
    pair index to keyword arguments of its change run."""
    faults = faults or {}
    return [{"seed": 801 + i, "first": "base" if i % 2 == 0 else "change",
             "base": _run(*b), "change": _run(*c, **faults.get(i, {}))}
            for i, (b, c) in enumerate(zip(base, change))]


def test_medians_quartiles_and_wins():
    base = [(40.0, 40.0), (30.0, 45.0), (50.0, 42.0), (20.0, 50.0), (35.0, 41.0)]
    change = [(18.0, 70.0), (19.0, 71.0), (52.0, 40.0), (17.0, 75.0), (21.0, 72.0)]
    got = bench_pairs.aggregate(_pairs(base, change), BETTER)
    assert got["status"] == "ok" and got["reasons"] == []
    tail = got["summary"]["op_tail_ms"]
    assert tail["better"] == "lower" and tail["pairs"] == 5
    assert tail["base"] == {"q1": 30.0, "median": 35.0, "q3": 40.0}
    assert tail["change"] == {"q1": 18.0, "median": 19.0, "q3": 21.0}
    assert tail["wins"] == 4  # the pair at 50 -> 52 is lost
    ops = got["summary"]["ops_per_s"]
    assert ops["better"] == "higher" and ops["wins"] == 4
    assert ops["base"]["median"] == 42.0 and ops["change"]["median"] == 71.0


def test_quartiles_interpolate_and_a_tie_is_no_win():
    got = bench_pairs.aggregate(
        _pairs([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)],
               [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]), BETTER)
    assert got["summary"]["op_tail_ms"]["base"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert got["summary"]["op_tail_ms"]["wins"] == 0
    assert got["summary"]["ops_per_s"]["wins"] == 0


def test_one_pair_has_its_value_for_every_quartile():
    got = bench_pairs.aggregate(_pairs([(5.0, 2.0)], [(4.0, 3.0)]), BETTER)
    assert got["summary"]["op_tail_ms"]["change"] == {"q1": 4.0, "median": 4.0, "q3": 4.0}
    assert got["summary"]["op_tail_ms"]["wins"] == 1


@pytest.mark.parametrize("fault,reason", [
    ({"digest": "d2"}, "seed 802: digests differ"),
    ({"failed": 3}, "seed 802: change failed 3 of 100 ops"),
])
def test_a_differing_digest_or_a_failed_op_is_no_claim(fault, reason):
    runs = [(10.0, 1.0)] * 3
    got = bench_pairs.aggregate(_pairs(runs, [(5.0, 2.0)] * 3, {1: fault}), BETTER)
    assert got["status"] == "no claim" and got["reasons"] == [reason]
    # the summary is still written, so that the record shows what was seen
    assert got["summary"]["op_tail_ms"]["wins"] == 3


def test_parse_run_reads_the_digest_and_the_last_line():
    last = {"correct": True, "attempted": 174, "failed": 0,
            "metrics": {"cpu_s": {"value": 0.8, "unit": "s"}}}
    out = "\n".join([
        "record: " + json.dumps({"nproc": 2, "python": "3.11.7"}),
        "digest classify_roundtrip: 3e6813ad5a307b77 over 58 ops/pass, "
        "identical in 3 passes",
        "     58 x ['ordering_map']",
        "cpu_s 0.8 s",
        json.dumps(last),
    ])
    got = bench_pairs.parse_run(out)
    assert got["digest"] == "3e6813ad5a307b77"
    assert got["metrics"] == {"cpu_s": 0.8}
    assert (got["attempted"], got["failed"], got["correct"]) == (174, 0, True)
    assert got["record"] == {"nproc": 2, "python": "3.11.7"}


def test_seed_ranges():
    assert bench_pairs.seeds("801-803") == [801, 802, 803]
    assert bench_pairs.seeds("801,805-806") == [801, 805, 806]
