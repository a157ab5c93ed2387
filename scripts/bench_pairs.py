#!/usr/bin/env python3
"""Interleaved A/B pairs of the benchmark, recorded as one JSON record.

    python3 scripts/bench_pairs.py --base REV [--change REV] --workload W \\
        --seeds 801-810 [--seconds 25] --tag NAME

Each side is a `git archive` tree of its revision, extracted into a
temporary directory.  For every seed the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from each tree in turn, the base first on even pairs and the change first
on odd ones, and parses the run's last line (the metrics) and its outcome
digest.  It appends one record to BENCH_<tag>.json at the repository root:
the host, both revisions, every pair's metrics and digests, and per metric
the median and quartiles of each side and the number of pairs the change
won.  A record whose pairs disagree on a digest, or in which any op
failed, is marked "no claim".
"""

import argparse
import io
import json
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
HOST_KEYS = ("python", "numpy", "scipy", "numpy_blas", "nproc", "cpus_allowed",
             "blas_threads")


def seeds(spec: str) -> list:
    """'801-810' or '801,805' (or both, comma separated) as a list of ints."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def revision(rev: str) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                              capture_output=True).stdout.strip()
    return {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"),
            "tree": git("rev-parse", f"{rev}^{{tree}}")}


def extract(commit: str, dest: Path) -> Path:
    blob = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)
    return dest


def parse_run(stdout: str) -> dict:
    """The run record, digest and last-line result of one run.py output."""
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    record = next(json.loads(ln[len("record: "):]) for ln in lines
                  if ln.startswith("record: "))
    digest = next(m.group(1) for ln in lines
                  if (m := re.match(r"digest \S+: (\w+) ", ln)))
    return {"metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "digest": digest, "attempted": last["attempted"],
            "failed": last["failed"], "correct": last["correct"],
            "record": record}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed in {tree}: {proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def quartiles(values) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"q1": q1, "median": med, "q3": q3}


def aggregate(pairs: list, better: dict) -> dict:
    """Per metric, each side's median and quartiles and the change's wins;
    and the reasons, if any, that the pairs back no claim."""
    summary = {}
    for name, direction in better.items():
        vals = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(vals["base"], vals["change"]))
        summary[name] = {"better": direction, "wins": wins, "pairs": len(pairs),
                         **{side: quartiles(vals[side]) for side in SIDES}}
    reasons = []
    for p in pairs:
        if p["base"]["digest"] != p["change"]["digest"]:
            reasons.append(f"seed {p['seed']}: digests differ")
        for side in SIDES:
            if p[side]["failed"] or not p[side]["correct"]:
                reasons.append(f"seed {p['seed']}: {side} failed "
                               f"{p[side]['failed']} of {p[side]['attempted']} ops")
    return {"status": "no claim" if reasons else "ok", "reasons": reasons,
            "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seeds)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)

    revs = {"base": revision(args.base), "change": revision(args.change)}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: extract(revs[side]["commit"], Path(tmp) / side) for side in SIDES}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
                print(f"seed {seed} {side}: " + json.dumps(pair[side]["metrics"]),
                      flush=True)
            pairs.append(pair)
    record = pairs[0]["base"]["record"]
    host = {"platform": platform.platform(), **{k: record.get(k) for k in HOST_KEYS}}
    for p in pairs:
        for side in SIDES:
            del p[side]["record"]
    entry = {"tag": args.tag, "workload": args.workload, "seconds": args.seconds,
             "seeds": args.seeds, "host": host, **revs, "pairs": pairs,
             **aggregate(pairs, better)}
    out = ROOT / f"BENCH_{args.tag}.json"
    records = json.loads(out.read_text()) if out.exists() else []
    out.write_text(json.dumps(records + [entry], indent=1) + "\n")
    print(f"{entry['status']}: appended to {out.name}")
    for name, s in entry["summary"].items():
        print(f"  {name}: {s['base']['median']:.6g} -> {s['change']['median']:.6g}, "
              f"won {s['wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
