#!/usr/bin/env python3
"""Sweep the skew-involution continuity experiment across curve shapes.

For each curve the experiment runs the scalar regularity probes at the
chosen center and drives the matrix collision paths toward it, then
reports whether the discontinuity flags agree with the divergence
verdict.  The corner rows are the interesting ones: the flag should
appear there and nowhere else.
"""

import argparse
import json
import sys

import numpy as np

from curvespec.curves import CornerGraph, real_line, unit_circle_arc
from curvespec.regularity import rho_continuity_experiment


def build_cases(corner_slopes):
    a, b = corner_slopes
    return [
        ("real line", real_line(), 0.0),
        ("circle arc", unit_circle_arc(0.0), 2.0),
        (f"corner graph ({a:g},{b:g})", CornerGraph(a, b), 0.0),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="matrix order")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--slopes", default="-1,1",
                    help="corner slopes a,b (default -1,1)")
    ap.add_argument("--json", action="store_true",
                    help="emit full reports as JSON lines")
    args = ap.parse_args(argv)

    a, b = (float(s) for s in args.slopes.split(","))
    header = f"{'curve':24} {'db':10} {'slope':>7} {'dc':10} {'flags':20} concordant"
    print(header)
    print("-" * len(header))
    bad = 0
    for name, curve, param in build_cases((a, b)):
        rep = rho_continuity_experiment(
            curve, args.n, param, rng=np.random.default_rng(args.seed)
        )
        flagged = [s for s, t in rep.path_tables.items() if t.flag] or ["none"]
        print(
            f"{name:24} {rep.db.verdict_db:10} {rep.db.slope:7.3f} "
            f"{rep.dc.verdict_dc:10} {','.join(flagged):20} {rep.concordant}"
        )
        if args.json:
            json.dump(rep.to_json(), sys.stdout, sort_keys=True)
            print()
        bad += not rep.concordant
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
