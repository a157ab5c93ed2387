#!/usr/bin/env python3
"""Round-trip accuracy of the black-box preserver classifier.

Plants random conjugations, transpose conjugations, and ordering maps
behind the black-box interface, classifies each, and tallies label
accuracy, parameter recovery error, and CPU time per instance.
"""

import argparse
import time

import numpy as np

from curvespec.checking import BlackBoxMap, DomainSpec
from curvespec.classify import classify_preserver
from curvespec.curves import real_line
from curvespec.maps import Conj, OrderMap, TransposeConj
from curvespec.spectral import MatrixClass, random_unitary
from curvespec.subspaces import line_distance


def plant(kind, curve, n, rng):
    T = random_unitary(n, rng)
    if rng.random() < 0.5:
        T = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))
    if kind == "conjugation":
        return T, Conj(T)
    if kind == "transpose_conjugation":
        return T, TransposeConj(T)
    return T, OrderMap(curve, T)


def recovery_error(kind, T, pt):
    if kind == "ordering_map":
        return max(line_distance(pt.T[:, j], T[:, j]) for j in range(T.shape[0]))
    Tn = T / T.ravel()[np.argmax(np.abs(T))]
    return float(np.linalg.norm(pt.T - Tn))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--per-class", type=int, default=10)
    ap.add_argument("--orders", default="3,4,5")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    curve = real_line()
    kinds = ("conjugation", "transpose_conjugation", "ordering_map")
    print(f"{'kind':24} {'n':>2} {'correct':>9} {'max recovery':>13} {'cpu s/instance':>15}")
    ok_all = True
    for kind in kinds:
        for n in (int(s) for s in args.orders.split(",")):
            dom = DomainSpec(curve, n, MatrixClass.NORMAL)
            correct, worst, t0 = 0, 0.0, time.process_time()
            for i in range(args.per_class):
                T, m = plant(kind, curve, n, rng)
                pt = classify_preserver(
                    BlackBoxMap(m, dom), np.random.default_rng(args.seed + i)
                )
                if pt.kind == kind:
                    correct += 1
                    worst = max(worst, recovery_error(kind, T, pt))
            per = (time.process_time() - t0) / args.per_class
            print(f"{kind:24} {n:2d} {correct:4d}/{args.per_class:<4d} "
                  f"{worst:13.2e} {per:15.3f}")
            ok_all &= correct == args.per_class
    return 0 if ok_all else 1


if __name__ == "__main__":
    raise SystemExit(main())
