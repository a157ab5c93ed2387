#!/usr/bin/env python3
"""External map program for `curvespec check --map-cmd`: X -> X^t.

Speaks the matrix JSON-lines protocol: one {"n", "entries"} object per
input line, one per output line.  Pure Python with no numpy, so that an
invocation measures the curvespec side of the pipe, not this program's
start-up.  Exits when stdin closes and writes nothing to stderr.
"""

import json
import sys


def main() -> int:
    for line in sys.stdin:
        m = json.loads(line)
        rows = m["entries"]
        out = {"n": m["n"], "entries": [list(col) for col in zip(*rows)]}
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
