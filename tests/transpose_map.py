"""Tiny external map program, X -> X^t, for `curvespec check --map-cmd` tests.

Reads one matrix JSON object per stdin line and writes the transpose as one
line; imports nothing heavier than json and exits when stdin closes.
"""

import json
import sys

for line in sys.stdin:
    m = json.loads(line)
    m["entries"] = [list(col) for col in zip(*m["entries"])]
    print(json.dumps(m), flush=True)
