"""External map programs that are not preservers, for seeded CLI runs.

    python planted_map.py shift   # X -> X + I: breaks every spectrum
    python planted_map.py flip    # X -> X^t if Re X[0,1] > 0, else X:
                                  # keeps spectra, breaks commutativity

Reads one matrix JSON object per stdin line and writes one reply line;
imports nothing heavier than json and exits when stdin closes.
"""

import json
import sys

mode = sys.argv[1]
for line in sys.stdin:
    m = json.loads(line)
    entries = m["entries"]
    if mode == "shift":
        for i in range(m["n"]):
            entries[i][i][0] += 1.0
    elif entries[0][1][0] > 0:
        m["entries"] = [list(col) for col in zip(*entries)]
    print(json.dumps(m), flush=True)
