"""External map programs, X -> X^t, that misbehave at the process boundary.

    python misbehaving_map.py chatty   # also writes 4 KiB to stderr per reply
    python misbehaving_map.py linger   # ignores SIGTERM, stays alive after stdin closes
    python misbehaving_map.py mute     # replies once, closes its stdout, stays alive
    python misbehaving_map.py hang     # replies twice, then sleeps with both pipes open
    python misbehaving_map.py huge     # replies 1e200 * X^t, whose norm overflows

Used by the CLI tests of `check --map-cmd`; imports nothing heavier than json.
"""

import json
import os
import signal
import sys
import time

mode = sys.argv[1]
if mode == "linger":
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
for count, line in enumerate(sys.stdin):
    if mode == "hang" and count == 2:
        time.sleep(600)
    m = json.loads(line)
    m["entries"] = [list(col) for col in zip(*m["entries"])]
    if mode == "huge":
        m["entries"] = [[[1e200 * x for x in e] for e in row] for row in m["entries"]]
    print(json.dumps(m), flush=True)
    if mode == "chatty":
        sys.stderr.write("x" * 4095 + "\n")
        sys.stderr.flush()
    if mode == "mute":
        os.close(1)
        time.sleep(600)
if mode == "linger":
    time.sleep(600)
