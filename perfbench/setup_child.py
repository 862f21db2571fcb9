"""Set-up timing in a fresh interpreter: ``import mirrorwords`` and the first word.

Usage: python3 setup_child.py ROOT WORKLOAD SEED

Prints one JSON line with the wall-clock seconds of the import and of the
workload's first word. run.py starts this once per set-up sample, one at
a time, and calibrates the result with its own reference slices.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, os.path.join(root, "src"))

import mirrorwords  # noqa: E402

T1 = time.perf_counter()

sys.path.insert(0, os.path.join(root, "perfbench"))
import workloads  # noqa: E402

wl = workloads.WORKLOADS[workload](seed)
first = wl.items[0]
wl.run(first, wl.prepare(first))
T2 = time.perf_counter()

print(json.dumps({"import_s": T1 - T0, "first_word_s": T2 - T1, "module": mirrorwords.__file__}))
