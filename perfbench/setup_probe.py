"""Print the seconds taken to import fairchores and load one instance set.

Usage: python3 setup_probe.py <src-dir> <instance-set.json>

Runs in a fresh interpreter so the import is paid in full; the clock starts
after interpreter start-up, which varies too much between processes to gate.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fairchores.serialize import instance_from_dict, load_json  # noqa: E402

instances = [instance_from_dict(data) for data in load_json(sys.argv[2])]
print(time.perf_counter() - start)
