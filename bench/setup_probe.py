"""Set-up as a user pays it: import the CLI, validate configs, build dissipators.

Run as a fresh interpreter with `src` on PYTHONPATH and the workload's config
paths as arguments. Prints one JSON line: the monotonic clock reading once
set-up is done (the parent subtracts its own reading from before the start),
and the time spent validating configs and building their channels.
"""

import json
import sys
import time

import weaklind.cli  # noqa: F401  (the import is what is measured)
from weaklind.config import build_channel, load_config

load_s = build_s = 0.0
for path in sys.argv[1:]:
    t0 = time.perf_counter()
    cfg = load_config(path)
    t1 = time.perf_counter()
    build_channel(cfg)
    t2 = time.perf_counter()
    load_s += t1 - t0
    build_s += t2 - t1
print(json.dumps({"ready": time.perf_counter(), "load_config_s": load_s,
                  "build_channel_s": build_s}))
