"""One workload in a fresh interpreter: set-up probe or untraced reference.

    python3 perfbench/child.py WORKLOAD               # set up, print "ready"
    python3 perfbench/child.py WORKLOAD SEED SECONDS  # ... then run untraced

The parent times the first form from spawn to the ``ready`` line: the
set-up cost a user starting the workload pays.  The second form gives
a traced run its untraced reference from a process as fresh as its
own, since campaign memos and code caches live for a whole process;
it prints one JSON line with the pass's wall time and output digest.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]()
    workload.setup()
    print("ready", flush=True)
    if len(sys.argv) > 2:
        outcome = workload.run(int(sys.argv[2]), float(sys.argv[3]))
        fields = ("attempted", "failed", "wall_s", "digest", "mismatches",
                  "figure_s")
        print(json.dumps({k: getattr(outcome, k) for k in fields}))
