"""Record the output digest of every item in the rules-large pool, so that
later runs can check their outputs against it.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are trusted: the file it writes,
bench/reference/rules-large.json, is the reference every later run of the
workload is held to.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import RulesLarge, _digest  # noqa: E402


def main():
    workload = RulesLarge()
    reference = {}
    for (n, k, hook, r), us in zip(workload.SLOTS, workload.pool()):
        for u in us:
            item = (n, k, u, hook, r)
            key = workload.key(item)
            if key in reference:
                continue
            t0 = time.perf_counter()
            text, bad = workload.outputs(item)
            if bad:
                raise SystemExit("t=0 check failed for %s: %s" % (key, bad))
            reference[key] = _digest(text)
            print("%s %s %.3fs" % (key, reference[key],
                                   time.perf_counter() - t0), flush=True)
    os.makedirs(os.path.dirname(workload.REFERENCE), exist_ok=True)
    with open(workload.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
