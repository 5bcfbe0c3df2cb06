"""Record the output digests that the benchmark's correctness checks use.

    python3 perfbench/record.py

Run from the repository root.  For every workload and benchmark seed
``0 .. SEEDS-1`` (one entry for the seed-independent ``figures`` workload)
it runs one unit serially and stores its digest, plus the kernel
backend, in ``perfbench/digests.json``.  Re-record only after a change
that is meant to alter simulated behaviour, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 32


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.phy import kernels
    from workloads import WORKLOADS

    digests = {}
    for name, wl in WORKLOADS.items():
        seeds = range(SEEDS) if wl.seeded else [None]
        digests[name] = {}
        for seed in seeds:
            state = wl.setup(wl.inputs(0 if seed is None else seed))
            wl.begin(state)
            unit = wl.unit(state, 1)
            digests[name]["*" if seed is None else str(seed)] = wl.recorded_entry(state, unit)
            print(name, seed, unit["digest"][:12], flush=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump({"kernel_backend": kernels.backend(), "digests": digests}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
