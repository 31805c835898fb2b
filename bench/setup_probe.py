"""Time one set-up of a workload in a fresh interpreter and print it.

Set-up is the import of rhofix (with numpy and yaml), generation of the
problem files from the workload seed, and one warm-up command. The time
printed is scaled to the reference CPU speed (see refmath), measured
right after. `run.py` starts this once per pass and reports the median
as `setup_s`.

    python3 bench/setup_probe.py <workload> <seed> <work dir> <tiny 0|1>
"""

import statistics
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    import refmath
    import workloads

    name, seed, work, tiny = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4] == "1"
    workloads.set_up(name, Path.cwd(), seed, work, tiny)
    elapsed = time.perf_counter() - t0
    ref = statistics.median(refmath.reference_seconds() for _ in range(3))
    print(repr(elapsed * refmath.REFERENCE_NOMINAL_S / ref))


if __name__ == "__main__":
    main()
