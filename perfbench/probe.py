"""Time one set-up of a workload in a fresh process; print the seconds.

    python3 perfbench/probe.py <workload> <seed> <workdir>

The clock starts before numpy and the package are imported, so the figure
covers import, config loading, basis enumeration, the ground state and the
substitution table.  run.py starts this with the thread counts pinned.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, workdir = argv
    workloads.setup(name, workdir, int(seed))
    print(perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
