"""One cold start of a workload, timed from outside by run.py for setup_s.

Run in a fresh interpreter as ``python3 bench/coldstart.py WORKLOAD SEED
WORKDIR`` with ``src`` on PYTHONPATH.  Imports the program, builds the
workload's inputs from the seed, runs its first job and prints ``ready``.
"""

import sys
from pathlib import Path


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    from workloads import WORKLOADS
    WORKLOADS[workload](seed, workdir).job(0)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
