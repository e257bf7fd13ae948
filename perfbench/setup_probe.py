"""One benchmark set-up in a fresh interpreter: import eqcheck and parse
every game and spec of a workload's corpus.  Prints the seconds it took and
the median seconds of `run.reference()` right after, in the same process.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    corp = corpus.build(workload, seed)
    start = time.perf_counter()
    queries.import_eqcheck()
    queries.prepare(corp)
    seconds = time.perf_counter() - start
    print(seconds, sorted(run.reference() for _ in range(5))[2])


if __name__ == "__main__":
    main()
