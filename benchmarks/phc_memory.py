"""Wall time and peak memory of one `run_phc` call, workers included.

Runs the phc config at PATH with its slot count set to N (its window
clipped to N) into a fresh temporary directory, then prints the wall time
and the peak resident set size of this process (``RUSAGE_SELF``) and of
the largest forked seed-group worker (``RUSAGE_CHILDREN``).  The
benchmark's ``peak_rss_mb`` reads the calling process only.  The seeds
split into one group per usable CPU, as in any run; restrict the CPUs
with ``taskset`` to measure another split.

Usage: python3 benchmarks/phc_memory.py --config PATH --slots N
"""

import argparse
import dataclasses
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from uavcontract import load_config, run_phc  # noqa: E402


def peak_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--slots", type=int, required=True)
    args = parser.parse_args(argv)
    config = load_config(args.config)
    run = dataclasses.replace(config.phc_run, slots=args.slots,
                              window=min(config.phc_run.window, args.slots))
    config = dataclasses.replace(config, phc_run=run)
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        run_phc(config, out)
        wall = time.perf_counter() - start
    print(f"slots {args.slots}")
    print(f"seeds {len(config.seeds)}")
    print(f"usable_cpus {len(os.sched_getaffinity(0))}")
    print(f"wall_s {wall:.3f}")
    print(f"peak_rss_mb_self {peak_rss_mb(resource.RUSAGE_SELF):.1f}")
    print(f"peak_rss_mb_workers {peak_rss_mb(resource.RUSAGE_CHILDREN):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
