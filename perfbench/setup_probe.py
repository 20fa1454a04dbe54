"""Timed benchmark set-up: import finipost, write the seeded configs, parse them.

Run as a script in a fresh interpreter it prints the seconds taken, so the
import is measured cold each time:

    python3 perfbench/setup_probe.py --workload finite_tv --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def timed_setup(workload: str, seed: int, directory: str) -> tuple[list[tuple[str, str]], float]:
    """Returns the (name, path) config pairs and the seconds set-up took."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import finipost
    from finipost.harness import ExperimentConfig

    if not os.path.abspath(finipost.__file__).startswith(SRC + os.sep):
        raise ImportError(f"finipost imported from {finipost.__file__}, not from {SRC}")
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import workloads

    paths = workloads.write_configs(workload, seed, directory)
    for _, path in paths:
        with open(path, encoding="utf-8") as fh:
            ExperimentConfig.from_dict(json.load(fh))
    return paths, time.perf_counter() - t0


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    print(timed_setup(args.workload, args.seed, args.dir)[1])
