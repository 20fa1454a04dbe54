"""Record the report digests of the current code for a range of seeds.

    python3 perfbench/reference.py --seeds 0-31

Runs one untraced pass of every workload per seed and writes the sha256 of
each config's CSV report to ``reference.json``, which ``run.py`` compares
against.  A config whose report fails the output checks is not recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from setup_probe import timed_setup  # noqa: E402

WORK = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench", f"reference-{os.getpid()}")


def digests(workload: str, seed: int) -> dict[str, str]:
    cfg_dir = os.path.join(WORK, f"{workload}-{seed}")
    paths, _ = timed_setup(workload, seed, cfg_dir)
    import finipost.cli as cli

    cfgs = {name: cfg for _, name, cfg in workloads.configs(workload, seed)}
    out = {}
    for name, path in paths:
        report = os.path.join(cfg_dir, f"{name}.csv")
        code = cli.main(["run", "--config", path, "--out", report])
        if checks.check_report(cfgs[name], code, report)["problems"]:
            print(f"{workload} seed {seed} {name}: fails its checks, not recorded", file=sys.stderr)
            continue
        with open(report, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    data = {w: {str(seed): {} for seed in range(lo, hi + 1)} for w in sorted(workloads.WORKLOADS)}
    try:
        for workload in data:
            for seed in range(lo, hi + 1):
                data[workload][str(seed)] = digests(workload, seed)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
