"""finipost benchmark: seeded `finipost run` workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload finite_tv --seed 1 --seconds 55 --trace 0

Run from the repository root.  The benchmark writes each workload's seeded
configs (``workloads.py``) and drives ``finipost.cli.main(["run", "--config",
..., "--out", ...])`` in this process, one pass over all of the workload's
configs at a time, with ``threads=1``.  Every report is checked
(``checks.py``) and its sha256 compared with the reference digests of the
same seed in ``reference.json``; a digest change is printed, not failed.

--trace 0 repeats passes for --seconds and reports the end-to-end metrics:
  wall_s       median seconds of one pass: its ``cli.main`` calls, each
               timed until its report is written
  setup_s      median seconds of cold set-ups (import finipost, write and
               parse the configs), each in a fresh interpreter
  peak_rss_mb  peak resident memory of this process
--trace 1 reports the per-layer metrics: untraced passes, then one pass
with spans around the public calls of each module (``tracing.py``), one
pass with ``threads=2``, and the scaling probes (``probes.py``).

Human-readable lines come first; the last stdout line is the JSON result.
Scratch files go under ``.bench_build/perfbench`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from setup_probe import SRC, timed_setup  # noqa: E402

WORK = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
SETUP_SAMPLES = 5
# Time kept for the traced pass and the threads=2 pass of a traced run, in
# untraced passes; they and the scaling probes may run past --seconds by
# about one pass, so that a slow workload still gets two untraced passes.
TRACED_RUN_RESERVE = 1.5

# Per-layer metrics taken from the span summary: (span, metric, unit, derivation).
LAYER_METRICS = [
    ("transport.meta_w1_matched", "calls", "count", "calls"),
    ("transport.meta_w1_matched", "s", "s", "s"),
    ("transport.meta_w1_matched", "self_s", "s", "self_s"),
    ("transport.meta_cost_matrix", "pairs", "count", "extra_sum"),
    ("transport.meta_cost_matrix", "self_s", "s", "self_s"),
    ("transport.bounded_lipschitz", "calls", "count", "calls"),
    ("transport.bounded_lipschitz", "s", "s", "s"),
    ("transport.bounded_lipschitz", "ms_per_call", "ms", "ms_per_call"),
    ("priors.posterior_draw", "calls", "count", "calls"),
    ("priors.posterior_draw", "s", "s", "s"),
    ("priors.posterior_draw", "atoms_mean", "count", "extra_mean"),
    ("priors.posterior_draw", "atoms_max", "count", "extra_max"),
    ("measures.AtomicMeasure", "built", "count", "calls"),
    ("measures.AtomicMeasure", "s", "s", "s"),
    ("harness.run_experiment", "self_s", "s", "self_s"),
    ("priors.batched_sequences", "s", "s", "s"),
    ("priors.batched_posterior_integrals", "s", "s", "s"),
    ("priors.sample_sequence", "s", "s", "s"),
    ("estimators.gini_estimators", "s", "s", "s"),
    ("estimators.mean_estimators", "s", "s", "s"),
    ("families.expect", "calls", "count", "calls"),
    ("families.expect", "s", "s", "s"),
    ("families.pair_expect", "calls", "count", "calls"),
    ("families.pair_expect", "s", "s", "s"),
    ("priors.predictive_expectation", "s", "s", "s"),
    ("priors.predictive_expectation_mc", "s", "s", "s"),
    ("priors.predictive_pair_expectation", "s", "s", "s"),
    ("measures.empirical", "s", "s", "s"),
    ("measures.l21_functional", "s", "s", "s"),
    ("rng.state_from_key", "calls", "count", "calls"),
    ("cli.main", "self_s", "s", "self_s"),
    ("harness.report_to_csv", "s", "s", "s"),
]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Ledger:
    """Config runs attempted and failed, violations, and report digests."""

    def __init__(self, cfgs: dict[str, dict], reference: dict[str, str]):
        self.cfgs = cfgs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, dict] = {}
        self.digests: dict[str, set] = {name: set() for name in cfgs}

    def record(self, label: str, name: str, code: int | None, report: str) -> None:
        result = checks.check_report(self.cfgs[name], code, report)
        self.attempted += 1
        if result["problems"]:
            self.failed += 1
            print(f"  FAIL {label} {name}: {'; '.join(result['problems'])}")
        self.digests[name].add(result["sha256"])
        self.first.setdefault(name, dict(result, code=code))

    def violations(self) -> int:
        return sum(r["violations"] for r in self.first.values())

    def deterministic(self) -> bool:
        return all(len(d) == 1 for d in self.digests.values())

    def print_configs(self) -> None:
        for name, r in self.first.items():
            ref = self.reference.get(name)
            status = "none" if ref is None else ("match" if ref == r["sha256"] else "DIFFERS")
            same = "identical" if len(self.digests[name]) == 1 else f"{len(self.digests[name])} distinct"
            print(
                f"  {name:14s} {self.cfgs[name]['experiment']:15s} exit={r['code']} rows={r['rows']:3d} "
                f"violations={r['violations']} sha256={r['sha256']} ({same} across passes; "
                f"reference {status})"
            )


def run_pass(cli, paths: list[tuple[str, str]], out_dir: str, ledger: Ledger, label: str) -> dict[str, float]:
    """One pass over the configs; returns the seconds of each config's run."""
    os.makedirs(out_dir, exist_ok=True)
    gc.collect()
    codes, seconds = {}, {}
    for name, path in paths:
        t0 = time.perf_counter()
        try:
            codes[name] = cli.main(["run", "--config", path, "--out", os.path.join(out_dir, f"{name}.csv")])
        except Exception:  # a raising config is a failed config, not a failed benchmark
            traceback.print_exc()
            codes[name] = None
        seconds[name] = time.perf_counter() - t0
    for name, _ in paths:
        ledger.record(label, name, codes[name], os.path.join(out_dir, f"{name}.csv"))
    return seconds


def cold_setups(workload: str, seed: int, run_dir: str, samples: int) -> list[float]:
    out = []
    for i in range(samples):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--dir", os.path.join(run_dir, f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def layer_metrics(summary: dict[str, dict]) -> dict[str, dict]:
    out = {}
    for span, metric, unit, how in LAYER_METRICS:
        rec = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": []})
        if how == "extra_sum":
            value = sum(rec["extra"])
        elif how == "extra_mean":
            value = statistics.fmean(rec["extra"]) if rec["extra"] else 0.0
        elif how == "extra_max":
            value = max(rec["extra"], default=0)
        elif how == "ms_per_call":
            value = 1000.0 * rec["s"] / rec["calls"] if rec["calls"] else 0.0
        else:
            value = rec[how]
        out[f"{span}.{metric}"] = _metric(value, unit)
    bounds = [rec for name, rec in summary.items() if name.startswith("bounds.")]
    out["bounds.calls"] = _metric(sum(r["calls"] for r in bounds), "count")
    out["bounds.s"] = _metric(sum(r["s"] for r in bounds), "s")
    return out


def print_attribution(title: str, summary: dict[str, dict]) -> None:
    wall = summary["cli.main"]["s"]
    print(f"  {title}: {wall:.3f} s traced; spans by self time, then by inclusive time below run_experiment")
    for name, rec in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:6]:
        print(f"    {name:38s} self  {rec['self_s']:8.3f} s {rec['self_s'] / wall:6.1%}  calls {rec['calls']}")
    inner = {k: v for k, v in summary.items() if k not in ("cli.main", "harness.run_experiment")}
    for name, rec in sorted(inner.items(), key=lambda kv: -kv[1]["s"])[:6]:
        print(f"    {name:38s} total {rec['s']:8.3f} s {rec['s'] / wall:6.1%}")


def group_summaries(tracer: tracing.Tracer, groups: list[str]) -> dict[str, dict]:
    """Span summaries per config group; groups[i] is the group of the i-th
    config of the traced pass, whose top-level span is its cli.main call."""
    roots = tracer.roots() + [len(tracer.spans)]
    ranges = {}
    for i, group in enumerate(groups):
        lo, _ = ranges.get(group, (roots[i], None))
        ranges[group] = (lo, roots[i + 1])
    return {group: tracer.summary(lo, hi) for group, (lo, hi) in ranges.items()}


def measure(args, run_dir: str) -> dict:
    workload, seed = args.workload, args.seed
    ref_start = probes.ref_loop()
    paths, _ = timed_setup(workload, seed, os.path.join(run_dir, "configs"))
    import finipost as fp
    import finipost.cli as cli

    try:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh).get(workload, {}).get(str(seed), {})
    except FileNotFoundError:
        reference = {}
    triples = workloads.configs(workload, seed)
    ledger = Ledger({name: cfg for _, name, cfg in triples}, reference)

    # Untraced passes for about --seconds: a pass starts if it is expected
    # to end in time (in a traced run, with the traced and threads=2 passes
    # after it).
    reserve = TRACED_RUN_RESERVE if args.trace else 0.0
    walls, per_config = [], []
    t_start = time.perf_counter()
    while True:
        per_config.append(run_pass(cli, paths, os.path.join(run_dir, "untraced"), ledger, "untraced"))
        walls.append(sum(per_config[-1].values()))
        elapsed = time.perf_counter() - t_start
        if elapsed + (1.0 + reserve) * statistics.median(walls) > args.seconds:
            break
    wall = statistics.median(walls)
    config_medians = {name: statistics.median(p[name] for p in per_config) for name in per_config[0]}
    violations = ledger.violations()

    print(f"perfbench workload={workload} seed={seed} trace={args.trace} passes={len(walls)}")
    metrics: dict[str, dict] = {}
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = cold_setups(workload, seed, run_dir, SETUP_SAMPLES)
        metrics = {
            "wall_s": _metric(wall, "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        ref_end = probes.ref_loop()
        ledger.print_configs()
        print(f"  wall_s       {wall:.4f} s  (median of {len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls) + ")")
        print("  per config   " + " ".join(f"{name} {sec:.3f}" for name, sec in config_medians.items())
              + " s (medians over passes)")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(setups)}: "
              + " ".join(f"{s:.3f}" for s in setups) + ")")
        print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall = sum(run_pass(cli, paths, os.path.join(run_dir, "traced"), ledger, "traced").values())
        finally:
            tracer.restore()
        tracer.write(os.path.join(WORK, f"spans-{workload}.json"))
        summary = tracer.summary()
        threads2_paths = workloads.write_configs(workload, seed, os.path.join(run_dir, "configs2"), threads=2)
        threads2_wall = sum(run_pass(cli, threads2_paths, os.path.join(run_dir, "threads2"), ledger, "threads2").values())
        exponents = {
            "transport.assign.exponent": probes.assign_exponent(fp, seed),
            "transport.bounded_lipschitz.exponent": probes.bounded_lipschitz_exponent(fp, seed),
            "priors.posterior_draw.exponent": probes.posterior_draw_exponent(fp, seed),
        }
        ref_end = probes.ref_loop()
        metrics = layer_metrics(summary)
        metrics["harness.violations"] = _metric(violations, "count")
        metrics["trace.overhead"] = _metric(traced_wall / wall, "ratio")
        metrics["harness.threads2_speedup"] = _metric(wall / threads2_wall, "ratio")
        metrics["host.ref_loop_s"] = _metric(ref_start, "s")
        metrics["host.ref_loop_drift"] = _metric(ref_end / ref_start, "ratio")
        for name, value in exponents.items():
            metrics[name] = _metric(value, "exponent")
        ledger.print_configs()
        print(f"  untraced wall_s {wall:.4f} s (median of {len(walls)}), traced {traced_wall:.4f} s, "
              f"overhead {traced_wall / wall:.3f}x; threads=2 {threads2_wall:.4f} s, "
              f"speedup {wall / threads2_wall:.3f}x")
        print_attribution("traced pass", summary)
        if len(workloads.WORKLOADS[workload][0]) > 1:
            for group, group_summary in group_summaries(tracer, [g for g, _, _ in triples]).items():
                print_attribution(f"group {group}", group_summary)
        for name, value in exponents.items():
            print(f"  {name:38s} {value:.3f}")

    failed_frac = ledger.failed / ledger.attempted
    deterministic = ledger.deterministic()
    print(f"  failed_frac  {failed_frac:g}  ({ledger.failed} of {ledger.attempted} config runs failed)")
    print(f"  violations   {violations} cells  (violated cells in one pass; not failures)")
    kinds = "untraced, traced and threads=2 passes" if args.trace else "passes"
    print(f"  report digests identical across {kinds}: {deterministic}")
    print(f"  host.ref_loop_s start {ref_start:.4f} s, end {ref_end:.4f} s")
    return {
        "correct": ledger.failed == 0 and deterministic,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finipost", "__init__.py")):
        print(f"perfbench: no finipost sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        result = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
