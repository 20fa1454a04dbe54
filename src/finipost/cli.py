"""Command line interface.

    finipost run --config cfg.json [--out report.csv] [--format csv|json]
                 [--seed 42]
    finipost bound <name> --params '{"k": 3, "n": 10, "N": 100}'
    finipost selftest [--quick]

Exit codes: 0 ok, 1 configuration error, 2 I/O error, 3 bound violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds as bd
from .errors import FiniPostError, config_float, config_int
from .harness import ExperimentConfig, emit, report_to_csv, report_to_json, run_experiment

# Each evaluator reads its parameters through two accessors: ``i(name)``
# for an integer and ``r(name)`` for a real.
_BOUND_EVALUATORS = {
    "mean_unconditional": lambda i, r: bd.mean_bound_unconditional(i("N"), r("Ef2")),
    "mean_conditional": lambda i, r: bd.mean_bound_conditional(
        i("n"), i("N"), r("sample_mean_f"), r("post_mean_f"), r("pred_f2")
    ),
    "finite": lambda i, r: bd.finite_bound(i("k"), i("n"), i("N")),
    "real": lambda i, r: bd.real_bound(i("n"), i("N"), r("post_l21")),
    "bounded_support": lambda i, r: bd.bounded_support_bound(r("M"), i("n"), i("N")),
    "l21_moment": lambda i, r: bd.l21_moment_bound(r("delta"), r("m2delta")),
    "tail_probability": lambda i, r: bd.tail_probability_bound(r("epsilon"), r("e_l21"), i("n"), i("N")),
    "euclidean": lambda i, r: bd.euclidean_bound(i("d"), i("k"), i("n"), i("N"), r("gamma_moment_post")),
    "median_cdf": lambda i, r: bd.median_cdf(bd.MedianLawInputs(i("N"), r("F"))),
    "median_tails": lambda i, r: bd.median_tail_bounds(i("N"), r("p_left"), r("p_right")),
}


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FiniPostError("config-error", f"{what} is not valid JSON: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FiniPostError("io-error", f"cannot read config {args.config}: {exc}") from exc
    obj = _parse_json(text, f"config {args.config}")
    if isinstance(obj, dict) and args.seed is not None:  # from_dict rejects any other top level
        obj["master_seed"] = args.seed
    cfg = ExperimentConfig.from_dict(obj)
    report = run_experiment(cfg)
    out = args.out or cfg.output
    if out:
        emit(report, out, args.format)
    else:
        sys.stdout.write(report_to_json(report) if args.format == "json" else report_to_csv(report))
    return 3 if report.any_violation else 0


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.name not in _BOUND_EVALUATORS:
        raise FiniPostError("config-error", f"unknown bound {args.name!r}; choose from {sorted(_BOUND_EVALUATORS)}")
    params = _parse_json(args.params, "--params")
    if not isinstance(params, dict):
        raise FiniPostError("config-error", f"--params must be a JSON object, not {type(params).__name__}")

    names = set()

    def read(parse, name):
        names.add(name)
        if name not in params:
            raise FiniPostError("config-error", f"bound {args.name!r} needs parameter {name!r}")
        return parse(params[name], name)

    value = _BOUND_EVALUATORS[args.name](lambda name: read(config_int, name), lambda name: read(config_float, name))
    # A parameter the bound does not read is refused, not ignored.
    unknown = sorted(set(params) - names)
    if unknown:
        raise FiniPostError("config-error", f"unknown parameters {unknown} for bound {args.name!r}")
    if isinstance(value, tuple):
        sys.stdout.write(" ".join(f"{v:.17g}" for v in value) + "\n")
    else:
        sys.stdout.write(f"{value:.17g}\n")
    return 0


# ---------------------------------------------------------------------------
# Self-test suite: quick oracles plus the default no-violation grid
# ---------------------------------------------------------------------------

def _selftest_configs(quick: bool) -> list[dict]:
    reps_finite = 6 if quick else 30
    m_finite = 128 if quick else 256
    grid_finite = [25, 100] if quick else [25, 100, 400, 1600]
    cfgs = [
        {
            "experiment": "bound_finite",
            "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0, 1.0]},
            "n": 0,
            "N_grid": grid_finite,
            "m_samples": m_finite,
            "replicates": reps_finite,
            "ground": "TV",
            "master_seed": 101,
        },
        {
            "experiment": "bound_finite",
            "model": {"kind": "finite_dirichlet", "alpha": [1.0, 2.0, 0.5]},
            "n": 10,
            "N_grid": [100],
            "m_samples": m_finite,
            "replicates": 4 if quick else 10,
            "ground": "TV",
            "master_seed": 102,
        },
        {
            "experiment": "bound_mean",
            "model": {"kind": "dirichlet_process", "mass": 1.0, "base": {"family": "gaussian", "mu": 0, "sigma": 1}},
            "n": 0,
            "N_grid": [25, 100] if quick else [25, 100, 400],
            "m_samples": 1000 if quick else 2000,
            "replicates": 5 if quick else 10,
            "ground": "BL",
            "f_spec": {"kind": "identity"},
            "master_seed": 103,
        },
        {
            "experiment": "bound_mean",
            "model": {"kind": "dirichlet_process", "mass": 1.0, "base": {"family": "uniform", "a": -1, "b": 1}},
            "n": 5,
            "N_grid": [50] if quick else [50, 200],
            "m_samples": 1000 if quick else 2000,
            "replicates": 5 if quick else 10,
            "ground": "BL",
            "f_spec": {"kind": "square"},
            "master_seed": 104,
        },
        {
            "experiment": "bound_real",
            "model": {
                "kind": "dirichlet_process",
                "mass": 1.0,
                "base": {"family": "gaussian", "mu": 0, "sigma": 1},
            },
            "n": 0,
            "N_grid": [25] if quick else [25, 50],
            "m_samples": 16 if quick else 24,
            "replicates": 3 if quick else 6,
            "ground": "BL",
            "master_seed": 105,
        },
        {
            "experiment": "bound_real",
            "model": {
                "kind": "dirichlet_process",
                "mass": 2.0,
                "base": {"family": "uniform", "a": 0, "b": 1},
            },
            "n": 5,
            "N_grid": [50],
            "m_samples": 16 if quick else 24,
            "replicates": 3 if quick else 6,
            "ground": "BL",
            "master_seed": 106,
        },
        {
            "experiment": "estimator_sweep",
            "model": {"kind": "dirichlet_process", "mass": 1.0, "base": {"family": "gaussian", "mu": 0, "sigma": 1}},
            "n": 8,
            "N_grid": [8, 16, 64, 256],
            "m_samples": 2,
            "replicates": 3,
            "ground": "BL",
            "f_spec": {"kind": "identity"},
            "master_seed": 107,
        },
        {
            "experiment": "estimator_sweep",
            "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0], "atoms": [0.0, 1.0]},
            "n": 6,
            "N_grid": [6, 12, 48],
            "m_samples": 2,
            "replicates": 3,
            "ground": "BL",
            "f_spec": {"kind": "indicator", "y": 0.5},
            "master_seed": 108,
        },
        {
            "experiment": "median_law",
            "model": {"kind": "fixed", "base": {"family": "uniform", "a": 0, "b": 1}},
            "n": 0,
            "N_grid": [1, 5],
            "m_samples": 5000 if quick else 20000,
            "replicates": 11,
            "ground": "BL",
            "master_seed": 109,
        },
    ]
    return cfgs


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    violations = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    # Closed-form oracles.
    from .families import UniformLaw
    from .measures import AtomicMeasure, gini_md, l21_functional

    check(
        "l21(uniform) = pi/8",
        abs(l21_functional(UniformLaw(0, 1)) - math.pi / 8.0) < 1e-6,
    )
    check(
        "gini of fair two-point = 1/2",
        gini_md(AtomicMeasure([(0.0, 0.5), (1.0, 0.5)])) == 0.5,
    )
    check(
        "median law N=1, F=0.3",
        abs(bd.median_cdf(bd.MedianLawInputs(1, 0.3)) - 0.216) < 1e-15,
    )
    check("median symmetry at 1/2", bd.median_cdf(bd.MedianLawInputs(9, 0.5)) == 0.5)

    # The no-violation experiment grid.
    total_cells = 0
    for obj in _selftest_configs(args.quick):
        cfg = ExperimentConfig.from_dict(obj)
        report = run_experiment(cfg)
        total_cells += len(report.rows)
        bad = [r for r in report.rows if r.violated]
        violations += len(bad)
        check(
            f"{cfg.experiment} seed={cfg.master_seed}: no violation in {len(report.rows)} cells",
            not bad,
            f"violated: {[(r.N, r.replicate) for r in bad]}" if bad else "",
        )
    if args.quick:
        print(f"SKIP grid covers at least 200 cells (quick grid: {total_cells} cells)")
    else:
        check("grid covers at least 200 cells", total_cells >= 200, f"{total_cells} cells")

    if failures:
        return 3 if violations else 1
    print(f"selftest complete: {total_cells} experiment cells, no violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="finipost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--seed", type=int)
    p_run.set_defaults(func=_cmd_run)

    p_bound = sub.add_parser("bound", help="evaluate a closed-form bound")
    p_bound.add_argument("name")
    p_bound.add_argument("--params", required=True)
    p_bound.set_defaults(func=_cmd_bound)

    p_self = sub.add_parser("selftest", help="run the oracle suite and the default grid")
    p_self.add_argument("--quick", action="store_true", help="reduced grid for smoke testing")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FiniPostError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2 if exc.code == "io-error" else 1


if __name__ == "__main__":
    sys.exit(main())
