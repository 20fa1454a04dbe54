"""Experiment harness: determinism, emission formats, the frozen golden
report, the sweep identities, and the CLI contract."""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import finipost
from finipost.errors import FiniPostError
from finipost.measures import Sample
from finipost.harness import (
    ExperimentConfig,
    emit,
    report_to_csv,
    report_to_json,
    run_experiment,
)

K2_CONFIG = {
    "experiment": "bound_finite",
    "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0]},
    "n": 0,
    "N_grid": [2],
    "m_samples": 2000,
    "replicates": 1,
    "ground": "TV",
    "master_seed": 42,
}

# Atoms out of label order, k = 3: reaches the atom-to-column mapping and
# the assignment, which the binary golden never does.
K3_UNSORTED_CONFIG = {
    "experiment": "bound_finite",
    "model": {"kind": "finite_dirichlet", "alpha": [1.0, 2.0, 0.5], "atoms": ["c", "a", "b"]},
    "n": 10,
    "N_grid": [25, 100],
    "m_samples": 64,
    "replicates": 4,
    "ground": "TV",
    "master_seed": 7,
}

GAUSS = {"family": "gaussian", "mu": 0.0, "sigma": 1.0}

# Real-line goldens: the DP history urn, conjugate posterior and batched
# sequences (bound_mean, n = 5); the Polya-tree urn, posterior and BL ground
# (bound_real, n = 5); and the independent coupling's DP continuations.
DP_MEAN_N5_CONFIG = {
    "experiment": "bound_mean",
    "model": {"kind": "dirichlet_process", "mass": 1.0, "base": {"family": "uniform", "a": -1.0, "b": 1.0}},
    "n": 5,
    "N_grid": [20, 60],
    "m_samples": 400,
    "replicates": 2,
    "ground": "BL",
    "f_spec": {"kind": "square"},
    "master_seed": 13,
}
PT_REAL_N5_CONFIG = {
    "experiment": "bound_real",
    "model": {"kind": "polya_tree", "base": GAUSS, "depth": 4, "level_alpha": [1.0, 4.0, 9.0, 16.0]},
    "n": 5,
    "N_grid": [20, 40],
    "m_samples": 16,
    "replicates": 2,
    "ground": "BL",
    "master_seed": 17,
}
DP_REAL_INDEPENDENT_CONFIG = {
    "experiment": "bound_real",
    "model": {"kind": "dirichlet_process", "mass": 1.0, "base": GAUSS, "max_sticks": 64, "residual_tol": 1e-4},
    "n": 3,
    "N_grid": [20, 40],
    "m_samples": 16,
    "replicates": 2,
    "ground": "BL",
    "coupling": "independent",
    "master_seed": 19,
}

# A small valid bound_real config: bad model fields in it fail on their own.
BL_CONFIG = {
    "experiment": "bound_real",
    "model": {"kind": "dirichlet_process", "mass": 1.0, "base": GAUSS, "max_sticks": 64, "residual_tol": 1e-4},
    "n": 0,
    "N_grid": [5],
    "m_samples": 2,
    "replicates": 1,
    "ground": "BL",
    "master_seed": 3,
}

DP_MODEL = {"kind": "dirichlet_process", "mass": 1.0, "base": GAUSS}
FD_MIXED = {"kind": "finite_dirichlet", "alpha": [1, 1]}
SB_MODEL = {"kind": "stick_breaking", "base": GAUSS, "beta_rule": {"a": 1.0, "b": 1.0}}

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDENS = [
    (K2_CONFIG, "k2_oracle_seed42.csv"),
    (K3_UNSORTED_CONFIG, "k3_unsorted_seed7.csv"),
    (DP_MEAN_N5_CONFIG, "dp_mean_n5_seed13.csv"),
    (PT_REAL_N5_CONFIG, "pt_real_n5_seed17.csv"),
    (DP_REAL_INDEPENDENT_CONFIG, "dp_real_independent_seed19.csv"),
]


def golden_text(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


def small_mean_config(**over):
    cfg = {
        "experiment": "bound_mean",
        "model": {
            "kind": "dirichlet_process",
            "mass": 1.0,
            "base": {"family": "gaussian", "mu": 0, "sigma": 1},
        },
        "n": 0,
        "N_grid": [25],
        "m_samples": 400,
        "replicates": 2,
        "ground": "BL",
        "f_spec": {"kind": "identity"},
        "master_seed": 5,
    }
    cfg.update(over)
    return cfg


class TestDeterminism:
    def test_bit_identical_reruns(self):
        cfg = ExperimentConfig.from_dict(small_mean_config())
        assert run_experiment(cfg).rows == run_experiment(cfg).rows

    def test_thread_count_invariance(self):
        # ``threads`` is accepted and ignored: it yields the config without
        # it, so no report can depend on it.  Worker counts themselves are
        # covered by test_worker_count_invariance.
        base = small_mean_config(N_grid=[25, 50], replicates=3)
        cfg = ExperimentConfig.from_dict({**base, "threads": 4})
        assert cfg == ExperimentConfig.from_dict(base)
        assert "threads" not in cfg.to_dict()

    def test_worker_count_invariance(self, monkeypatch):
        # The goldens (both bound kinds and bound_mean), a sweep and a median
        # config: CSV and JSON, metadata included, must not depend on how
        # many workers run the cells.  Three workers on fewer cores,
        # switching often, give the cells every chance to interleave.
        import finipost.harness as harness

        sweep = {**small_mean_config(experiment="estimator_sweep", f_spec={"kind": "gini"}), "n": 4, "N_grid": [4, 16]}
        median = {
            "experiment": "median_law",
            "model": {"kind": "fixed", "base": {"family": "uniform", "a": 0, "b": 1}},
            "n": 0,
            "N_grid": [1, 3],
            "m_samples": 2000,
            "replicates": 3,
            "master_seed": 21,
        }
        configs = [config for config, _ in GOLDENS] + [sweep, median]
        reports = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
                runs = [run_experiment(ExperimentConfig.from_dict(config)) for config in configs]
                reports[workers] = [(report_to_csv(r), report_to_json(r)) for r in runs]
        finally:
            sys.setswitchinterval(interval)
        assert [csv for csv, _ in reports[2][: len(GOLDENS)]] == [golden_text(name) for _, name in GOLDENS]
        assert reports[1] == reports[2] == reports[3]
        assert set(json.loads(reports[1][1][1])["metadata"]) == {"config", "artifact_version"}

    @pytest.mark.parametrize(
        "N_grid, replicates, slow, fast",
        [([25, 50, 75], 2, 1, 2), ([25 * k for k in range(1, 9)], 8, 5, 40)],
        ids=["6_cells", "64_cells"],
    )
    def test_first_failing_cell_in_grid_order_raises(self, monkeypatch, N_grid, replicates, slow, fast):
        # Cell `fast` fails first; cell `slow` fails later, and its error is
        # the one the serial loop would raise.  On 2 workers the 6-cell grid
        # runs one cell per chunk; the 64-cell grid puts the two failures in
        # different chunks of several cells.
        import time

        import finipost.cells as cells
        import finipost.harness as harness

        def failing_cells(cfg, model):
            def cell(N, rep, history, rngs):
                index = cfg.N_grid.index(N) * cfg.replicates + rep
                if index == slow:
                    time.sleep(0.2)
                if index in (slow, fast):
                    raise FiniPostError("cell-failed", f"cell {index}")
                return 0.0, 0.0, 1.0, 0.0, False

            return cell, 0

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setitem(cells._CELLS, "bound_mean", failing_cells)
        config = small_mean_config(N_grid=N_grid, replicates=replicates)
        with pytest.raises(FiniPostError, match=f"cell {slow}$") as err:
            run_experiment(ExperimentConfig.from_dict(config))
        assert err.value.code == "cell-failed"

    def test_failure_cancels_cells_not_started(self, monkeypatch):
        # Cell 0 fails at once; the chunks not yet started are cancelled, so
        # only the chunks already running start their cells.
        import time

        import finipost.cells as cells
        import finipost.harness as harness

        started = []

        def failing_cells(cfg, model):
            def cell(N, rep, history, rngs):
                index = cfg.N_grid.index(N) * cfg.replicates + rep
                if index == 0:
                    raise FiniPostError("cell-failed", "cell 0")
                started.append(index)
                time.sleep(0.005)
                return 0.0, 0.0, 1.0, 0.0, False

            return cell, 0

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setitem(cells._CELLS, "bound_mean", failing_cells)
        config = small_mean_config(N_grid=[25 * k for k in range(1, 9)], replicates=8)
        with pytest.raises(FiniPostError, match="cell 0$"):
            run_experiment(ExperimentConfig.from_dict(config))
        assert len(started) < 32

    def test_seed_changes_rows(self):
        a = run_experiment(ExperimentConfig.from_dict(small_mean_config())).rows
        b = run_experiment(ExperimentConfig.from_dict(small_mean_config(master_seed=6))).rows
        assert a != b

    @pytest.mark.parametrize("config, name", GOLDENS, ids=[name[: -len(".csv")] for _, name in GOLDENS])
    def test_golden_file(self, config, name):
        report = run_experiment(ExperimentConfig.from_dict(config))
        assert report_to_csv(report) == golden_text(name)


class TestMeanStderr:
    # The stderr of every bound and mean cell: the standard error of the
    # mean matched cost under resampling, in its closed form.
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_equals_the_exact_bootstrap_law(self, m):
        # All m^m resamples are equally likely, so the variance of their
        # means is the bootstrap variance with no Monte Carlo error.
        import itertools

        from finipost.cells import _mean_stderr
        from finipost.rng import derive_seed

        matched = derive_seed(30, m).random(m)
        means = matched[np.array(list(itertools.product(range(m), repeat=m)))].mean(axis=1)
        assert abs(means.var() - matched.var() / m) < 1e-12
        assert abs(_mean_stderr(matched) ** 2 - means.var()) < 1e-12

    def test_agrees_with_a_large_bootstrap(self):
        # B = 20000 resamples leave about 0.5% Monte Carlo error on the
        # bootstrap's standard error; 3% is six of those.
        from finipost.cells import _mean_stderr
        from finipost.rng import derive_seed

        m, resamples, block = 500, 20000, 1000
        matched = derive_seed(31).random(m) ** 2
        rng = derive_seed(32)
        means = np.concatenate(
            [matched[rng.integers(0, m, size=(block, m))].mean(axis=1) for _ in range(resamples // block)]
        )
        assert abs(float(means.std(ddof=1)) / _mean_stderr(matched) - 1.0) < 0.03

    def test_order_does_not_matter(self):
        from finipost.cells import _mean_stderr
        from finipost.rng import derive_seed

        matched = derive_seed(33).random(257)
        se = _mean_stderr(matched)
        for seed in range(5):
            assert _mean_stderr(derive_seed(34, seed).permutation(matched)) == pytest.approx(se, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [2, 3, 4000])
    @pytest.mark.parametrize("value", [0.0, 0.375])
    def test_constant_costs_have_no_error(self, m, value):
        # A dyadic constant keeps the mean exact, so no rounding is left over.
        from finipost.cells import _mean_stderr

        assert _mean_stderr(np.full(m, value)) == 0.0


class TestEmission:
    def test_csv_header_only_for_empty(self):
        from finipost.harness import ExperimentReport

        text = report_to_csv(ExperimentReport([], {}))
        assert text == "experiment,N,n,replicate,seed,estimate,stderr,bound,slack,violated\n"

    def test_json_roundtrip_exact(self):
        report = run_experiment(ExperimentConfig.from_dict(small_mean_config()))
        parsed = json.loads(report_to_json(report))
        assert parsed["metadata"]["config"]["experiment"] == "bound_mean"
        for row, orig in zip(parsed["rows"], report.rows):
            assert row["estimate"] == orig.estimate
            assert row["bound"] == orig.bound
            assert row["seed"] == orig.seed
            assert row["violated"] == orig.violated

    def test_emit_both_formats(self, tmp_path):
        report = run_experiment(ExperimentConfig.from_dict(small_mean_config()))
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        emit(report, str(csv_path), "csv")
        emit(report, str(json_path), "json")
        assert csv_path.read_text().startswith("experiment,")
        assert json.loads(json_path.read_text())["rows"]

    def test_emit_io_error(self):
        report = run_experiment(ExperimentConfig.from_dict(small_mean_config()))
        with pytest.raises(FiniPostError) as err:
            emit(report, "/nonexistent-dir-xyz/report.csv", "csv")
        assert err.value.code == "io-error"

    def test_csv_floats_roundtrip(self):
        report = run_experiment(ExperimentConfig.from_dict(small_mean_config()))
        line = report_to_csv(report).splitlines()[1].split(",")
        assert float(line[5]) == report.rows[0].estimate

    @pytest.mark.parametrize("kind", ["square", "gini"])
    def test_json_of_finite_dirichlet_sweep(self, kind):
        # These sweeps compare numpy floats; the violation flag must still
        # be a JSON boolean.
        cfg = {
            **small_mean_config(experiment="estimator_sweep", f_spec={"kind": kind}),
            "model": {"kind": "finite_dirichlet", "alpha": [1.0, 2.0], "atoms": [0.0, 1.5]},
            "n": 4,
            "N_grid": [4, 16],
        }
        report = run_experiment(ExperimentConfig.from_dict(cfg))
        rows = json.loads(report_to_json(report))["rows"]
        assert [row["violated"] for row in rows] == [False] * 4

    @pytest.mark.parametrize(
        "f_spec", [{"kind": "identity"}, {"kind": "square"}, {"kind": "indicator", "y": 0.3}, {"kind": "gini"}],
        ids=["identity", "square", "indicator", "gini"],
    )
    @pytest.mark.parametrize(
        "model",
        [
            {"kind": "finite_dirichlet", "alpha": [1.0, 2.0, 0.5], "atoms": [-1.0, 0.25, 2.0]},
            {"kind": "dirichlet_process", "mass": 1.0, "base": GAUSS},
            {"kind": "polya_tree", "base": GAUSS, "depth": 4, "level_alpha": [1.0, 4.0, 9.0, 16.0]},
            {"kind": "fixed", "base": {"family": "uniform", "a": 0, "b": 1}},
        ],
        ids=["finite_dirichlet", "dp", "polya_tree", "fixed"],
    )
    def test_exact_rows_write_na_stderr(self, model, f_spec):
        # Every sweep estimator is an exact closed form: no row carries a
        # standard error, and the slack only absorbs rounding.
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "estimator_sweep",
                "model": model,
                "n": 2,
                "N_grid": [4, 9],
                "m_samples": 2,
                "replicates": 2,
                "ground": "BL",
                "f_spec": f_spec,
                "master_seed": 16,
            }
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 4
        assert all(row.stderr is None and row.slack == 1e-9 for row in report.rows)
        assert all(",na," in line for line in report_to_csv(report).splitlines()[1:])
        assert all(row["stderr"] is None for row in json.loads(report_to_json(report))["rows"])


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(FiniPostError) as err:
            ExperimentConfig.from_dict({**K2_CONFIG, "experiment": "mystery"})
        assert err.value.code == "config-error"

    def test_unknown_top_level_key(self):
        # A misspelt field is an error, not a silent default; ``threads``
        # is the one retired field still accepted.
        with pytest.raises(FiniPostError) as err:
            ExperimentConfig.from_dict({**K2_CONFIG, "replicats": 3})
        assert err.value.code == "config-error" and "replicats" in str(err.value)
        assert ExperimentConfig.from_dict({**K2_CONFIG, "threads": 2}) == ExperimentConfig.from_dict(K2_CONFIG)

    def test_integral_floats_are_integers(self):
        cfg = ExperimentConfig.from_dict({**K2_CONFIG, "replicates": 2.0, "N_grid": [2.0, 4], "master_seed": 42.0})
        assert (cfg.replicates, cfg.N_grid, cfg.master_seed) == (2, (2, 4), 42)
        assert all(type(v) is int for v in (cfg.replicates, *cfg.N_grid, cfg.master_seed))

    @pytest.mark.parametrize("seed, ok", [(0, True), (2**64 - 1, True), (2**64, False), (-1, False)])
    def test_master_seed_range(self, seed, ok):
        # Stream keys mix the seed modulo 2**64: a seed outside [0, 2**64)
        # would silently alias one inside.
        cfg = {**K2_CONFIG, "m_samples": 8, "master_seed": seed}
        if ok:
            assert len(run_experiment(ExperimentConfig.from_dict(cfg)).rows) == 1
        else:
            with pytest.raises(FiniPostError) as err:
                ExperimentConfig.from_dict(cfg)
            assert err.value.code == "config-error"

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_cli_seed_range(self, tmp_path, capsys, seed):
        from finipost.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**K2_CONFIG, "m_samples": 8}))
        assert main(["run", "--config", str(cfg_path), "--seed", str(seed)]) == 1
        assert "error [config-error]" in capsys.readouterr().err

    @pytest.mark.parametrize("over", [{"N_grid": (2.9,)}, {"m_samples": 4.5}, {"replicates": True}],
                             ids=["fractional-N", "fractional-m", "boolean-replicates"])
    def test_direct_construction_checks_integers(self, over):
        # The dataclass checks its integer fields itself: no silent int(2.9),
        # no raw TypeError, no boolean count.
        fields = {key: K2_CONFIG[key] for key in ("experiment", "model", "n", "N_grid", "m_samples", "replicates")}
        with pytest.raises(FiniPostError) as err:
            ExperimentConfig(**{**fields, **over})
        assert err.value.code == "config-error"

    def test_grid_floor(self):
        with pytest.raises(FiniPostError):
            ExperimentConfig.from_dict({**K2_CONFIG, "n": 2, "N_grid": [2]})
        # ... but the sweep admits N = n for the collapse row.
        cfg = ExperimentConfig.from_dict(
            {
                **K2_CONFIG,
                "experiment": "estimator_sweep",
                "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0], "atoms": [0.0, 1.0]},
                "n": 2,
                "N_grid": [2, 4],
                "f_spec": {"kind": "identity"},
            }
        )
        assert cfg.N_grid == (2, 4)

    @pytest.mark.parametrize("experiment", ["bound_finite", "bound_real", "bound_mean", "estimator_sweep", "median_law"])
    def test_ground_and_output_checked_for_every_experiment(self, experiment):
        for over in ({"ground": "bogus"}, {"ground": ["x"]}, {"ground": None}, {"output": 2}, {"output": True}):
            with pytest.raises(FiniPostError) as err:
                ExperimentConfig.from_dict(small_mean_config(experiment=experiment, **over))
            assert err.value.code == "config-error"
        for ground in ("TV", "BL"):
            assert ExperimentConfig.from_dict(small_mean_config(experiment=experiment, ground=ground)).ground == ground
        assert ExperimentConfig.from_dict(small_mean_config(output="r.csv")).output == "r.csv"

    def test_ground_model_compat(self):
        bad = {**K2_CONFIG, "ground": "BL"}
        with pytest.raises(FiniPostError):
            run_experiment(ExperimentConfig.from_dict(bad))
        bad2 = small_mean_config(experiment="bound_real", ground="TV")
        bad2.pop("f_spec")
        with pytest.raises(FiniPostError):
            run_experiment(ExperimentConfig.from_dict(bad2))

    def test_mean_needs_f_spec(self):
        cfg = small_mean_config()
        cfg.pop("f_spec")
        with pytest.raises(FiniPostError) as err:
            run_experiment(ExperimentConfig.from_dict(cfg))
        assert err.value.code == "config-error"

    def test_sweep_rejects_zero_horizon(self):
        with pytest.raises(FiniPostError):
            ExperimentConfig.from_dict(
                {
                    **small_mean_config(),
                    "experiment": "estimator_sweep",
                    "n": 0,
                    "N_grid": [0],
                }
            )

    def test_vanishing_test_function_reports_zero_below_zero(self):
        # An indicator far below the support is identically zero: the
        # distance and the bound both collapse to 0 <= 0.
        cfg = ExperimentConfig.from_dict(
            small_mean_config(f_spec={"kind": "indicator", "y": -1e300}, m_samples=200)
        )
        row = run_experiment(cfg).rows[0]
        assert row.estimate == 0.0
        assert row.bound == 0.0
        assert not row.violated

    def test_conditional_mean_bound_translation_invariant(self):
        # Shifting the base by -3 shifts every observation: the estimates do
        # not move, and the sign-safe conditional bound must not fall below
        # them (the signed head gave negative bounds here).
        rows = {}
        for mu in (0.0, -3.0):
            base = {"family": "gaussian", "mu": mu, "sigma": 1.0}
            cfg = small_mean_config(
                model={"kind": "dirichlet_process", "mass": 1.0, "base": base},
                n=50, N_grid=[100, 400], m_samples=400, master_seed=111,
            )
            rows[mu] = run_experiment(ExperimentConfig.from_dict(cfg)).rows
        for a, b in zip(rows[0.0], rows[-3.0]):
            assert a.estimate == pytest.approx(b.estimate, rel=1e-9)
        assert not any(r.violated for r in rows[0.0] + rows[-3.0])
        assert all(r.bound > 0 for r in rows[-3.0])


class TestBoundExperimentShape:
    def test_rows_cover_grid(self):
        cfg = ExperimentConfig.from_dict(
            {**K2_CONFIG, "N_grid": [2, 4, 8], "replicates": 3, "m_samples": 64}
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 9
        assert {(r.N, r.replicate) for r in report.rows} == {
            (N, r) for N in (2, 4, 8) for r in range(3)
        }
        assert set(report.metadata) == {"config", "artifact_version"}

    def test_real_bound_experiment_runs(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "bound_real",
                "model": {
                    "kind": "dirichlet_process",
                    "mass": 1.0,
                    "base": {"family": "gaussian", "mu": 0, "sigma": 1},
                    "max_sticks": 64,
                    "residual_tol": 1e-4,
                },
                "n": 3,
                "N_grid": [20],
                "m_samples": 12,
                "replicates": 2,
                "ground": "BL",
                "master_seed": 77,
            }
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.bound > 0 and not math.isnan(row.estimate)
            assert not row.violated


    def test_independent_coupling_follows_the_continuation_law(self):
        # Fresh posterior rows plus multinomial counts give the law of the
        # urn continuation: compare the empirical means with the DP's count
        # continuation.  Rounded, as rows made only of history values sum
        # the same atoms in different orders on the two routes.
        from scipy.stats import ks_2samp

        from finipost.families import IDENTITY
        from finipost.cells import _posterior_and_empirical_draws
        from finipost.priors import batched_f_means, model_from_spec, sample_sequence
        from finipost.rng import derive_seed

        cfg = ExperimentConfig.from_dict({**BL_CONFIG, "model": DP_MODEL, "n": 3, "N_grid": [20], "m_samples": 2000,
                                          "coupling": "independent"})
        model = model_from_spec(DP_MODEL)
        h = sample_sequence(model, 3, derive_seed(71))
        _, emps = _posterior_and_empirical_draws(cfg, model, h, 20, derive_seed(72), derive_seed(73))
        means = [float(np.dot(w, x)) for x, w in emps]
        reference = batched_f_means(model, h, 20, IDENTITY.vec, 2000, derive_seed(74))
        assert ks_2samp(np.round(means, 12), np.round(reference, 12)).pvalue > 1e-3

    @pytest.mark.parametrize("coupling", ["posterior", "independent"])
    def test_label_counts_mean(self, coupling):
        # Mean count = history count + fresh * (alpha + count)/(A + n), under
        # either coupling; columns come back in sorted-label order.
        from finipost.cells import _posterior_and_empirical_draws
        from finipost.priors import model_from_spec
        from finipost.rng import derive_seed

        spec = {"kind": "finite_dirichlet", "alpha": [1.0, 1.0], "atoms": ["b", "a"]}
        cfg = ExperimentConfig.from_dict({**K2_CONFIG, "model": spec, "n": 3, "N_grid": [13], "m_samples": 40000,
                                          "coupling": coupling})
        model = model_from_spec(spec)
        P, Q = _posterior_and_empirical_draws(cfg, model, Sample(("a", "a", "b")), 13, derive_seed(117),
                                              derive_seed(118))
        counts = 13 * Q
        assert P.shape == Q.shape == (40000, 2)
        assert np.array_equal(counts, np.round(counts)) and np.all(counts.sum(axis=1) == 13)
        assert np.all(counts[:, 0] >= 2) and np.all(counts[:, 1] >= 1)
        expected = 2 + 10 * (1 + 2) / (2 + 3)
        se = counts[:, 0].std(ddof=1) / math.sqrt(counts.shape[0])
        assert abs(counts[:, 0].mean() - expected) <= 4 * se
        assert abs(P[:, 0].mean() - 3 / 5) <= 4 * P[:, 0].std(ddof=1) / math.sqrt(P.shape[0])


class TestPackage:
    def test_public_names_resolve_to_their_submodules(self):
        # Each public name loads its submodule on first access and is that
        # submodule's own object (``__getattr__`` is called directly, as an
        # earlier access caches the name).
        import importlib

        assert len(finipost.__all__) == len(set(finipost.__all__)) == 72
        listed = dir(finipost)
        for name in finipost.__all__:
            home = importlib.import_module(f"finipost.{finipost._EXPORTS[name]}")
            assert finipost.__getattr__(name) is getattr(finipost, name) is getattr(home, name)
            assert name in listed

    def test_tracer_finds_every_name_it_times(self):
        # perfbench/tracing.py wraps finipost functions and methods by name
        # in the modules a run loads; a renamed one would stop a traced
        # benchmark run only when it starts.
        import importlib
        import importlib.util

        from finipost.families import IDENTITY, UniformLaw
        from finipost.priors import FixedLawModel

        for module in ("cells", "cli"):
            importlib.import_module(f"finipost.{module}")
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        priors, cells = sys.modules["finipost.priors"], sys.modules["finipost.cells"]
        original, tracer = priors.predictive_expectation, tracing.Tracer()
        try:
            tracer.install()
            assert cells.predictive_expectation is priors.predictive_expectation is not original
            assert priors.predictive_expectation(FixedLawModel(UniformLaw(0, 1)), Sample(()), IDENTITY) == 0.5
        finally:
            tracer.restore()
        assert cells.predictive_expectation is priors.predictive_expectation is original
        names = [span[0] for span in tracer.spans]
        assert names[0] == "priors.predictive_expectation" and "families.expect" in names

    def test_submodules_resolve_and_unknown_names_raise(self):
        assert finipost.__getattr__("priors") is finipost.priors is sys.modules["finipost.priors"]
        assert "priors" in dir(finipost) and "harness" in dir(finipost)
        with pytest.raises(AttributeError, match="nope"):
            finipost.nope


def names_in_module(module):
    """Every name a finipost module imports, reads or takes as an attribute."""
    import ast

    path = os.path.join(os.path.dirname(finipost.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


class TestStructure:
    @pytest.mark.parametrize("module", ["harness", "cells", "estimators"])
    def test_no_concrete_model_class_outside_priors(self, module):
        # Model behaviour sits behind the ExchangeableModel protocol: these
        # modules neither import a concrete model class nor name one.
        from finipost.priors import ExchangeableModel

        concrete = {cls.__name__ for cls in ExchangeableModel.__subclasses__()}
        assert len(concrete) == 5 and not names_in_module(module) & concrete

    def test_config_names_every_experiment_kind(self):
        # The config layer checks the experiment name without loading the
        # cells; both name the same kinds.
        from finipost.cells import _CELLS
        from finipost.harness import _EXPERIMENTS

        assert _EXPERIMENTS == tuple(_CELLS)

    def test_one_linear_program(self):
        # Every LP is the transportation LP of solve_discrete_ot: the one
        # linprog call site in the package.
        import ast

        root, sites = os.path.dirname(finipost.__file__), []
        for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "linprog":
                    while node in parent and not isinstance(node, ast.FunctionDef):
                        node = parent[node]
                    sites.append((name, getattr(node, "name", None)))
        assert sites == [("transport.py", "solve_discrete_ot")]

    def test_no_pairwise_distances_in_the_plane(self):
        # Bounded Lipschitz runs on the line only: no module imports
        # scipy.spatial, which the R^d solver needed for its distances.
        # Nor scipy.stats, whose import alone takes about 0.5 s and tens of
        # MB of resident memory: the exact laws are written with
        # scipy.special.
        import ast

        root, imports = os.path.dirname(finipost.__file__), []
        for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.Import):
                        imports += [(name, alias.name) for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and node.module:
                        imports += [(name, f"{node.module}.{alias.name}") for alias in node.names]
        assert any(module.startswith("scipy.") for _, module in imports)
        assert [(name, m) for name, m in imports if m.startswith(("scipy.spatial", "scipy.stats"))] == []

    @pytest.mark.parametrize("module", ["harness", "cells", "estimators"])
    def test_harness_names_no_atomic_measure(self, module):
        # Bound cells run on weight matrices and merged rows, and Monte Carlo
        # functionals on row blocks, not on one measure object per draw.
        assert "AtomicMeasure" not in names_in_module(module)

    def test_functional_builds_no_atomic_measure(self, monkeypatch):
        from finipost.estimators import EstimatorInputs, finitary_functional, posterior_risk_profile
        from finipost.families import GaussianLaw
        from finipost.measures import AtomicMeasure
        from finipost.priors import DirichletProcessModel
        from finipost.rng import derive_seed

        def refuse(self, *args, **kwargs):
            raise AssertionError("an AtomicMeasure was built")

        monkeypatch.setattr(AtomicMeasure, "__init__", refuse)
        inputs = EstimatorInputs(DirichletProcessModel(1.0, GaussianLaw(0, 1)), Sample((0.4, -0.3)), 20)
        t = lambda x: x.mean(axis=1)  # noqa: E731
        assert np.isfinite(finitary_functional(inputs, t, 64, derive_seed(3))[0])
        assert len(posterior_risk_profile(inputs, t, [0.0, 1.0], 64, derive_seed(3))) == 2

    @pytest.mark.parametrize("coupling", ["posterior", "independent"])
    @pytest.mark.parametrize("model", [PT_REAL_N5_CONFIG["model"], DP_REAL_INDEPENDENT_CONFIG["model"]],
                             ids=["polya_tree", "dp"])
    def test_bound_real_builds_no_atomic_measure(self, monkeypatch, model, coupling):
        from finipost.measures import AtomicMeasure

        def refuse(self, *args, **kwargs):
            raise AssertionError("an AtomicMeasure was built")

        monkeypatch.setattr(AtomicMeasure, "__init__", refuse)
        cfg = {**PT_REAL_N5_CONFIG, "model": model, "N_grid": [20], "replicates": 1, "coupling": coupling}
        assert len(run_experiment(ExperimentConfig.from_dict(cfg)).rows) == 1

    @pytest.mark.parametrize("config", [K3_UNSORTED_CONFIG, K2_CONFIG, PT_REAL_N5_CONFIG, DP_MEAN_N5_CONFIG],
                             ids=["bound_finite", "bound_finite_n0", "bound_real", "bound_mean"])
    def test_meta_distance_cells_draw_two_streams(self, monkeypatch, config):
        # Two streams per cell (posterior draws, continuations) and one per
        # replicate history when n > 0: the standard error draws none.
        import finipost.cells

        states, draw_state = [], finipost.cells.state_from_key

        def counting(key):
            states.append(key)
            return draw_state(key)

        monkeypatch.setattr(finipost.cells, "state_from_key", counting)
        cells = len(run_experiment(ExperimentConfig.from_dict(config)).rows)
        assert cells == len(config["N_grid"]) * config["replicates"]
        assert len(states) == 2 * cells + (config["replicates"] if config["n"] > 0 else 0)

    @pytest.mark.parametrize("config", [K3_UNSORTED_CONFIG, K2_CONFIG, PT_REAL_N5_CONFIG],
                             ids=["bound_finite", "bound_finite_n0", "bound_real"])
    def test_bound_cells_call_the_public_matching(self, monkeypatch, config):
        # One optimal matching per bound cell, through the public
        # meta_w1_matched: the estimate and the stderr read its costs.
        import finipost.cells

        calls, match = [], finipost.cells.meta_w1_matched

        def counting(ps, qs, ground):
            calls.append(ground)
            return match(ps, qs, ground)

        monkeypatch.setattr(finipost.cells, "meta_w1_matched", counting)
        cells = len(run_experiment(ExperimentConfig.from_dict(config)).rows)
        assert cells == len(config["N_grid"]) * config["replicates"]
        assert calls == [config["ground"]] * cells
        assert not any("_matched_blocks" in names_in_module(module) for module in ("harness", "cells"))

    @pytest.mark.parametrize("kind", ["fixed", "dirichlet_process", "finite_dirichlet", "polya_tree", "stick_breaking"])
    def test_median_law_builds_no_sequence(self, monkeypatch, kind):
        # A median cell draws each sequence's count at most x, never the
        # sequence.
        import finipost.priors as priors

        def refuse(*args, **kwargs):
            raise AssertionError("a sequence was built")

        model = {
            "fixed": {"kind": "fixed", "base": GAUSS},
            "dirichlet_process": DP_MODEL,
            "finite_dirichlet": {"kind": "finite_dirichlet", "alpha": [1.0, 2.0, 0.5], "atoms": [0.0, 1.5, -2.0]},
            "polya_tree": PT_REAL_N5_CONFIG["model"],
            "stick_breaking": {"kind": "stick_breaking", "base": GAUSS, "beta_rule": {"a": 1.0, "b": 2.0}},
        }[kind]
        monkeypatch.setattr(priors, "_sequence_rows", refuse)
        cfg = {"experiment": "median_law", "model": model, "N_grid": [3], "m_samples": 200, "replicates": 2}
        assert len(run_experiment(ExperimentConfig.from_dict(cfg)).rows) == 2


class TestEstimatorSweep:
    def test_mean_gap_scales_exactly(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "estimator_sweep",
                "model": {
                    "kind": "dirichlet_process",
                    "mass": 1.0,
                    "base": {"family": "gaussian", "mu": 0, "sigma": 1},
                },
                "n": 5,
                "N_grid": [5, 10, 20, 40, 80],
                "m_samples": 2,
                "replicates": 2,
                "ground": "BL",
                "f_spec": {"kind": "identity"},
                "master_seed": 11,
            }
        )
        report = run_experiment(cfg)
        from finipost.estimators import EstimatorInputs, mean_estimators
        from finipost.cells import _replicate_history
        from finipost.priors import model_from_spec

        model = model_from_spec(cfg.model)
        for rep_idx in (0, 1):
            rows = [r for r in report.rows if r.replicate == rep_idx]
            # At N = n the gap is |plug-in - classical| exactly.
            history = _replicate_history(cfg, model, rep_idx)
            pair = mean_estimators(EstimatorInputs(model, history, 5))
            collapse = [r for r in rows if r.N == 5][0]
            assert collapse.estimate == abs(
                float(history.scalars().mean()) - pair.classical
            )
            scaled = {round(r.estimate * r.N / r.n, 12) for r in rows}
            assert len(scaled) == 1  # |finitary - classical| * N / n is constant
        assert not report.any_violation

    def test_cdf_rows_in_unit_interval(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "estimator_sweep",
                "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0], "atoms": [0.0, 1.0]},
                "n": 4,
                "N_grid": [4, 8, 32],
                "m_samples": 2,
                "replicates": 2,
                "ground": "BL",
                "f_spec": {"kind": "indicator", "y": 0.5},
                "master_seed": 12,
            }
        )
        report = run_experiment(cfg)
        assert not report.any_violation
        for row in report.rows:
            assert 0.0 <= row.estimate <= 1.0

    def test_variance_and_gini_sweeps_run(self):
        for kind in ("square", "gini"):
            cfg = ExperimentConfig.from_dict(
                {
                    "experiment": "estimator_sweep",
                    "model": {"kind": "finite_dirichlet", "alpha": [1.0, 2.0], "atoms": [0.0, 1.0]},
                    "n": 3,
                    "N_grid": [3, 6, 24],
                    "m_samples": 2,
                    "replicates": 1,
                    "ground": "BL",
                    "f_spec": {"kind": kind},
                    "master_seed": 13,
                }
            )
            report = run_experiment(cfg)
            assert not report.any_violation


class TestMonotoneTrend:
    def test_binary_alphabet_estimates_decrease_within_noise(self):
        # Medians over replicates are non-increasing across the default N
        # grid, up to three standard errors of each median (the estimate
        # bottoms out at the plug-in bias floor; see the decisions ledger).
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "bound_finite",
                "model": {"kind": "finite_dirichlet", "alpha": [1.0, 1.0]},
                "n": 0,
                "N_grid": [25, 100, 400, 1600],
                "m_samples": 20000,
                "replicates": 5,
                "ground": "TV",
                "master_seed": 31,
            }
        )
        report = run_experiment(cfg)
        grid = [25, 100, 400, 1600]
        med, tol = [], []
        for N in grid:
            ests = np.array([r.estimate for r in report.rows if r.N == N])
            med.append(float(np.median(ests)))
            tol.append(3.0 * float(ests.std(ddof=1)) / math.sqrt(ests.size))
        for i in range(len(grid) - 1):
            assert med[i + 1] <= med[i] + tol[i] + tol[i + 1]
        assert med[-1] < med[0]


class TestMedianExperiment:
    def test_fixed_uniform_tail_bound(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "median_law",
                "model": {"kind": "fixed", "base": {"family": "uniform", "a": 0, "b": 1}},
                "n": 0,
                "N_grid": [1, 3],
                "m_samples": 4000,
                "replicates": 5,
                "ground": "BL",
                "master_seed": 14,
            }
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 10
        assert not report.any_violation

    def test_order_statistic_count_equals_median_rule_with_ties(self):
        # DP rows grown from a tied history share its atoms, so many rows
        # hold several values equal to x = 0.0 or x = 0.5.  The median cell
        # counts on this identity: the median of 2N + 1 values is at most x
        # iff more than N of them are.
        from finipost.priors import batched_sequences, model_from_spec
        from finipost.rng import derive_seed

        model = model_from_spec({"kind": "dirichlet_process", "mass": 0.7, "base": GAUSS})
        for N, history in ((1, ()), (2, (0.0, 0.5, 0.0)), (5, (0.0, 0.5, 0.0)), (12, (0.5, 0.0, 0.5))):
            block = batched_sequences(model, Sample(history), 2 * N + 1, 3000, derive_seed(70, N))
            for x in (0.0, 0.5, block[0, -1], float(np.median(block[1]))):
                counted = np.count_nonzero(block <= x, axis=1) > block.shape[1] // 2
                assert np.array_equal(counted, np.median(block, axis=1) <= x)
            assert not history or np.any(np.count_nonzero(block == 0.0, axis=1) > 1)

    def test_median_cell_memory_is_bounded(self):
        # A Polya-tree row averages I_M(N+1, N+1) over one mass per
        # sequence, drawn from (20000, 4) posterior rows: its peak stays far
        # below one (20000, 51) matrix of sequences (8 MB).
        import tracemalloc

        from finipost.cells import _median_cells
        from finipost.priors import model_from_spec
        from finipost.rng import derive_seed

        model_spec = {"kind": "polya_tree", "base": GAUSS, "depth": 2, "level_alpha": [1.0, 4.0]}
        cfg = ExperimentConfig.from_dict(
            {"experiment": "median_law", "model": model_spec, "n": 0, "N_grid": [25], "m_samples": 20000,
             "replicates": 1, "master_seed": 2}
        )
        cell, _ = _median_cells(cfg, model_from_spec(model_spec))
        rngs = [derive_seed(5, phase) for phase in range(2)]
        tracemalloc.start()
        try:
            estimate, se, *_ = cell(25, 0, Sample(()), rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.45 < estimate < 0.55 and 0.0 < se < 0.01
        assert peak < 4 * 2**20

    def test_polya_tree_tail_row_is_not_saturated(self):
        # At u = 1/12 and N = 25 nearly every count of 51 values stays at
        # most N, so counting medians read 0 with a stderr of 7e-9.  The
        # average of I_M(N+1, N+1) over the masses is positive, with a
        # positive, finite stderr below it.
        from finipost.cells import _median_cells
        from finipost.priors import model_from_spec
        from finipost.rng import derive_seed

        model_spec = {"kind": "polya_tree", "base": GAUSS, "depth": 3, "level_alpha": [1.0, 4.0, 9.0]}
        cfg = ExperimentConfig.from_dict(
            {"experiment": "median_law", "model": model_spec, "n": 0, "N_grid": [25], "m_samples": 20000,
             "replicates": 11, "master_seed": 3}
        )
        model = model_from_spec(model_spec)
        assert model.mass_law(Sample(()), model.prior_quantile(1 / 12)) is None
        cell, _ = _median_cells(cfg, model)
        estimate, se, bound, slack, violated = cell(25, 0, Sample(()), [derive_seed(6, phase) for phase in range(2)])
        assert 0.0 < se < estimate < bound and slack == 3.0 * se and not violated
        assert math.isfinite(se)

    def test_fixed_uniform_matches_exact_law(self):
        from finipost.bounds import MedianLawInputs, median_cdf

        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "median_law",
                "model": {"kind": "fixed", "base": {"family": "uniform", "a": 0, "b": 1}},
                "n": 0,
                "N_grid": [2],
                "m_samples": 20000,
                "replicates": 3,
                "ground": "BL",
                "master_seed": 15,
            }
        )
        report = run_experiment(cfg)
        levels = [(r + 1) / 4 for r in range(3)]
        for row, level in zip(report.rows, levels):
            assert row.estimate == median_cdf(MedianLawInputs(2, level))
            assert row.stderr is None and row.slack == 1e-9


class TestCli:
    def run_python(self, *args, expect=0):
        # The child finds the same finipost as this process, installed or not.
        src = os.path.dirname(os.path.dirname(finipost.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == expect, proc.stderr
        return proc

    def run_cli(self, *args, expect=0):
        return self.run_python("-m", "finipost.cli", *args, expect=expect)

    def test_import_parse_and_bound_finite_load_no_scipy(self):
        # scipy loads on the first call that needs a solver, a quadrature or
        # a special function, and numpy with the numerical layers on the
        # first run; importing the package, parsing configs and evaluating a
        # closed-form rate bound need none of them.
        script = textwrap.dedent(
            """
            import json, sys
            import finipost, finipost.cli
            from finipost.harness import ExperimentConfig

            def loaded():
                layers = {f"finipost.{layer}" for layer in
                          ("priors", "transport", "measures", "families", "estimators", "rng", "cells")}
                return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy") or m in layers)

            for cfg in json.loads(sys.argv[1]):
                ExperimentConfig.from_dict(cfg)
            parsed = loaded()
            finipost.cli.main(["bound", "finite", "--params", '{"k": 3, "n": 10, "N": 100}'])
            print(json.dumps([parsed, loaded(), "concurrent.futures" in sys.modules]))
            """
        )
        # Nor does anything before a run load the cell pool's
        # ``concurrent.futures`` (and with it ``logging``).
        configs = [config for config, _ in GOLDENS]
        bound, loaded = self.run_python("-c", script, json.dumps(configs)).stdout.splitlines()
        assert float(bound) == pytest.approx(0.17905694150420948)
        assert json.loads(loaded) == [[], [], False]

    @pytest.mark.parametrize(
        "config",
        [small_mean_config(ground="bogus"), {**K2_CONFIG, "replicats": 2}, {**K2_CONFIG, "experiment": "mystery"}],
        ids=["ground-bogus", "unknown-field", "experiment-mystery"],
    )
    def test_run_refuses_a_malformed_config_without_numpy(self, tmp_path, config):
        script = textwrap.dedent(
            """
            import sys
            import finipost.cli

            code = finipost.cli.main(["run", "--config", sys.argv[1]])
            print("numpy" in sys.modules)
            sys.exit(code)
            """
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = self.run_python("-c", script, str(cfg_path), expect=1)
        assert "error [config-error]" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == "False\n"

    def test_run_matches_goldens_in_a_fresh_process(self, tmp_path):
        # Each child takes its deferred scipy imports for the first time:
        # the assignment (k = 3 TV), and the Gaussian quantiles of the
        # Polya tree behind the BL ground.
        for config, name in ((K3_UNSORTED_CONFIG, "k3_unsorted_seed7.csv"), (PT_REAL_N5_CONFIG, "pt_real_n5_seed17.csv")):
            cfg_path, out_path = tmp_path / f"{name}.json", tmp_path / name
            cfg_path.write_text(json.dumps(config))
            self.run_cli("run", "--config", str(cfg_path), "--out", str(out_path))
            with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
                assert out_path.read_bytes() == fh.read()

    def test_bound_command(self):
        proc = self.run_cli("bound", "finite", "--params", '{"k": 3, "n": 10, "N": 100}')
        assert float(proc.stdout) == pytest.approx(0.17905694150420948)

    @pytest.mark.parametrize(
        "name, params",
        [("finite", '{"k": 3, "n": -50, "N": 5}'), ("real", '{"n": -3, "N": 10, "post_l21": 1.0}')],
        ids=["finite", "real"],
    )
    def test_bound_negative_history_length(self, name, params):
        proc = self.run_cli("bound", name, "--params", params, expect=1)
        assert "error [bad-horizon]" in proc.stderr and not proc.stdout
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("params", [
        '{"d": 300, "k": 324, "n": 1, "N": 10, "gamma_moment_post": 1.0}',
        '{"d": 3000, "k": 3001, "n": 1, "N": 10, "gamma_moment_post": 1.0}',
    ], ids=["3^2k", "2^(d/2)"])
    def test_bound_euclidean_beyond_every_float_is_inf(self, params):
        # The bound's constant overflows a float: the bound is vacuous, not an error.
        proc = self.run_cli("bound", "euclidean", "--params", params)
        assert proc.stdout.strip() == "inf" and "Traceback" not in proc.stderr

    def test_bound_unknown_name(self):
        self.run_cli("bound", "nope", "--params", "{}", expect=1)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("finite", '{"k": 3}'),
            ("finite", '{k: 3}'),
            ("finite", "[3, 10, 100]"),
            ("finite", '{"k": 3, "n": true, "N": 100}'),
            ("finite", '{"k": 3, "n": 2.7, "N": 100}'),
            ("finite", '{"k": 3, "n": "10", "N": 100}'),
            ("real", '{"n": 2, "N": 10, "post_l21": "nan"}'),
            ("real", '{"n": 2, "N": 10, "post_l21": NaN}'),
            ("real", '{"n": 2, "N": 10, "post_l21": Infinity}'),
            ("median_cdf", '{"N": 9}'),
            ("median_tails", '{"N": 9, "f": 0.3, "p_left": 0.1, "p_right": 0.2}'),
            ("tail_probability", '{"epsilon": 1, "e_l21": -5, "n": 0, "N": 9}'),
        ],
        ids=[
            "missing", "bad-json", "list", "int-bool", "int-fraction", "int-str", "real-str", "real-nan", "real-inf",
            "median_cdf-no-F", "median_tails-misspelt-F", "tail_probability-negative-l21",
        ],
    )
    def test_bound_bad_params(self, name, params):
        proc = self.run_cli("bound", name, "--params", params, expect=1)
        assert "error [config-error]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bound_median_tails_refuses_F(self):
        # The tail bounds read only N and the two tails; an F would be ignored.
        params = '{"N": 9, "F": 0.5, "p_left": 0.1, "p_right": 0.2}'
        proc = self.run_cli("bound", "median_tails", "--params", params, expect=1)
        assert "error [config-error]: unknown parameters ['F']" in proc.stderr

    def test_run_writes_json_to_stdout(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**K2_CONFIG, "m_samples": 64}))
        proc = self.run_cli("run", "--config", str(cfg_path), "--format", "json")
        report = json.loads(proc.stdout)
        assert len(report["rows"]) == 1 and report["rows"][0]["experiment"] == "bound_finite"

    @pytest.mark.parametrize(
        "config, code",
        [
            (small_mean_config(experiment="estimator_sweep", model=SB_MODEL, n=2), "posterior-unavailable"),
            (
                small_mean_config(experiment="estimator_sweep", model=SB_MODEL, f_spec={"kind": "gini"}),
                "posterior-unavailable",
            ),
            (
                small_mean_config(
                    experiment="estimator_sweep",
                    model={"kind": "polya_tree", "base": GAUSS, "depth": 8, "level_alpha": [1.0] * 8},
                    n=2,
                    f_spec={"kind": "square"},
                ),
                "resource-limit",
            ),
        ],
        ids=["stick-breaking-identity-n2", "stick-breaking-gini-n0", "polya-tree-depth8-square"],
    )
    def test_run_refuses_a_predictive_with_no_closed_form(self, tmp_path, config, code):
        # Estimators read only exact predictive laws, and a refusal names
        # no Monte Carlo setting: a config has none.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = self.run_cli("run", "--config", str(cfg_path), expect=1)
        assert f"error [{code}]" in proc.stderr and not proc.stdout
        assert "mc_draws" not in proc.stderr and "rng" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps({**K2_CONFIG, "m_samples": 64}))
        self.run_cli("run", "--config", str(cfg_path), "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("experiment,") and len(lines) == 2

    @pytest.mark.parametrize(
        "config",
        [
            {**K2_CONFIG, "experiment": "mystery"},
            {**K2_CONFIG, "n": "x"},
            {**K2_CONFIG, "m_samples": "ten"},
            {**K2_CONFIG, "N_grid": 5},
            [1, 2],
            {**K2_CONFIG, "model": {"kind": "finite_dirichlet", "alpha": "ab"}},
            {**K2_CONFIG, "replicates": 2.7},
            {**K2_CONFIG, "N_grid": [2.9]},
            {**K2_CONFIG, "n": True},
            {**K2_CONFIG, "master_seed": 1.5},
            {**K2_CONFIG, "m_samples": "64"},
            {**BL_CONFIG, "model": {**BL_CONFIG["model"], "max_sticks": 64.9}},
            {**BL_CONFIG, "model": {"kind": "polya_tree", "base": GAUSS, "depth": 2.5, "level_alpha": [1.0, 4.0]}},
            {**K2_CONFIG, "model": {"kind": "finite_dirichlet", "alpha": [1, 1], "atoms": "ab"}},
            small_mean_config(experiment="estimator_sweep", model={**FD_MIXED, "atoms": ["a", 1.0]}),
            small_mean_config(experiment="estimator_sweep", model={**FD_MIXED, "atoms": [0.0, "1"]}),
            small_mean_config(experiment="estimator_sweep", model={**FD_MIXED, "atoms": [0.0, True]}),
            {**K2_CONFIG, "master_seed": 2**64},
            {**K2_CONFIG, "master_seed": -1},
            {**K2_CONFIG, "n": -1},
            small_mean_config(f_spec={"kind": "gini"}),
            small_mean_config(model={**DP_MODEL, "mass": float("nan")}),
            small_mean_config(model={**DP_MODEL, "mass": float("inf")}),
            small_mean_config(model={**DP_MODEL, "mass": "1.0"}),
            small_mean_config(model={**DP_MODEL, "mass": True}),
            small_mean_config(model={**DP_MODEL, "residual_tol": "1e-6"}),
            small_mean_config(model={**DP_MODEL, "base": {**GAUSS, "mu": float("nan")}}),
            small_mean_config(model={**DP_MODEL, "base": {**GAUSS, "sigma": float("inf")}}),
            small_mean_config(model={**DP_MODEL, "base": {"family": "uniform", "a": "0", "b": 1}}),
            small_mean_config(model={**DP_MODEL, "base": {"family": "point_mass", "c": True}}),
            small_mean_config(f_spec={"kind": "indicator", "y": float("nan")}),
            {**K2_CONFIG, "model": {"kind": "finite_dirichlet", "alpha": [1.0, float("nan")]}},
            small_mean_config(model={"kind": "stick_breaking", "base": GAUSS, "beta_rule": {"a": 1, "b": float("inf")}}),
            small_mean_config(model={"kind": "stick_breaking", "base": GAUSS, "beta_params": [[1, "2"]] * 8}),
            {**BL_CONFIG, "model": {"kind": "polya_tree", "base": GAUSS, "depth": 2, "level_alpha": [1.0, float("nan")]}},
            {**BL_CONFIG, "model": {"kind": "polya_tree", "base": GAUSS, "depth": 1, "params": {"0": True, "1": 1.0}}},
            small_mean_config(output=2),
            small_mean_config(output=True),
            small_mean_config(ground="bogus"),
            small_mean_config(ground=["x"]),
            small_mean_config(ground="W1REAL"),
        ],
        ids=[
            "experiment-mystery", "n-str", "m_samples-str", "N_grid-int", "top-level-list", "alpha-str",
            "replicates-fraction", "N_grid-fraction", "n-bool", "master_seed-fraction", "m_samples-digits",
            "max_sticks-fraction", "depth-fraction", "atoms-str", "atoms-label-then-number",
            "atoms-number-then-label", "atoms-bool", "master_seed-2**64", "master_seed-negative", "n-negative", "mean-gini",
            "mass-nan", "mass-inf", "mass-str", "mass-bool", "residual_tol-str", "mu-nan", "sigma-inf",
            "uniform-a-str", "point_mass-c-bool", "indicator-y-nan", "alpha-nan", "beta_rule-inf",
            "beta_params-str", "level_alpha-nan", "params-bool", "output-int", "output-bool", "ground-bogus",
            "ground-list", "ground-W1REAL",
        ],
    )
    def test_run_bad_config_exit_code(self, tmp_path, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        proc = self.run_cli("run", "--config", str(cfg_path), expect=1)
        assert "error [config-error]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_refuses_huge_cost_matrix(self, tmp_path):
        # At m = 20000 a k = 3 cell needs a 3.2 GB cost matrix; on two
        # letters the sorted matching needs none, so the same m runs.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**K3_UNSORTED_CONFIG, "N_grid": [25], "m_samples": 20000, "replicates": 1}))
        proc = self.run_cli("run", "--config", str(cfg_path), expect=1)
        assert "error [resource-limit]" in proc.stderr
        assert "Traceback" not in proc.stderr
        report = run_experiment(ExperimentConfig.from_dict({**K2_CONFIG, "m_samples": 20000}))
        assert len(report.rows) == 1

    def test_run_refuses_huge_bl_cost_matrix(self, tmp_path):
        # The certified BL matching keeps the m x m refusal of the dense
        # cost matrix; test_transport checks that it comes before any solve.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BL_CONFIG, "m_samples": 20000}))
        proc = self.run_cli("run", "--config", str(cfg_path), expect=1)
        assert "error [resource-limit]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_selftest_reports_grid_size_check_only_when_made(self):
        # The quick grid is below 200 cells, so its size check is skipped,
        # never passed; the full grid makes the check.
        quick = self.run_cli("selftest", "--quick").stdout
        assert "PASS grid covers" not in quick
        assert "SKIP grid covers at least 200 cells" in quick
        full = self.run_cli("selftest").stdout
        assert "PASS grid covers at least 200 cells" in full
        assert "SKIP" not in full

    def test_run_malformed_json_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"experiment": "bound_finite", n: 3}')
        proc = self.run_cli("run", "--config", str(cfg_path), expect=1)
        assert "error [config-error]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_missing_config_file(self, tmp_path):
        proc = self.run_cli("run", "--config", str(tmp_path / "absent.json"), expect=2)
        assert "error [io-error]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_io_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**K2_CONFIG, "m_samples": 64}))
        self.run_cli(
            "run", "--config", str(cfg_path), "--out", "/nonexistent-dir-xyz/out.csv", expect=2
        )
