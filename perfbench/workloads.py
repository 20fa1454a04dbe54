"""Seeded experiment configs for each benchmark workload.

Every config is written with all of its fields explicit, so a report
depends only on the file the benchmark hands to ``finipost run``.  The
master seed of each config derives from the workload seed, except the
conditional-mean sign-bug config, which keeps the fixed seed at which its
false violations were found.
"""

from __future__ import annotations

import json
import os

GAUSS = {"family": "gaussian", "mu": 0.0, "sigma": 1.0}

# The fixed master seed of the sign-bug config (6 of 6 cells violated).
SIGN_BUG_SEED = 111


def _config(name, experiment, model, n, N_grid, m, reps, ground, f_spec=None, master_seed=None):
    return name, {
        "experiment": experiment,
        "model": model,
        "n": n,
        "N_grid": list(N_grid),
        "m_samples": m,
        "replicates": reps,
        "ground": ground,
        "master_seed": master_seed,
        "output": None,
        "f_spec": f_spec,
        "threads": 1,
        "coupling": "posterior",
    }


def _finite_tv():
    grid = [25, 100, 400, 1600]
    # The assignment's work per instance is heavy-tailed (most of it at
    # N=25), so k=3 runs many small instances: 48 replicates of m=64 keep a
    # pass's work within a few percent across seeds, where 4 of m=256 did not.
    return [
        _config("tv_k3", "bound_finite", {"kind": "finite_dirichlet", "alpha": [1.0, 2.0, 0.5]},
                10, grid, 64, 48, "TV"),
        _config("tv_k2", "bound_finite", {"kind": "finite_dirichlet", "alpha": [1.0, 1.0]},
                0, grid, 4000, 2, "TV"),
    ]


def _bl_real():
    dp = {"kind": "dirichlet_process", "mass": 1.0, "base": GAUSS, "max_sticks": 64, "residual_tol": 1e-4}
    pt = {"kind": "polya_tree", "base": GAUSS, "depth": 4, "level_alpha": [1.0, 4.0, 9.0, 16.0]}
    return [
        _config("bl_dp", "bound_real", dp, 0, [25, 50], 24, 1, "BL"),
        _config("bl_pt", "bound_real", pt, 5, [50], 24, 1, "BL"),
    ]


def _scalar_quad():
    dp_gauss = {"kind": "dirichlet_process", "mass": 1.0, "base": GAUSS}
    dp_unif = {"kind": "dirichlet_process", "mass": 1.0, "base": {"family": "uniform", "a": -1.0, "b": 1.0}}
    dp_shift = {"kind": "dirichlet_process", "mass": 1.0, "base": {"family": "gaussian", "mu": -3.0, "sigma": 1.0}}
    fixed = {"kind": "fixed", "base": {"family": "uniform", "a": 0.0, "b": 1.0}}
    return [
        _config("mean_gauss", "bound_mean", dp_gauss, 0, [25, 100, 400], 2000, 4, "BL", {"kind": "identity"}),
        _config("mean_square", "bound_mean", dp_unif, 5, [50, 200], 2000, 4, "BL", {"kind": "square"}),
        _config("mean_sign_bug", "bound_mean", dp_shift, 50, [100, 400], 2000, 3, "BL", {"kind": "identity"},
                master_seed=SIGN_BUG_SEED),
        _config("gini_sweep", "estimator_sweep", dp_gauss, 8, [8, 256], 2, 1, "BL", {"kind": "gini"}),
        _config("median", "median_law", fixed, 0, [1, 5, 25], 20000, 11, "BL"),
    ]


# Config groups, each stressing one use of the layers; traced runs attribute
# time per group.
GROUPS = {"finite_tv": _finite_tv, "bl_real": _bl_real, "scalar_quad": _scalar_quad}

# Workload -> (groups, why).  bl_real and scalar_quad share one workload so
# that each run can measure long enough to be steady on a noisy host.
WORKLOADS = {
    "finite_tv": (
        ("finite_tv",),
        "TV ground on label alphabets: a dense k=3 assignment and the k=2 per-draw object path; no LP, no quadrature",
    ),
    "real_line": (
        ("bl_real", "scalar_quad"),
        "scalar models on the line: BL linprog solves behind a tiny assignment, then quadrature predictives and "
        "vectorised sampling",
    ),
}


def configs(workload: str, seed: int, threads: int = 1) -> list[tuple[str, str, dict]]:
    """The workload's (group, name, config) triples for one benchmark seed."""
    out = []
    for group in WORKLOADS[workload][0]:
        for name, cfg in GROUPS[group]():
            if cfg["master_seed"] is None:
                cfg["master_seed"] = 1000 * seed + len(out)
            cfg["threads"] = threads
            out.append((group, name, cfg))
    return out


def write_configs(workload: str, seed: int, directory: str, threads: int = 1) -> list[tuple[str, str]]:
    """Write the workload's configs as JSON files; return (name, path) pairs."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for _, name, cfg in configs(workload, seed, threads):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        paths.append((name, path))
    return paths
