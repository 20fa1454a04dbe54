"""Seeded experiment runner: priors -> continuations and posterior draws ->
distances -> closed-form bounds, with machine-readable reports.

Five experiment kinds share one report schema:

* ``bound_finite`` / ``bound_real`` -- plug-in transport distance between
  posterior draws of the directing measure and empirical-measure draws,
  against the matching rate bound (total variation / bounded Lipschitz).
  ``bound_finite`` cells run on (m, k) weight matrices, one row per draw,
  and ``bound_real`` cells on merged rows, one pair of point and weight
  arrays per draw.
* ``bound_mean``     -- scalar pushforward distance for a named test
  function against the mean bounds.
* ``estimator_sweep`` -- finite-horizon vs classical estimator gap with
  its algebraic envelope across the horizon grid.
* ``median_law``     -- empirical law of the odd-sample median against the
  exact beta law and its tail inequalities.

``run_experiment`` is the one runner: it runs the cells of the (N,
replicate) grid on a thread pool, one worker per usable CPU, and builds
every report row in grid order.  Each experiment kind supplies only its
validation and a cell function that returns the row's estimate, stderr,
bound, slack and violation flag (``cells``).

This module imports no numpy: parsing a config and emitting a report load
only the standard library, and the numerical layers load with ``cells``,
on the first run.

Determinism contract: every cell of the (N, replicate) grid derives its
own counter-based stream from ``(master_seed, replicate, stream_id)`` and
shares no generator with another cell, so reports are byte-identical
across runs and for any number of workers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

from .errors import _GROUNDS, FiniPostError, config_int

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ExperimentReport",
    "run_experiment",
    "emit",
    "report_to_csv",
    "report_to_json",
]

ARTIFACT_VERSION = "0.12.0"

# The experiment kinds, one cell builder each in ``cells._CELLS``.
_EXPERIMENTS = ("bound_finite", "bound_real", "bound_mean", "estimator_sweep", "median_law")

# Stream ids: replicate-level history stream, then per-(N, phase) streams.
_STREAM_HISTORY = 0


def _cell_stream(n_index: int, phase: int) -> int:
    return 8 * (1 + n_index) + phase


# ---------------------------------------------------------------------------
# Configuration and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: dict
    n: int
    N_grid: tuple[int, ...]
    m_samples: int
    replicates: int
    ground: str = "TV"
    master_seed: int = 0
    output: str | None = None
    f_spec: dict | None = None
    coupling: str = "posterior"

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise FiniPostError("config-error", f"unknown experiment {self.experiment!r}")
        for name in ("n", "m_samples", "replicates", "master_seed"):
            object.__setattr__(self, name, config_int(getattr(self, name), name))
        object.__setattr__(self, "N_grid", tuple(config_int(N, "N_grid") for N in self.N_grid))
        if not self.N_grid:
            raise FiniPostError("config-error", "empty N grid")
        if self.n < 0:
            raise FiniPostError("config-error", f"history length n must be >= 0, got {self.n}")
        floor = max(self.n, 1) if self.experiment == "estimator_sweep" else self.n + 1
        if any(N < floor for N in self.N_grid):
            raise FiniPostError("config-error", f"every N in the grid must be >= {floor}")
        if self.m_samples < 2:
            raise FiniPostError("config-error", "m_samples must be >= 2")
        if self.replicates < 1:
            raise FiniPostError("config-error", "replicates must be >= 1")
        if not 0 <= self.master_seed < 2**64:  # stream keys mix the seed modulo 2**64
            raise FiniPostError("config-error", f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.coupling not in ("posterior", "independent"):
            raise FiniPostError("config-error", f"unknown coupling {self.coupling!r}")
        if self.ground not in _GROUNDS:
            raise FiniPostError("config-error", f"ground must be one of {list(_GROUNDS)}, not {self.ground!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise FiniPostError("config-error", f"output must be a path string or null, not {self.output!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise FiniPostError("config-error", f"a config is a JSON object, not {type(obj).__name__}")
        # ``threads`` is accepted and ignored: the runner sizes its own pool,
        # and reports do not depend on it.
        unknown = sorted(set(obj) - {f.name for f in fields(cls)} - {"threads"})
        if unknown:
            raise FiniPostError("config-error", f"unknown config fields {unknown}")
        given = {key: value for key, value in obj.items() if key != "threads"}
        try:
            return cls(**{"n": 0, "m_samples": 2000, "replicates": 1, **given})
        except FiniPostError:
            raise
        except (TypeError, ValueError) as exc:
            raise FiniPostError("config-error", f"malformed config: {exc}") from exc

    def to_dict(self) -> dict:
        return {**asdict(self), "N_grid": list(self.N_grid)}


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    N: int
    n: int
    replicate: int
    seed: int
    estimate: float
    stderr: float | None
    bound: float
    slack: float
    violated: bool


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    metadata: dict = field(default_factory=dict)

    @property
    def any_violation(self) -> bool:
        return any(r.violated for r in self.rows)


# ---------------------------------------------------------------------------
# The cell loop
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one experiment over its (N, replicate) grid, N-major, one row per cell.

    Each replicate draws its history once, from its own stream, and shares
    it across the N grid.  Each cell derives two streams (phases 0 and 1)
    and hands them to the experiment's cell function; the row's ``seed`` is
    the key of the experiment's seed stream (phase 1 for ``median_law``,
    phase 0 for the others).  The cells run on every usable CPU in contiguous
    chunks (``_run_grid``): the lowest failing cell's error is raised, after
    the running chunks finish and the others are cancelled.  Rows are
    recorded in grid order, the same for any worker count.
    """
    # The numerical layers, numpy with them, load on the first run, before
    # the pool starts; parsing a config needs none of them.
    from .cells import _CELLS, _replicate_history, derive_key, model_from_spec, state_from_key

    model = model_from_spec(cfg.model)
    cell, seed_phase = _CELLS[cfg.experiment](cfg, model)
    histories = [_replicate_history(cfg, model, rep) for rep in range(cfg.replicates)]
    grid = [
        (N, rep, [derive_key(cfg.master_seed, rep, _cell_stream(ni, phase)) for phase in range(2)])
        for ni, N in enumerate(cfg.N_grid)
        for rep in range(cfg.replicates)
    ]

    def run(N: int, rep: int, keys: list) -> tuple:
        return cell(N, rep, histories[rep], [state_from_key(key) for key in keys])

    rows = [
        ReportRow(cfg.experiment, N, cfg.n, rep, keys[seed_phase], *result, bool(violated))
        for (N, rep, keys), (*result, violated) in zip(grid, _run_grid(run, grid))
    ]
    return ExperimentReport(rows, {"config": cfg.to_dict(), "artifact_version": ARTIFACT_VERSION})


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_grid(run: Callable[..., tuple], grid: list) -> list:
    """``run(*cell)`` for every cell of the grid, returned in grid order.

    W = min(cells, usable CPUs) threads run contiguous chunks of cells
    (numpy releases the GIL in sampling, sorts and large ufuncs).  ``map``
    yields the chunks in grid order and a chunk stops at its first error,
    so the error raised is the lowest failing index's, as in a serial loop.
    An error or interrupt cancels the chunks not yet started; those already
    running finish their cells.
    """
    # Imported here: ``concurrent.futures`` loads ``logging``, which
    # ``import finipost`` does not need.
    from concurrent.futures import ThreadPoolExecutor

    workers = min(len(grid), _usable_cpus())
    # About 8 chunks a worker: few pool tasks (one per cell ran slower), short tail.
    size = math.ceil(len(grid) / (8 * workers))
    chunks = [grid[lo : lo + size] for lo in range(0, len(grid), size)]
    with ThreadPoolExecutor(workers) as pool:
        done = pool.map(lambda chunk: [run(*cell) for cell in chunk], chunks)
        return [result for chunk in done for result in chunk]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_CSV_HEADER = "experiment,N,n,replicate,seed,estimate,stderr,bound,slack,violated"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def report_to_csv(report: ExperimentReport) -> str:
    lines = [_CSV_HEADER]
    for r in report.rows:
        stderr = "na" if r.stderr is None else _fmt(r.stderr)
        lines.append(
            f"{r.experiment},{r.N},{r.n},{r.replicate},{r.seed},"
            f"{_fmt(r.estimate)},{stderr},{_fmt(r.bound)},{_fmt(r.slack)},"
            f"{'true' if r.violated else 'false'}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: ExperimentReport) -> str:
    obj = {"metadata": report.metadata, "rows": [asdict(r) for r in report.rows]}
    return json.dumps(obj, indent=2) + "\n"


def emit(report: ExperimentReport, path: str, format: str = "csv") -> None:
    """Write the report; CSV columns are fixed, JSON mirrors rows plus
    metadata.  Floats keep 17 significant digits (exact round-trip)."""
    if format not in ("csv", "json"):
        raise FiniPostError("config-error", f"unknown format {format!r}")
    text = report_to_csv(report) if format == "csv" else report_to_json(report)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FiniPostError("io-error", f"cannot write report to {path}: {exc}") from exc
