"""Host drift reference and scaling probes (log-log exponents)."""

from __future__ import annotations

import statistics
import time

import numpy as np


def ref_loop(iterations: int = 1_000_000) -> float:
    """Seconds for a fixed pure-Python kernel; tracks host speed drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _per_call(fn, min_total: float = 0.2) -> float:
    """Median seconds per call, repeating until min_total seconds pass."""
    times = []
    while not times or (sum(times) < min_total and len(times) < 50):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(seconds, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def assign_exponent(fp, seed: int, sizes=(256, 512, 1024)) -> float:
    """TV meta distance at k=3 (dense cost matrix plus assignment)."""
    model = fp.FiniteDirichletModel((1.0, 2.0, 0.5))
    rng = fp.derive_seed(seed, 0, 1)
    history = fp.sample_sequence(model, 10, rng)
    times = []
    for m in sizes:
        ps = [fp.posterior_draw(model, history, rng) for _ in range(m)]
        qs = [fp.posterior_draw(model, history, rng) for _ in range(m)]
        times.append(_per_call(lambda: fp.meta_w1_matched(ps, qs, "TV")))
    return exponent(sizes, times)


def bounded_lipschitz_exponent(fp, seed: int, sizes=(32, 128, 512)) -> float:
    """One BL linear program between two measures with s atoms each."""
    rng = fp.derive_seed(seed, 0, 2)
    times = []
    for s in sizes:
        p = fp.AtomicMeasure(list(zip(rng.normal(size=s).tolist(), rng.dirichlet(np.ones(s)))))
        q = fp.AtomicMeasure(list(zip(rng.normal(size=s).tolist(), rng.dirichlet(np.ones(s)))))
        times.append(_per_call(lambda: fp.bounded_lipschitz(p, q)))
    return exponent(sizes, times)


def posterior_draw_exponent(fp, seed: int, sizes=(2000, 8000)) -> float:
    """m per-draw posterior objects of a k=2 finite Dirichlet model."""
    model = fp.FiniteDirichletModel((1.0, 1.0))
    history = fp.Sample((), space=model.space)
    rng = fp.derive_seed(seed, 0, 3)
    times = [_per_call(lambda: [fp.posterior_draw(model, history, rng) for _ in range(m)]) for m in sizes]
    return exponent(sizes, times)
