"""Spans around finipost's public calls, patched in from outside the package.

Each timed name is patched wherever a caller looks it up: the modules use
``from .priors import posterior_draw`` and the like, so every finipost
module attribute bound to the original function gets the same wrapper.
Private helpers are not wrapped; their time shows up as the self time of
their public parent (``_assignment_with_duals`` under ``meta_w1_matched``).
Spans are kept in memory as (name, start, end, parent) and summarized or
written out after the traced pass.  ``Tracer.restore`` puts every original
back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Public functions timed per layer module.
FUNCTIONS = {
    "cli": ["main"],
    "harness": ["run_experiment", "report_to_csv"],
    "priors": [
        "posterior_draw", "sample_sequence", "batched_sequences", "batched_posterior_integrals",
        "predictive_expectation", "predictive_expectation_mc", "predictive_pair_expectation",
    ],
    "estimators": ["gini_estimators", "mean_estimators"],
    "transport": ["meta_w1_matched", "meta_cost_matrix", "bounded_lipschitz"],
    "measures": ["empirical", "l21_functional"],
    "rng": ["state_from_key"],
}
# Methods timed on classes: (module, class, method, span name).
METHODS = [("measures", "AtomicMeasure", "__init__", "measures.AtomicMeasure")] + [
    ("families", cls, meth, f"families.{meth}")
    for cls in ("UniformLaw", "GaussianLaw", "PointMassLaw")
    for meth in ("expect", "pair_expect")
]


def _bounds_functions(module) -> list[str]:
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


# Extra per-span values: atoms in a posterior draw, ground pairs in a cost matrix.
_EXTRAS = {
    "priors.posterior_draw": lambda args, result: len(result),
    "transport.meta_cost_matrix": lambda args, result: len(args[0]) * len(args[1]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, extra]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every timed name in every loaded finipost module."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == "finipost" or key.startswith("finipost.")]
        targets = {layer: list(names) for layer, names in FUNCTIONS.items()}
        targets["bounds"] = _bounds_functions(sys.modules["finipost.bounds"])
        for layer, names in targets.items():
            home = sys.modules[f"finipost.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                span = f"bounds.{fname}" if layer == "bounds" else f"{layer}.{fname}"
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"finipost.{layer}"], cls_name)
            self._set(cls, meth, self._wrap(span, cls.__dict__[meth]))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s[:4] for s in self.spans], fh, separators=(",", ":"))

    def roots(self) -> list[int]:
        """Indices of the top-level spans, in call order."""
        return [i for i, span in enumerate(self.spans) if span[3] < 0]

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Per span name over spans[lo:hi] (whole call trees): calls,
        inclusive seconds (outermost spans only), self seconds, and the extra
        values recorded."""
        spans = self.spans
        hi = len(spans) if hi is None else hi
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans[lo:hi]:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": []})
        for i in range(lo, hi):
            name, start, end, parent, extra = spans[i]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child[i]
            if extra is not None:
                rec["extra"].append(extra)
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                rec["s"] += end - start
        return dict(out)
