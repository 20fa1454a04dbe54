"""Output checks on one config's CSV report.

A config fails if ``finipost run`` raised, exited other than 0 (ok) or 3
(bound violation), wrote the wrong number of rows, wrote a non-finite
numeric field, flagged ``violated`` against its own estimate, bound and
slack, or exited 3 without a violated row (or 0 with one).  Violated
cells are counted, not failed.
"""

from __future__ import annotations

import hashlib
import math

HEADER = "experiment,N,n,replicate,seed,estimate,stderr,bound,slack,violated"


def _expected_violation(cfg: dict, N: int, rep: int, estimate: float, bound: float, slack: float) -> bool:
    if cfg["experiment"] != "median_law":
        return estimate > bound + slack
    # The bound column holds the left tail only.  Replicate r targets the
    # predictive CDF level u = (r+1)/(replicates+1) of a continuous fixed
    # law, so F(x_r) = u and the right-tail bound is min(1, (2N+1)/N (1-u)).
    u = (rep + 1) / (cfg["replicates"] + 1)
    right = min(1.0, (2.0 * N + 1.0) / N * (1.0 - u))
    return estimate > bound + slack or (1.0 - estimate) > right + slack


def check_report(cfg: dict, code: int | None, path: str) -> dict:
    """Check one report; returns problems, violation count and sha256."""
    out = {"problems": [], "violations": 0, "sha256": None, "rows": 0}
    problems = out["problems"]
    if code is None:
        problems.append("raised")
        return out
    if code not in (0, 3):
        problems.append(f"exit code {code}")
        return out
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        problems.append(f"no report: {exc}")
        return out
    out["sha256"] = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != HEADER:
        problems.append("bad header")
        return out
    rows = [line.split(",") for line in lines[1:]]
    out["rows"] = len(rows)
    expected_rows = len(cfg["N_grid"]) * cfg["replicates"]
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    for row in rows:
        if len(row) != 10:
            problems.append(f"row has {len(row)} fields")
            continue
        try:
            N, rep = int(row[1]), int(row[3])
            estimate, bound, slack = float(row[5]), float(row[7]), float(row[8])
            numbers = [estimate, bound, slack] + ([] if row[6] == "na" else [float(row[6])])
        except ValueError:
            problems.append(f"unparsable row {row}")
            continue
        if not all(math.isfinite(x) for x in numbers):
            problems.append(f"non-finite field in N={N} replicate={rep}")
        if row[9] not in ("true", "false"):
            problems.append(f"bad violated flag {row[9]!r}")
            continue
        violated = row[9] == "true"
        out["violations"] += violated
        if violated != _expected_violation(cfg, N, rep, estimate, bound, slack):
            problems.append(f"violated flag disagrees at N={N} replicate={rep}")
    if (code == 3) != (out["violations"] > 0):
        problems.append(f"exit code {code} with {out['violations']} violated cells")
    return out
