"""Correctness gate for one finished ``uc solve``, read back from its files.

``harness.run`` audits a plan by replaying it twice with the same code, so
that audit cannot fail.  This gate instead checks what the solve wrote to
disk (``schedule.csv`` and ``summary.json``) against the instance:

* a fresh ``UnitCommitmentMDP.replay`` of the committed bits succeeds
  (up/down locks and set limits) and matches the summary objective;
* every hour's output balances demand and the committed capacity covers
  demand plus reserve;
* every hour's output admits a single marginal price (equal incremental
  cost), checked by this file's own code from the written powers;
* the cost columns of ``schedule.csv`` add up to the summary objective;
* optionally, the committed bits match a pinned digest.

It needs ``ucplan`` importable (``src`` on ``sys.path``).
"""

import csv
import hashlib
import json
import math
from math import fsum
from pathlib import Path

from ucplan.errors import UnitCommitmentError
from ucplan.mdp import UnitCommitmentMDP

REL_TOL = 1e-9  # balance, objective and cost-sum agreement
KKT_TOL = 1e-6  # $/MWh, the bound the repository's dispatch tests use
HEADER = ["hour", "unit_id", "committed", "power_mw", "gen_cost_usd", "startup_cost_usd"]


def plan_digest(bits) -> str:
    """Short digest of a commitment plan given as rows of 0/1 per hour."""
    text = "\n".join("".join(str(b) for b in row) for row in bits)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def price_gap(gens, powers) -> float:
    """How far the committed outputs are from sharing one marginal price.

    A unit strictly inside its range needs marginal cost ``2aP + b`` equal
    to the price, one at ``p_max`` a marginal cost at most the price, one
    at ``p_min`` at least the price.  Returns by how much the tightest
    lower bound on the price exceeds the tightest upper bound (0 when some
    price satisfies every unit).
    """
    lower, upper = -math.inf, math.inf
    for g, p in zip(gens, powers):
        marginal = 2.0 * g.a * p + g.b
        tol = 1e-9 * max(1.0, g.p_max)
        at_max = p >= g.p_max - tol
        at_min = p <= g.p_min + tol
        if at_max and at_min:
            continue  # p_min == p_max: output is fixed, any price works
        if not at_min:
            lower = max(lower, marginal)
        if not at_max:
            upper = min(upper, marginal)
    return max(0.0, lower - upper)


def read_schedule(path, n_units: int, horizon: int):
    """Rows of ``schedule.csv`` grouped by hour, each (bit, power, gen, start)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != HEADER:
            raise ValueError("schedule.csv header differs from the documented columns")
        rows = list(reader)
    if len(rows) != n_units * horizon:
        raise ValueError(f"schedule.csv has {len(rows)} rows, expected {n_units * horizon}")
    hours = []
    for k, row in enumerate(rows):
        hour, unit = divmod(k, n_units)
        if len(row) != len(HEADER) or (int(row[0]), int(row[1])) != (hour, unit):
            raise ValueError(f"schedule.csv row {k + 1} is not (hour {hour}, unit {unit})")
        bit = int(row[2])
        if bit not in (0, 1):
            raise ValueError(f"schedule.csv row {k + 1}: committed must be 0 or 1")
        if unit == 0:
            hours.append([])
        hours[-1].append((bit, float(row[3]), float(row[4]), float(row[5])))
    return hours


def check_run(run_dir, instance, expected_digest: str | None = None):
    """Check one solve's output directory.

    Returns ``(problems, digest, objective)``: the list of failed checks
    (empty when the solve passes), the plan digest and the summary
    objective.  ``digest`` and ``objective`` are None when the files
    cannot be read at all.
    """
    run_dir = Path(run_dir)
    gens = instance.generators
    demand = instance.profile.demand
    reserve = instance.profile.reserve
    try:
        objective = float(json.loads((run_dir / "summary.json").read_text())["objective_usd"])
        hours = read_schedule(run_dir / "schedule.csv", len(gens), instance.horizon)
    except (OSError, KeyError, TypeError, ValueError) as err:
        return [f"unreadable output: {err}"], None, None

    problems = []
    bits = [tuple(row[0] for row in hour) for hour in hours]
    digest = plan_digest(bits)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"plan digest {digest} != pinned {expected_digest}")

    try:
        replayed = UnitCommitmentMDP(instance).replay(bits).cost.objective
    except UnitCommitmentError as err:
        problems.append(f"replay rejects the plan: {err}")
    else:
        if not _close(replayed, objective):
            problems.append(f"replay objective {replayed!r} != summary {objective!r}")

    for t, hour in enumerate(hours):
        on = [(g, p) for g, (bit, p, _, _) in zip(gens, hour) if bit]
        if any(p != 0.0 for bit, p, _, _ in hour if not bit):
            problems.append(f"hour {t}: an uncommitted unit has output")
        if any(not g.p_min - 1e-9 * g.p_max <= p <= g.p_max * (1 + 1e-9) for g, p in on):
            problems.append(f"hour {t}: a committed unit is outside [p_min, p_max]")
        total = fsum(p for _, p in on)
        if not _close(total, demand[t]):
            problems.append(f"hour {t}: output {total!r} != demand {demand[t]!r}")
        if sum(g.p_max for g, _ in on) < demand[t] + reserve[t]:
            problems.append(f"hour {t}: committed capacity below demand + reserve")
        gap = price_gap([g for g, _ in on], [p for _, p in on])
        if gap > KKT_TOL:
            problems.append(f"hour {t}: no common marginal price (gap {gap:.3g} $/MWh)")

    csv_total = fsum(gen + start for hour in hours for _, _, gen, start in hour)
    if not _close(csv_total, objective):
        problems.append(f"schedule.csv costs sum to {csv_total!r}, summary says {objective!r}")
    return problems, digest, objective
