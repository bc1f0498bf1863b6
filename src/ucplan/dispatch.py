"""Hourly economic dispatch for a committed set of units.

Separable convex subproblem: minimize the sum of quadratic generation
costs subject to the load-balance equality and per-unit output boxes.
Solved by equal-incremental-cost search: bisection on the shared marginal
price lambda, where each unit's response is its cost-minimizing output at
that price clipped to its box.  Linear-cost units (a == 0) respond as a
step function and are filled in merit order of b, ties by generator id.

``economic_dispatch`` is the scalar reference.  ``dispatch_costs`` runs the
same bisection for many committed sets at once on numpy vectors and returns
costs equal to the scalar ones bit for bit.
"""

from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import GeneratorSpec, generation_cost
from .errors import InfeasibleDispatchError

_MAX_BISECT = 200
# an np.sum over at most N terms of a committed set differs from fsum by at
# most (N + 1) * 2**-53 of the set's capacity; this bound holds while N < 9000
_SUM_MARGIN = 1e-12


@dataclass(frozen=True, slots=True)
class DispatchResult:
    """Optimal hourly outputs for one committed set.

    ``power`` is indexed by position in the generator sequence, zero for
    uncommitted units.  ``lam`` is the marginal price at the optimum (the
    equal incremental cost when the optimum is interior).  ``degenerate``
    flags a tie among equal-priced linear units resolved by id order.
    """

    power: tuple[float, ...]
    lam: float
    cost: float
    degenerate: bool = False


def check_set_limits(action, demand: float, reserve: float, gens) -> bool:
    """True iff the committed set can cover demand and demand+reserve.

    Lower condition: committed minimum outputs must not exceed demand.
    Upper condition: committed capacity must cover demand plus reserve.
    """
    lo = 0.0
    hi = 0.0
    for bit, g in zip(action, gens):
        if bit:
            lo += g.p_min
            hi += g.p_max
    return lo <= demand and hi >= demand + reserve


def _response(lam: float, committed: list[GeneratorSpec]) -> list[float]:
    """Per-unit cost-minimizing output at marginal price ``lam``."""
    out = []
    for g in committed:
        if g.a > 0:
            p = (lam - g.b) / (2.0 * g.a)
            if p < g.p_min:
                p = g.p_min
            elif p > g.p_max:
                p = g.p_max
            out.append(p)
        else:
            # step response: full output once the price clears b
            out.append(g.p_max if lam > g.b else g.p_min)
    return out


def _fill_at_price(lam, demand, committed):
    """Resolve a dispatch whose optimum sits on a linear unit's price step.

    Quadratic units follow their price response; linear units strictly
    cheaper than ``lam`` run at p_max, strictly dearer at p_min, and the
    marginal ones (b == lam) absorb the remainder in (b, id) merit order.
    """
    tol_b = 1e-9 * max(1.0, abs(lam))
    powers = []
    marginal = []
    for k, g in enumerate(committed):
        if g.a > 0:
            p = min(max((lam - g.b) / (2.0 * g.a), g.p_min), g.p_max)
        elif g.b < lam - tol_b:
            p = g.p_max
        elif g.b > lam + tol_b:
            p = g.p_min
        else:
            p = g.p_min
            marginal.append(k)
        powers.append(p)

    remainder = demand - fsum(powers)
    if remainder < 0:
        remainder = 0.0
    headroom = sum(committed[k].p_max - committed[k].p_min for k in marginal)
    degenerate = len(marginal) >= 2 and 0.0 < remainder < headroom
    marginal.sort(key=lambda k: (committed[k].b, committed[k].id))
    for k in marginal:
        take = min(remainder, committed[k].p_max - committed[k].p_min)
        powers[k] += take
        remainder -= take
        if remainder <= 0:
            break
    return powers, degenerate


def _polish_balance(powers, lam, demand, committed):
    """Zero the leftover bisection residual on strictly interior units.

    Shifts interior quadratic units along the equal-incremental-cost line
    (all moves correspond to one price shift, preserving the optimality
    conditions), then dumps the last sub-ulp remainder into the single
    interior unit with the most headroom.  Returns the adjusted price.
    """
    def interior():
        return [
            k
            for k, g in enumerate(committed)
            if g.a > 0
            and g.p_min + 1e-9 * g.p_max < powers[k] < g.p_max - 1e-9 * g.p_max
        ]

    resid = demand - fsum(powers)
    inner = interior()
    if resid != 0.0 and len(inner) > 1:
        wsum = sum(1.0 / (2.0 * committed[k].a) for k in inner)
        dlam = resid / wsum
        for k in inner:
            g = committed[k]
            powers[k] = min(max(powers[k] + dlam / (2.0 * g.a), g.p_min), g.p_max)
        lam += dlam
        resid = demand - fsum(powers)
        inner = interior()
    if resid != 0.0 and inner:
        k = max(inner, key=lambda k: min(committed[k].p_max - powers[k], powers[k] - committed[k].p_min))
        g = committed[k]
        moved = min(max(powers[k] + resid, g.p_min), g.p_max)
        if len(inner) == 1 or len(interior()) == 1:
            lam = 2.0 * g.a * moved + g.b  # keep the certificate exact
        powers[k] = moved
    return lam


def economic_dispatch(action, demand: float, gens) -> DispatchResult:
    """Minimum-cost power allocation for the committed units of ``action``.

    Requires sum(p_min) <= demand <= sum(p_max) over committed units,
    otherwise InfeasibleDispatchError.  The balance residual is driven
    below 1e-9 relative; interior units satisfy 2*a*P + b == lam exactly
    by construction.
    """
    gens = list(gens)
    idx = [k for k, bit in enumerate(action) if bit]
    committed = [gens[k] for k in idx]

    lo_cap = sum(g.p_min for g in committed)
    hi_cap = sum(g.p_max for g in committed)
    if not (lo_cap <= demand <= hi_cap):
        raise InfeasibleDispatchError(
            f"demand {demand} outside committed range [{lo_cap}, {hi_cap}]"
        )

    n = len(gens)
    if not committed:
        return DispatchResult(power=(0.0,) * n, lam=0.0, cost=0.0)

    lam_lo = min(g.b for g in committed)
    lam_hi = max(2.0 * g.a * g.p_max + g.b for g in committed)
    # with every unit at p_max a higher price adds nothing: demand then lies
    # above the fsum of the capacities but within the sum the check admits
    top = [g.p_max for g in committed]
    while fsum(p := _response(lam_hi, committed)) < demand and p != top:
        lam_hi += max(1.0, lam_hi - lam_lo)

    tol = 1e-9 * max(demand, 1e-9)
    powers = None
    degenerate = False
    lam = lam_lo
    for _ in range(_MAX_BISECT):
        lam = 0.5 * (lam_lo + lam_hi)
        p = _response(lam, committed)
        resid = fsum(p) - demand
        if abs(resid) <= tol:
            powers = p
            break
        if resid > 0:
            lam_hi = lam
        else:
            lam_lo = lam
    if powers is None:
        # bracket collapsed on a price step of the linear-cost units
        lam = 0.5 * (lam_lo + lam_hi)
        powers, degenerate = _fill_at_price(lam, demand, committed)
    else:
        lam = _polish_balance(powers, lam, demand, committed)

    full = [0.0] * n
    for k, p in zip(idx, powers):
        full[k] = p
    return DispatchResult(
        power=tuple(full), lam=lam, cost=_total_cost(powers, committed), degenerate=degenerate
    )


def _total_cost(powers, committed) -> float:
    return fsum(generation_cost(g, p) for g, p in zip(committed, powers))


def dispatch_costs(bits, demand: float, gens) -> list[float]:
    """``economic_dispatch(row, demand, gens).cost`` for every row of ``bits``.

    Runs the scalar solver's bracket, expansion, midpoints and stopping
    rule for all rows at once on numpy vectors.  ``np.sum`` stands in for
    ``fsum`` only where the two cannot decide differently: a row whose
    residual lies within ``_SUM_MARGIN`` of a decision threshold goes to
    ``economic_dispatch``, and so do empty or infeasible sets, rows whose
    bracket collapses on a linear unit's price step (the scalar solver's
    fallback) and rows still open after ``_MAX_BISECT`` steps.  A converged
    row finishes as the scalar solver does, with ``_response``,
    ``_polish_balance`` and the fsum cost, so every cost is bit-identical.
    """
    gens = list(gens)
    if len(bits) == 0:
        return []
    on = np.asarray(bits, dtype=bool)
    a, b, p_min, p_max = np.array([(g.a, g.b, g.p_min, g.p_max) for g in gens]).T.copy()
    linear = a == 0
    two_a = np.where(linear, 1.0, 2.0 * a)

    def surplus(lam, on_rows):
        """Committed output at each row's price minus demand."""
        lam = lam[:, None]
        p = lam - b
        p /= two_a
        np.maximum(p, p_min, out=p)
        np.minimum(p, p_max, out=p)
        if linear.any():
            p = np.where(linear, np.where(lam > b, p_max, p_min), p)
        return p.sum(axis=1, where=on_rows) - demand

    def over_committed(ufunc, values, initial):
        """``ufunc`` reduced over each row's committed units."""
        return ufunc.reduce(np.broadcast_to(values, on.shape), axis=1, where=on, initial=initial)

    lo_cap = over_committed(np.add, p_min, 0.0)
    hi_cap = over_committed(np.add, p_max, 0.0)
    margin = _SUM_MARGIN * np.maximum(hi_cap, demand)
    scalar = ~on.any(axis=1) | (lo_cap > demand - margin) | (hi_cap < demand + margin)

    lam_lo = over_committed(np.minimum, b, np.inf)
    lam_hi = over_committed(np.maximum, 2.0 * a * p_max + b, -np.inf)
    grow = np.flatnonzero(~scalar)
    while grow.size:
        short = surplus(lam_hi[grow], on[grow])
        unsure = np.abs(short) <= margin[grow]
        scalar[grow[unsure]] = True
        grow = grow[~unsure & (short < 0)]
        lam_hi[grow] += np.maximum(1.0, lam_hi[grow] - lam_lo[grow])

    tol = 1e-9 * max(demand, 1e-9)
    rows = np.flatnonzero(~scalar)
    lo, hi, on_rows, near = lam_lo[rows], lam_hi[rows], on[rows], margin[rows]
    done = np.zeros(len(on), dtype=bool)
    lam_done = np.empty(len(on))
    for _ in range(_MAX_BISECT):
        if not rows.size:
            break
        lam = 0.5 * (lo + hi)
        resid = surplus(lam, on_rows)
        size = np.abs(resid)
        # a midpoint equal to an end repeats forever: the price-step fallback
        stuck = (lam == lo) | (lam == hi)
        settled = (size <= tol + near) | stuck
        if settled.any():
            ok = size <= tol - near
            done[rows[ok]] = True
            lam_done[rows[ok]] = lam[ok]
            scalar[rows[settled & ~ok]] = True
            keep = ~settled
            rows, lam, resid, lo, hi = rows[keep], lam[keep], resid[keep], lo[keep], hi[keep]
            on_rows, near = on_rows[keep], near[keep]
        over = resid > 0
        hi = np.where(over, lam, hi)
        lo = np.where(over, lo, lam)
    scalar[rows] = True

    costs = [0.0] * len(on)
    for r in np.flatnonzero(done).tolist():
        lam = float(lam_done[r])
        units = [g for g, bit in zip(gens, on[r].tolist()) if bit]
        powers = _response(lam, units)
        _polish_balance(powers, lam, demand, units)
        costs[r] = _total_cost(powers, units)
    for r in np.flatnonzero(scalar).tolist():
        costs[r] = economic_dispatch(on[r].tolist(), demand, gens).cost
    return costs
