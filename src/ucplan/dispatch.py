"""Hourly economic dispatch for a committed set of units.

Separable convex subproblem: minimize the sum of quadratic generation
costs subject to the load-balance equality and per-unit output boxes.
Solved by equal-incremental-cost search: bisection on the shared marginal
price lambda, where each unit's response is its cost-minimizing output at
that price clipped to its box.  Linear-cost units (a == 0) respond as a
step function and are filled in merit order of b, ties by generator id.

``economic_dispatch`` is the scalar reference.  ``dispatch_costs`` runs the
same bisection and the same balance polish for many committed sets at once,
each against its own demand, on numpy blocks and returns costs equal to the
scalar ones bit for bit: its fsums go through ``row_fsum``, a row-wise sum
built from error-free transformations that certifies where it equals
``math.fsum``.
``kkt_violation`` certifies a returned dispatch against the optimality
conditions.
"""

from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import GeneratorSpec, generation_cost
from .errors import InfeasibleDispatchError

_MAX_BISECT = 200
# a float sum over at most N terms of a committed set, in any order of
# summation, differs from fsum by at most (N + 1) * 2**-53 of the set's
# capacity; this bound holds while N < 9000
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
    """Resolve a dispatch whose bisection bracket collapsed on a price step.

    Quadratic units follow their price response; linear units strictly
    cheaper than ``lam`` run at p_max, strictly dearer at p_min, and the
    marginal ones (b == lam) absorb the remainder in (b, id) merit order.
    What is left goes to the marginal quadratic units
    (``_balance_quadratic``).
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
    _balance_quadratic(powers, lam, tol_b, demand, committed)
    return powers, degenerate


def _balance_quadratic(powers, lam, tol_b, demand, committed):
    """Zero the balance residual of a price-step fallback on the quadratic
    units whose marginal cost is within ``tol_b`` of ``lam``.

    At a small demand one ulp of price moves a quadratic unit by more than
    the bisection's tolerance, so the bracket can collapse with no linear
    unit to take up the rest.  The residual is shared along the
    equal-incremental-cost line among the units that can move toward it,
    so all their marginal costs shift by one small price step, and shared
    again while one stops at a bound or rounding leaves a remainder.
    """
    resid = demand - fsum(powers)
    for _ in range(len(committed) + 1):
        movers = [
            k
            for k, g in enumerate(committed)
            if g.a > 0
            and abs(2.0 * g.a * powers[k] + g.b - lam) <= tol_b
            and (powers[k] < g.p_max if resid > 0 else powers[k] > g.p_min)
        ]
        if resid == 0.0 or not movers:
            return
        dlam = resid / sum(1.0 / (2.0 * committed[k].a) for k in movers)
        for k in movers:
            g = committed[k]
            powers[k] = min(max(powers[k] + dlam / (2.0 * g.a), g.p_min), g.p_max)
        resid = demand - fsum(powers)


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

    tol = 1e-9 * demand
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


def kkt_violation(result: DispatchResult, gens, action) -> float:
    """Worst-case slackness of the equal-incremental-cost conditions, in $/MWh.

    A committed unit strictly inside its box must have a marginal cost equal
    to ``result.lam``; one at ``p_max`` at most ``lam``, one at ``p_min`` at
    least ``lam``.  A unit counts as at a bound within 1e-9 of its ``p_max``
    (at least 1e-9 MW); one at both bounds has a fixed output that any price
    supports, so it is skipped.  Zero for an exact optimum.
    """
    worst = 0.0
    for g, bit, p in zip(gens, action, result.power):
        if not bit:
            continue
        marginal = 2.0 * g.a * p + g.b
        tol = 1e-9 * max(1.0, g.p_max)
        if p >= g.p_max - tol:
            if p > g.p_min + tol:
                worst = max(worst, marginal - result.lam)
        elif p <= g.p_min + tol:
            worst = max(worst, result.lam - marginal)
        else:
            worst = max(worst, abs(marginal - result.lam))
    return worst


def _total_cost(powers, committed) -> float:
    return fsum(generation_cost(g, p) for g, p in zip(committed, powers))


def _two_sum(x, y):
    """``x + y`` rounded and its exact rounding error (Knuth's TwoSum)."""
    s = x + y
    t = s - x
    return s, (x - (s - t)) + (y - t)


def row_fsum(terms):
    """``math.fsum`` of each column of ``terms``, and where it is certified.

    ``terms`` is a units x rows block, summed down each column.  The running
    sum ``s`` and its accumulated rounding error ``c`` go through TwoSum
    column by column (Ogita, Rump & Oishi, 2005); a second TwoSum on ``c``
    records what ``c`` itself loses.  When it loses nothing, ``s + c`` is the
    exact sum and ``fl(s + c)`` is fsum's correctly rounded result, ties to
    even included.  Otherwise the result stands only when the lost part,
    bounded at twice its float sum, keeps the exact sum strictly inside the
    result's rounding interval, away from any tie.  Columns that are not
    finite or sum to zero (where fsum picks the sign of the zero) are never
    certified.
    """
    cols = terms.shape[1]
    s = np.zeros(cols)
    c = np.zeros(cols)
    lost = np.zeros(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in terms:
            s, e = _two_sum(s, x)
            c, e = _two_sum(c, e)
            lost += np.abs(e)
        total, d = _two_sum(s, c)
        half_gap = np.spacing(np.abs(total)) / 4  # the smaller half-gap at a binade edge
        ok = (lost == 0) | (np.abs(d) + 2 * lost < half_gap)
        ok &= np.isfinite(total) & (total != 0)
    return total, ok


def _finish(lam, on, demand, a, b, c, p_min, p_max):
    """Costs of converged rows as ``_response``, ``_polish_balance`` and
    ``_total_cost`` give them, computed on a units x rows block.

    ``lam`` holds each row's converged price and ``on`` its committed units,
    one column per row.  Sums run as the scalar code runs them: every fsum
    through ``row_fsum`` and ``wsum`` unit by unit, left to right.  Returns
    the costs and a mask of the rows whose every fsum is certified and whose
    powers pass ``generation_cost``'s bounds check; the others must be
    solved by ``economic_dispatch``.
    """
    a, b, c, p_min, p_max = (v[:, None] for v in (a, b, c, p_min, p_max))
    quad = a > 0
    two_a = np.where(quad, 2.0 * a, 1.0)  # 1.0 keeps linear units out of 1/(2a)
    lo_in = p_min + 1e-9 * p_max
    hi_in = p_max - 1e-9 * p_max

    def interior(p):
        return on & quad & (lo_in < p) & (p < hi_in)

    p = lam - b
    p /= two_a
    np.maximum(p, p_min, out=p)
    np.minimum(p, p_max, out=p)
    for j in np.flatnonzero(~quad):
        p[j] = np.where(lam > b[j], p_max[j], p_min[j])
    p *= on

    total, ok = row_fsum(p)
    resid = demand - total
    inner = interior(p)
    shift = (resid != 0.0) & (np.count_nonzero(inner, axis=0) > 1)
    if shift.any():
        # equal-incremental-cost shift of the interior units
        wsum = np.zeros(len(lam))
        for w, unit_inner in zip(1.0 / two_a[:, 0], inner):
            wsum += np.where(unit_inner, w, 0.0)
        moved = resid / np.where(shift, wsum, 1.0) / two_a
        moved += p
        np.maximum(moved, p_min, out=moved)
        np.minimum(moved, p_max, out=moved)
        np.copyto(p, moved, where=inner & shift)
        total, ok_after = row_fsum(p)
        ok &= ok_after | ~shift
        resid = np.where(shift, demand - total, resid)
        inner = interior(p)
    last = np.flatnonzero((resid != 0.0) & inner.any(axis=0))
    if last.size:
        # the sub-ulp remainder goes to the first unit with the most headroom
        head = p_max - p
        np.minimum(head, p - p_min, out=head)
        head[~inner] = -np.inf
        k = head[:, last].argmax(axis=0)
        lo, hi = p_min[k, 0], p_max[k, 0]
        p[k, last] = np.minimum(np.maximum(p[k, last] + resid[last], lo), hi)

    slack = 1e-9 * np.maximum(1.0, p_max)
    ok &= ((p_min - slack <= p) & (p <= p_max + slack) | ~on).all(axis=0)
    term = a * p
    term *= p
    term += b * p
    term += c
    term *= on
    cost, ok_cost = row_fsum(term)
    return cost, ok & ok_cost


def dispatch_costs(bits, demand, gens) -> list[float]:
    """``economic_dispatch(row, demand, gens).cost`` for every row of ``bits``.

    ``demand`` is one float for every row, or one value per row.  Runs the
    scalar solver's bracket, expansion, midpoints and stopping rule for all
    rows at once on numpy vectors, each row against its own demand.  Plain
    sums stand in for ``fsum`` only where the two cannot decide differently:
    a row whose residual lies within ``_SUM_MARGIN`` of a decision threshold
    goes to ``economic_dispatch``, and so do empty or infeasible sets, rows
    whose bracket collapses on a linear unit's price step (the scalar
    solver's fallback) and rows still open after ``_MAX_BISECT`` steps.
    Converged rows finish together in ``_finish``, which repeats the scalar
    finish operation for operation with certified fsums; a row it cannot
    certify goes to ``economic_dispatch`` too, so every cost (or error) is
    the scalar one.
    """
    gens = list(gens)
    if len(bits) == 0:
        return []
    on = np.asarray(bits, dtype=bool)
    on_f = on.astype(float)
    demand = np.broadcast_to(np.asarray(demand, dtype=float), len(on))
    a, b, c, p_min, p_max = np.array([(g.a, g.b, g.c, g.p_min, g.p_max) for g in gens]).T.copy()
    linear = ~(a > 0)
    two_a = np.where(linear, 1.0, 2.0 * a)
    step_units = np.flatnonzero(linear)

    def surplus(lam, on_rows, need):
        """Committed output at each row's price minus its demand."""
        lam = lam[:, None]
        p = lam - b
        p /= two_a
        np.maximum(p, p_min, out=p)
        np.minimum(p, p_max, out=p)
        for j in step_units:
            p[:, j] = np.where(lam[:, 0] > b[j], p_max[j], p_min[j])
        return np.einsum("ij,ij->i", p, on_rows) - need

    lo_cap = np.einsum("ij,j->i", on_f, p_min)
    hi_cap = np.einsum("ij,j->i", on_f, p_max)
    margin = _SUM_MARGIN * np.maximum(hi_cap, demand)
    scalar = ~on.any(axis=1) | (lo_cap > demand - margin) | (hi_cap < demand + margin)

    lam_lo = np.where(on, b, np.inf).min(axis=1)
    lam_hi = np.where(on, 2.0 * a * p_max + b, -np.inf).max(axis=1)
    grow = np.flatnonzero(~scalar)
    while grow.size:
        short = surplus(lam_hi[grow], on_f[grow], demand[grow])
        unsure = np.abs(short) <= margin[grow]
        scalar[grow[unsure]] = True
        grow = grow[~unsure & (short < 0)]
        lam_hi[grow] += np.maximum(1.0, lam_hi[grow] - lam_lo[grow])

    rows = np.flatnonzero(~scalar)
    lo, hi, on_rows, near = lam_lo[rows], lam_hi[rows], on_f[rows], margin[rows]
    need = demand[rows]
    tol = 1e-9 * need
    done = np.zeros(len(on), dtype=bool)
    lam_done = np.empty(len(on))
    for _ in range(_MAX_BISECT):
        if not rows.size:
            break
        lam = 0.5 * (lo + hi)
        resid = surplus(lam, on_rows, need)
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
            near, need, tol = near[keep], need[keep], tol[keep]
            on_rows = np.compress(keep, on_rows, axis=0)  # faster than on_rows[keep]
        over = resid > 0
        hi = np.where(over, lam, hi)
        lo = np.where(over, lo, lam)
    scalar[rows] = True

    finished = np.flatnonzero(done)
    cost, ok = _finish(
        lam_done[finished], on[finished].T, demand[finished], a, b, c, p_min, p_max
    )
    scalar[finished[~ok]] = True
    costs = np.zeros(len(on))
    costs[finished] = cost
    costs = costs.tolist()
    for r in np.flatnonzero(scalar).tolist():
        costs[r] = economic_dispatch(on[r].tolist(), float(demand[r]), gens).cost
    return costs
