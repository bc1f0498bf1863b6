"""Brute-force reference solvers.

These trade speed for auditability and exist to cross-check the real
solvers on tiny instances: exhaustive enumeration of feasible schedules,
exact backward induction over the whole state space, and grid search for
the hourly dispatch.  Single-threaded on purpose.
"""

from math import fsum

import numpy as np

from .core import generation_cost
from .dispatch import DispatchResult
from .errors import InfeasibleDispatchError, NoFeasiblePlanError, TooLargeError
from .mdp import BIG, ScheduleSolution, SystemState, UnitCommitmentMDP, all_statuses


def exhaustive_optimum(env: UnitCommitmentMDP) -> ScheduleSolution:
    """Depth-first enumeration of every feasible action sequence.

    Returns the minimum-cost plan (lexicographically smallest among
    ties).  Bounded to N*T <= 20.
    """
    if env.n_units * env.horizon > 20:
        raise TooLargeError(f"N*T = {env.n_units * env.horizon} exceeds 20")

    best_cost = float("inf")
    best_plan = None
    s0 = env.initial_state()
    prefix: list = []

    def walk(status, hour, acc):
        nonlocal best_cost, best_plan
        if hour == env.horizon:
            if acc < best_cost:
                best_cost = acc
                best_plan = list(prefix)
            return
        cands = env._feasible_ints(status, hour)
        for aint, r in zip(cands, env.rewards(status, hour, cands)):
            bits = env._bits_of(aint)
            prefix.append(bits)
            walk(env._advance(status, bits), hour + 1, acc - r)
            prefix.pop()

    walk(s0.status, 0, 0.0)
    if best_plan is None:
        raise NoFeasiblePlanError("every branch reaches a state with no feasible action")
    return env.replay(best_plan, s0)


def exact_dp(env: UnitCommitmentMDP) -> dict[tuple[int, tuple[int, ...]], float]:
    """Exact optimal values by backward induction over all valid states.

    Keeps the full signed counters (start-up cost depends on true off
    hours up to the cap); bounded to N <= 2.
    """
    if env.n_units > 2:
        raise TooLargeError(f"N = {env.n_units} exceeds 2")
    statuses = list(all_statuses(env.n_units))
    values: dict[tuple[int, tuple[int, ...]], float] = {}
    for status in statuses:
        values[(env.horizon, status)] = 0.0
    for hour in range(env.horizon - 1, -1, -1):
        for status in statuses:
            best = -float("inf")
            cands = env._feasible_ints(status, hour)
            for aint, r in zip(cands, env.rewards(status, hour, cands)):
                v = r + values[(hour + 1, env._advance(status, env._bits_of(aint)))]
                if v > best:
                    best = v
            values[(hour, status)] = best if best > -float("inf") else -BIG
    return values


def dp_greedy_solution(env: UnitCommitmentMDP, values) -> ScheduleSolution:
    """Greedy readout of the exact value function from the initial state."""
    state = env.initial_state()
    plan = []
    for hour in range(env.horizon):
        best_a, best_v = None, -float("inf")
        cands = env._feasible_ints(state.status, hour)
        for aint, r in zip(cands, env.rewards(state.status, hour, cands)):
            bits = env._bits_of(aint)
            v = r + values[(hour + 1, env._advance(state.status, bits))]
            if v > best_v:
                best_a, best_v = bits, v
        if best_a is None:
            raise NoFeasiblePlanError(f"dead end at hour {hour}")
        plan.append(best_a)
        state = SystemState(env._advance(state.status, best_a), hour + 1)
    return env.replay(plan)


def grid_dispatch(action, demand: float, gens, step: float) -> DispatchResult:
    """Exhaustive grid search over the balance-feasible outputs.

    Verification oracle for the dispatch solver; at most 3 committed
    units.  Returns the cheapest grid point meeting the balance exactly
    (free units absorb the remainder, so the balance holds to float
    precision).
    """
    gens = list(gens)
    idx = [k for k, bit in enumerate(action) if bit]
    if len(idx) > 3:
        raise TooLargeError("grid dispatch supports at most 3 committed units")
    committed = [gens[k] for k in idx]
    lo = sum(g.p_min for g in committed)
    hi = sum(g.p_max for g in committed)
    if not (lo <= demand <= hi):
        raise InfeasibleDispatchError(
            f"demand {demand} outside committed range [{lo}, {hi}]"
        )

    n = len(gens)
    if not committed:
        return DispatchResult(power=(0.0,) * n, lam=0.0, cost=0.0)

    def axis(g):
        pts = np.arange(g.p_min, g.p_max, step)
        return np.append(pts, g.p_max)

    def unit_cost(g, p):
        return g.a * p * p + g.b * p + g.c

    # every unit takes a turn absorbing the balance remainder, so optima
    # sitting exactly on any unit's bound stay representable
    if len(committed) == 1:
        powers = [demand]
    elif len(committed) == 2:
        best_cost = float("inf")
        powers = None
        for free in range(2):
            g_grid = committed[1 - free]
            g_free = committed[free]
            pg = axis(g_grid)
            pf = demand - pg
            ok = (pf >= g_free.p_min) & (pf <= g_free.p_max)
            if not ok.any():
                continue
            pg, pf = pg[ok], pf[ok]
            cost = unit_cost(g_grid, pg) + unit_cost(g_free, pf)
            k = int(np.argmin(cost))
            if cost[k] < best_cost:
                best_cost = float(cost[k])
                pair = [0.0, 0.0]
                pair[1 - free] = float(pg[k])
                pair[free] = float(pf[k])
                powers = pair
        if powers is None:
            raise InfeasibleDispatchError("no grid point satisfies the balance")
    else:
        best_cost = float("inf")
        powers = None
        for free in range(3):
            i, j = [k for k in range(3) if k != free]
            gi, gj, gf = committed[i], committed[j], committed[free]
            pj = axis(gj)
            cj = unit_cost(gj, pj)
            for pi in axis(gi):
                pf = demand - pi - pj
                ok = (pf >= gf.p_min) & (pf <= gf.p_max)
                if not ok.any():
                    continue
                pjv, pfv = pj[ok], pf[ok]
                cost = unit_cost(gi, pi) + cj[ok] + unit_cost(gf, pfv)
                k = int(np.argmin(cost))
                if cost[k] < best_cost:
                    best_cost = float(cost[k])
                    triple = [0.0, 0.0, 0.0]
                    triple[i], triple[j], triple[free] = pi, float(pjv[k]), float(pfv[k])
                    powers = triple
        if powers is None:
            raise InfeasibleDispatchError("no grid point satisfies the balance")

    full = [0.0] * n
    for k, p in zip(idx, powers):
        full[k] = p
    cost = fsum(generation_cost(g, p) for g, p in zip(committed, powers))
    return DispatchResult(power=tuple(full), lam=float("nan"), cost=cost)
