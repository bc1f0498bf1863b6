"""Deterministic MDP view of a unit-commitment instance.

A state is the vector of signed on/off hour counters plus the hour index;
an action is one commitment bit per unit.  Transitions advance counters
(saturating at +/-24), feasibility combines the minimum up/down locks
with the hourly set-generation limits, and the reward is minus the hour's
dispatch cost minus start-up costs of units switching on.
``UnitCommitmentMDP.rewards`` is the one definition of that reward; every
solver and oracle scores actions through it.

States with no feasible action ("catastrophe" states) are valued at
``-BIG`` inside the solvers so that any feasible continuation dominates.
"""

import itertools
from dataclasses import dataclass, replace
from math import fsum, inf

import numpy as np

from .core import (
    STATUS_CAP,
    CostBreakdown,
    ProblemInstance,
    generation_cost,
    startup_cost,
)
from .dispatch import DispatchResult, check_set_limits, dispatch_costs, economic_dispatch
from .errors import InfeasibleActionError, NoFeasibleActionError

BIG = 1e12  # catastrophe penalty, dominates any real schedule cost

# one 0/1 commitment bit per unit, bit i commits unit i
CommitmentAction = tuple[int, ...]

# full 2^N action tables are only precomputed up to this fleet size
_TABLE_LIMIT = 16

# free-unit combinations the generic feasible-set path scores per numpy chunk
_GENERIC_CHUNK = 1 << 16

# fewest memo misses in one ``rewards`` call worth one batched dispatch: the
# batch costs about 1 ms of numpy overhead; measured crossover 20 rows at
# N = 12, 28 at N = 8
_BATCH_MIN = 24


def _set_limit_sums(aints: np.ndarray, masks, gens) -> tuple[np.ndarray, np.ndarray]:
    """Committed ``p_min`` and ``p_max`` sums of bit-packed actions, added
    unit by unit, left to right, exactly as ``check_set_limits`` adds them."""
    lo = np.zeros(len(aints))
    hi = np.zeros(len(aints))
    for m, g in zip(masks, gens):
        on = (aints & m) != 0
        lo += np.where(on, g.p_min, 0.0)
        hi += np.where(on, g.p_max, 0.0)
    return lo, hi


def all_statuses(n_units: int):
    """Every valid signed counter vector, in lexicographic order."""
    signed = [s for s in range(-STATUS_CAP, STATUS_CAP + 1) if s != 0]
    return itertools.product(signed, repeat=n_units)


@dataclass(frozen=True, slots=True)
class SystemState:
    """Signed on/off counters for every unit plus the hour index."""

    status: tuple[int, ...]
    hour: int


@dataclass(frozen=True, slots=True)
class ScheduleSolution:
    """A full-horizon commitment plan with its dispatches and cost."""

    actions: tuple[CommitmentAction, ...]
    states: tuple[SystemState, ...]  # trajectory, one longer than actions
    dispatches: tuple[DispatchResult, ...]
    cost: CostBreakdown
    step_values: tuple[float, ...] | None = None

    @property
    def objective(self) -> float:
        return self.cost.objective

    @property
    def terminal_state(self) -> SystemState:
        return self.states[-1]


class UnitCommitmentMDP:
    """Environment wrapper around an instance with precomputed tables.

    All methods are pure with respect to observable behaviour; dispatch
    costs are memoized internally because every solver re-evaluates the
    same (committed set, hour) pairs many times.

    Every start-up price must be >= 0, as it is when ``e, f >= 0`` (which
    ``validate_instance`` checks): ``reward_bound`` relies on it.
    """

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.n_units = instance.n_units
        self.horizon = instance.horizon
        gens = instance.generators
        self._gens = gens
        self._t_up = tuple(g.t_up for g in gens)
        self._t_down = tuple(g.t_down for g in gens)
        n = self.n_units
        self._mask = tuple(1 << (n - 1 - i) for i in range(n))
        # start-up price by hours off, saturated at the counter cap
        self._startup_table = tuple(
            tuple(startup_cost(g, t) for t in range(1, STATUS_CAP + 1)) for g in gens
        )
        # by hour: bit-packed action -> dispatch cost
        self._dispatch_cost_memo: list[dict[int, float]] = [{} for _ in range(self.horizon)]
        # by hour, keyed lock-on mask << N | lock-off mask: the feasible actions
        self._feasible_memo: list[dict[int, tuple[int, ...]]] = [
            {} for _ in range(self.horizon)
        ]
        # by hour: ``reward_bound``, built on first use
        self._reward_bounds: list[float | None] = [None] * self.horizon

        if n <= _TABLE_LIMIT:
            ints = np.arange(1 << n, dtype=np.int64)
            bits = (ints[:, None] >> np.arange(n - 1, -1, -1)) & 1
            sum_min, sum_max = _set_limit_sums(ints, self._mask, gens)
            demand = np.array(instance.profile.demand)
            reserve = np.array(instance.profile.reserve)
            ok = (sum_min[:, None] <= demand) & (sum_max[:, None] >= demand + reserve)
            self._acts_by_hour = [ints[ok[:, t]] for t in range(self.horizon)]
            self._bits_table = tuple(map(tuple, bits.tolist()))
            # one int object per action; memoised feasible sets share them
            # rather than each holding its own copies (28 bytes an int)
            self._int_objects = ints.tolist()
        else:
            self._acts_by_hour = None
            self._bits_table = None
            self._int_objects = None

    # -- state space ----------------------------------------------------

    def initial_state(self) -> SystemState:
        return SystemState(tuple(g.initial_status for g in self._gens), 0)

    def transition(self, state: SystemState, action: CommitmentAction) -> SystemState:
        """Advance one hour; raises InfeasibleActionError on lock or limit
        violations."""
        if state.hour >= self.horizon:
            raise InfeasibleActionError(f"no decision at terminal hour {state.hour}")
        self._check_action(state, action)
        return SystemState(self._advance(state.status, action), state.hour + 1)

    def feasible_actions(self, state: SystemState) -> list[CommitmentAction]:
        """All actions satisfying the up/down locks and set generation
        limits at this hour, in lexicographic bit order."""
        if state.hour >= self.horizon:
            return []
        return [self._bits_of(a) for a in self._feasible_ints(state.status, state.hour)]

    def is_catastrophe(self, state: SystemState) -> bool:
        if state.hour >= self.horizon:
            return False
        return not self._feasible_for_locks(state.hour, *self._lock_masks(state.status))

    def child_dead_end(self, status, hour: int):
        """Predicate on a bit-packed action from ``status`` at ``hour``:
        whether its child at ``hour + 1`` is a catastrophe state.

        The child's locks are read off the parent as bit masks, once per
        call and without building the child's status; the predicate looks
        each child's feasible set up by those masks.
        """
        if hour + 1 >= self.horizon:
            return lambda aint: False
        on_lock, off_lock = self._child_lock_masks(status)
        feasible = self._feasible_for_locks
        return lambda aint: not feasible(hour + 1, aint & on_lock, ~aint & off_lock)

    # -- rewards and replay ----------------------------------------------

    def reward(self, state, action) -> float:
        """``rewards`` of one action tuple."""
        return self.rewards(state.status, state.hour, [self._int_of(action)])[0]

    def rewards(self, status, hour: int, aints) -> list[float]:
        """Reward of each bit-packed action from ``status`` at ``hour``.

        Minus the sum of the hour's dispatch cost and the exact (fsum)
        start-up bill of the units switching off -> on.  This is the only
        definition of the hourly reward.  Dispatch costs not yet memoised
        are solved in one ``dispatch_costs`` batch when there are at least
        ``_BATCH_MIN`` of them; the batch is bit-identical to the scalar path.
        """
        starts = [
            (self._mask[i], self._startup_table[i][-st - 1])
            for i, st in enumerate(status)
            if st < 0
        ]
        off = sum(mask for mask, _ in starts)
        memo = self._dispatch_cost_memo[hour]
        costs = list(map(memo.get, aints))
        missing = [k for k, cost in enumerate(costs) if cost is None]
        if len(missing) >= _BATCH_MIN:
            batch = [aints[k] for k in missing]
            bits = (np.array(batch)[:, None] & np.array(self._mask)) != 0
            demand = self.instance.profile.demand[hour]
            for k, aint, cost in zip(missing, batch, dispatch_costs(bits, demand, self._gens)):
                memo[aint] = costs[k] = cost
        bills = {0: 0.0}  # start-up bill by the set of units switched on
        out = []
        for aint, cost in zip(aints, costs):
            if cost is None:
                cost = self.dispatch_cost_int(aint, hour)
            on = aint & off
            if on not in bills:
                bills[on] = fsum([price for mask, price in starts if on & mask])
            out.append(-(cost + bills[on]))
        return out

    def reward_bound(self, hour: int) -> float:
        """Upper bound on every ``rewards`` entry at ``hour``, from any status.

        The largest minus dispatch cost over the actions that pass the
        hour's set limits, -inf if none does.  Start-up bills are >= 0, so
        no reward exceeds its action's minus dispatch cost; priced from a
        status with every unit on, which bills no start-up.
        """
        bound = self._reward_bounds[hour]
        if bound is None:
            aints = self._feasible_for_locks(hour, 0, 0)
            all_on = (1,) * self.n_units
            bound = max(self.rewards(all_on, hour, aints), default=-inf)
            self._reward_bounds[hour] = bound
        return bound

    def dispatch_cost(self, action, hour: int) -> float:
        return self.dispatch_cost_int(self._int_of(action), hour)

    def schedule_cost(self, plan, start: SystemState | None = None) -> CostBreakdown:
        return self.replay(plan, start).cost

    def replay(self, plan, start: SystemState | None = None) -> ScheduleSolution:
        """Execute a plan step by step, collecting dispatches and costs.

        Raises InfeasibleActionError carrying the offending step index.
        Totals are exact (fsum over per-unit cost terms).
        """
        state = self.initial_state() if start is None else start
        plan = tuple(tuple(a) for a in plan)
        if len(plan) != self.horizon - state.hour:
            raise ValueError(
                f"plan length {len(plan)} != remaining horizon {self.horizon - state.hour}"
            )
        states = [state]
        dispatches = []
        gen_terms: list[float] = []
        startup_terms: list[float] = []
        for k, action in enumerate(plan):
            try:
                self._check_action(state, action)
            except InfeasibleActionError as err:
                raise InfeasibleActionError(f"step {k}: {err}", ) from None
            hour = state.hour
            result = economic_dispatch(
                action, self.instance.profile.demand[hour], self._gens
            )
            dispatches.append(result)
            for i, bit in enumerate(action):
                if bit:
                    gen_terms.append(generation_cost(self._gens[i], result.power[i]))
                    if state.status[i] < 0:
                        startup_terms.append(self._startup_table[i][-state.status[i] - 1])
            state = SystemState(self._advance(state.status, action), hour + 1)
            states.append(state)
        cost = CostBreakdown(fsum(gen_terms), fsum(startup_terms))
        return ScheduleSolution(
            actions=plan,
            states=tuple(states),
            dispatches=tuple(dispatches),
            cost=cost,
        )

    def rollout(self, s0: SystemState, choose) -> ScheduleSolution:
        """Receding-horizon loop shared by the planners.

        Commits ``choose(state, previous action or None) -> (action, step
        value)`` hour by hour from hour 0, then replays the plan with those
        step values.  A NoFeasibleActionError from ``choose`` is re-raised
        carrying the step it stopped at.
        """
        if s0.hour != 0:
            raise ValueError(f"planning starts from hour 0, not {s0.hour}")
        state = s0
        actions = []
        values = []
        for t in range(self.horizon):
            try:
                action, value = choose(state, actions[-1] if actions else None)
            except NoFeasibleActionError as err:
                raise NoFeasibleActionError(str(err), step=t) from None
            actions.append(action)
            values.append(value)
            state = self.transition(state, action)
        return replace(self.replay(actions, s0), step_values=tuple(values))

    # -- internals --------------------------------------------------------

    def _check_action(self, state: SystemState, action) -> None:
        if len(action) != self.n_units:
            raise InfeasibleActionError(
                f"action length {len(action)} != {self.n_units}"
            )
        for i, st in enumerate(state.status):
            if 0 < st < self._t_up[i] and not action[i]:
                raise InfeasibleActionError(f"unit {i} locked on (status {st})")
            if -self._t_down[i] < st < 0 and action[i]:
                raise InfeasibleActionError(f"unit {i} locked off (status {st})")
        hour = state.hour
        if not check_set_limits(
            action,
            self.instance.profile.demand[hour],
            self.instance.profile.reserve[hour],
            self._gens,
        ):
            raise InfeasibleActionError(f"set generation limits violated at hour {hour}")

    def _advance(self, status, action) -> tuple[int, ...]:
        out = []
        for st, bit in zip(status, action):
            if bit:
                out.append(min(st + 1, STATUS_CAP) if st > 0 else 1)
            else:
                out.append(max(st - 1, -STATUS_CAP) if st < 0 else -1)
        return tuple(out)

    def _lock_masks(self, status) -> tuple[int, int]:
        lock_on = 0
        lock_off = 0
        for i, st in enumerate(status):
            if 0 < st < self._t_up[i]:
                lock_on |= self._mask[i]
            elif -self._t_down[i] < st < 0:
                lock_off |= self._mask[i]
        return lock_on, lock_off

    def _child_lock_masks(self, status) -> tuple[int, int]:
        """Units a child of ``status`` has locked on if committed now, and
        locked off if not: an action's child has locks ``aint & on_lock``
        and ``~aint & off_lock``."""
        n = self.n_units
        on_lock = self._lock_masks(self._advance(status, (1,) * n))[0]
        off_lock = self._lock_masks(self._advance(status, (0,) * n))[1]
        return on_lock, off_lock

    def _feasible_ints(self, status, hour: int) -> tuple[int, ...]:
        """Feasible actions as bit-packed integers, ascending (= lex on
        bit tuples, MSB is unit 0)."""
        return self._feasible_for_locks(hour, *self._lock_masks(status))

    def _feasible_for_locks(self, hour: int, lock_on: int, lock_off: int) -> tuple[int, ...]:
        """Actions at ``hour`` that keep these lock masks and pass the set
        limits, ascending; memoised per hour by the masks."""
        memo = self._feasible_memo[hour]
        key = lock_on << self.n_units | lock_off
        feas = memo.get(key)
        if feas is None:
            if self._acts_by_hour is not None:
                arr = self._acts_by_hour[hour]
                sel = arr[((arr & lock_on) == lock_on) & ((arr & lock_off) == 0)]
                objects = self._int_objects
                # through a list: tuple(map(...)) resizes while it fills, which
                # raised peak RSS a little more on every repeated solve
                feas = tuple([objects[a] for a in sel.tolist()])
            else:
                feas = tuple(self._feasible_ints_generic(hour, lock_on, lock_off))
            memo[key] = feas
        return feas

    def _feasible_ints_generic(self, hour, lock_on, lock_off) -> list[int]:
        """Actions that keep the lock masks and pass ``check_set_limits``,
        ascending.  Enumerates the unlocked units' bits only, in numpy chunks."""
        demand = self.instance.profile.demand[hour]
        reserve = self.instance.profile.reserve[hour]
        n = self.n_units
        free = [i for i in range(n) if not (lock_on | lock_off) & self._mask[i]]
        total = 1 << len(free)
        out = []
        for start in range(0, total, _GENERIC_CHUNK):
            # combo's bits, highest first, go to the free units in unit order,
            # so ascending combos give ascending actions (int64: N <= 63)
            combo = np.arange(start, min(start + _GENERIC_CHUNK, total), dtype=np.int64)
            aints = np.full(len(combo), lock_on, dtype=np.int64)
            for k, i in enumerate(reversed(free)):
                aints |= ((combo >> k) & 1) << (n - 1 - i)
            lo, hi = _set_limit_sums(aints, self._mask, self._gens)
            out.extend(aints[(lo <= demand) & (hi >= demand + reserve)].tolist())
        return out

    def _bits_of(self, aint: int) -> CommitmentAction:
        if self._bits_table is not None:
            return self._bits_table[aint]
        n = self.n_units
        return tuple((aint >> (n - 1 - i)) & 1 for i in range(n))

    def _int_of(self, action) -> int:
        aint = 0
        for bit, m in zip(action, self._mask):
            if bit:
                aint |= m
        return aint

    def dispatch_cost_int(self, aint: int, hour: int) -> float:
        memo = self._dispatch_cost_memo[hour]
        cost = memo.get(aint)
        if cost is None:
            cost = economic_dispatch(
                self._bits_of(aint), self.instance.profile.demand[hour], self._gens
            ).cost
            memo[aint] = cost
        return cost
