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
from .errors import InfeasibleActionError, NoFeasibleActionError, TooLargeError

BIG = 1e12  # catastrophe penalty, dominates any real schedule cost

# one 0/1 commitment bit per unit, bit i commits unit i
CommitmentAction = tuple[int, ...]

# fewest memo misses in one ``rewards`` call worth one batched dispatch: a
# batch costs about 1.1-1.5 ms of numpy overhead and a scalar row 50-65 us,
# so with batched rows finishing in numpy the crossover is 24-32 rows at
# N = 8 and 16-24 at N = 12 (bundled instances, hours 3, 12 and 20)
_BATCH_MIN = 24

# most rows in one batch of ``price_day``'s day-wide pricing.  A batch
# pays about 32 bisection midpoints of numpy calls (1.7-3.1 ms) whatever its
# size, while its peak memory grows with its rows.  Pricing hours 1-23 of a
# fresh MDP, alternated in one process: ``n8_t24`` (2 494 rows over the
# day) takes 69 ms hour by hour, 23 ms at a cap of 1 024 and 17 ms from
# 4 096 up, where the day is one batch; ``n12_t24`` (39 040) gains 10% from
# 4 096 up, and its tracemalloc peak (action table built beforehand) is
# 4.7 MB at 4 096, 7.2 MB at 8 192 and 28 MB uncapped (4.5 MB hour by hour)
_DAY_BATCH_ROWS = 4096


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
    """Environment wrapper around an instance with memoised tables.

    All methods are pure with respect to observable behaviour; dispatch
    costs and feasible sets are memoized internally because every solver
    re-evaluates the same (committed set, hour) pairs many times.  The
    per-hour table of set-limit-feasible actions is built on the first
    feasible-set lookup, so replaying a plan builds none.  ``price_day``
    prices that whole table in a few dispatch batches: the first
    ``reward_bound`` call runs it, and so does the back sweep before its
    warm start, as both end up pricing (nearly) every row.  A search that
    never asks for a bound (lookahead 1) prices only what it scores, hour
    by hour.

    ``dispatch_batches`` and ``batched_rows`` count the ``dispatch_costs``
    calls and the rows they priced, ``scalar_dispatches`` the one-action
    ``economic_dispatch`` calls (memo misses and replayed hours).

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
        # by hour: the actions that pass the set limits, built on first use
        self._acts_by_hour: list[np.ndarray] | None = None
        # one int object per action; memoised feasible sets share them
        # rather than each holding its own copies (28 bytes an int)
        self._int_objects: list[int] | None = None
        self.dispatch_batches = 0
        self.batched_rows = 0
        self.scalar_dispatches = 0

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
        are solved by ``_price``: in one ``dispatch_costs`` batch when there
        are at least ``_BATCH_MIN`` of them, which is bit-identical to the
        scalar path.
        """
        starts = [
            (self._mask[i], self._startup_table[i][-st - 1])
            for i, st in enumerate(status)
            if st < 0
        ]
        off = sum(mask for mask, _ in starts)
        memo = self._dispatch_cost_memo[hour]
        costs = list(map(memo.get, aints))
        if None in costs:
            self._price([(hour, [a for a, cost in zip(aints, costs) if cost is None])])
            costs = list(map(memo.get, aints))
        bills = {0: 0.0}  # start-up bill by the set of units switched on
        out = []
        for aint, cost in zip(aints, costs):
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

        The first call runs ``price_day`` and sets the bound of every hour.
        Every cost is the scalar one, so each bound is the one an hourly
        pricing gives.
        """
        if self._reward_bounds[hour] is None:
            self.price_day()
            all_on = (1,) * self.n_units
            self._reward_bounds = [
                max(self.rewards(all_on, h, self._feasible_for_locks(h, 0, 0)), default=-inf)
                for h in range(self.horizon)
            ]
        return self._reward_bounds[hour]

    def price_day(self) -> None:
        """Memoise the dispatch cost of every action that passes its hour's
        set limits, for every hour of the day.

        The costs not yet memoised are priced in batches of whole hours,
        each row against its own hour's demand, so the day costs a few
        ``dispatch_costs`` calls where one per hour costs far more.  A batch
        takes another hour only while it stays within ``_DAY_BATCH_ROWS``
        rows; an hour above that is priced alone.  Every cost is the scalar
        one, so the memo ends up as an hourly pricing leaves it.
        """
        pending, size = [], 0
        for h in range(self.horizon):
            memo = self._dispatch_cost_memo[h]
            unpriced = [a for a in self._feasible_for_locks(h, 0, 0) if a not in memo]
            if pending and size + len(unpriced) > _DAY_BATCH_ROWS:
                self._price(pending)
                pending, size = [], 0
            pending.append((h, unpriced))
            size += len(unpriced)
        self._price(pending)

    def _price(self, pending) -> None:
        """Memoise the dispatch costs of ``(hour, bit-packed actions)`` pairs:
        in one ``dispatch_costs`` batch when there are at least
        ``_BATCH_MIN`` actions, else one ``dispatch_cost_int`` each."""
        aints = list(itertools.chain.from_iterable(batch for _, batch in pending))
        if len(aints) < _BATCH_MIN:
            for h, batch in pending:
                for aint in batch:
                    self.dispatch_cost_int(aint, h)
            return
        bits = (np.array(aints)[:, None] & np.array(self._mask)) != 0
        demand = self.instance.profile.demand
        demands = np.repeat([demand[h] for h, _ in pending], [len(b) for _, b in pending])
        costs = dispatch_costs(bits, demands, self._gens)
        self.dispatch_batches += 1
        self.batched_rows += len(aints)
        start = 0
        for h, batch in pending:
            self._dispatch_cost_memo[h].update(zip(batch, costs[start:start + len(batch)]))
            start += len(batch)

    def dispatch_cost(self, action, hour: int) -> float:
        return self.dispatch_cost_int(self._int_of(action), hour)

    def schedule_cost(self, plan) -> CostBreakdown:
        return self.replay(plan).cost

    def replay(self, plan) -> ScheduleSolution:
        """Execute a plan step by step from the initial state, collecting
        dispatches and costs.

        Raises InfeasibleActionError carrying the offending step index.
        Totals are exact (fsum over per-unit cost terms).
        """
        state = self.initial_state()
        plan = tuple(tuple(a) for a in plan)
        if len(plan) != self.horizon:
            raise ValueError(f"plan length {len(plan)} != horizon {self.horizon}")
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
            self.scalar_dispatches += 1
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

    def rollout(self, choose) -> ScheduleSolution:
        """Receding-horizon loop shared by the planners.

        Commits ``choose(state, previous action or None) -> (action, step
        value)`` hour by hour from the initial state, then replays the plan
        with those step values.  A NoFeasibleActionError from ``choose`` is
        re-raised carrying the step it stopped at.
        """
        state = self.initial_state()
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
        return replace(self.replay(actions), step_values=tuple(values))

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
        """Counters one hour on: a committed unit counts up from 1, an idle
        one down from -1, each saturating at the cap."""
        return tuple([
            (st + 1 if 0 < st < STATUS_CAP else 1 if st < 0 else STATUS_CAP) if bit
            else (st - 1 if -STATUS_CAP < st < 0 else -1 if st > 0 else -STATUS_CAP)
            for st, bit in zip(status, action)
        ])

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
        and ``~aint & off_lock``.  Each unit's two child counters are
        ``_advance``'s, tested as ``_lock_masks`` tests them."""
        cap = STATUS_CAP
        on_lock = off_lock = 0
        for st, t_up, t_down, m in zip(status, self._t_up, self._t_down, self._mask):
            up = st + 1 if 0 < st < cap else 1 if st < 0 else cap
            if 0 < up < t_up:
                on_lock |= m
            down = st - 1 if -cap < st < 0 else -1 if st > 0 else -cap
            if -t_down < down < 0:
                off_lock |= m
        return on_lock, off_lock

    def _feasible_ints(self, status, hour: int) -> tuple[int, ...]:
        """Feasible actions as bit-packed integers, ascending (= lex on
        bit tuples, MSB is unit 0)."""
        return self._feasible_for_locks(hour, *self._lock_masks(status))

    def _feasible_for_locks(self, hour: int, lock_on: int, lock_off: int) -> tuple[int, ...]:
        """Actions at ``hour`` that keep these lock masks and pass the set
        limits, ascending; memoised per hour by the masks.  The first call
        filters all 2^N actions by every hour's set limits, and raises
        TooLargeError, before allocating it, when that table cannot be
        indexed, and when it does not fit in memory."""
        memo = self._feasible_memo[hour]
        key = lock_on << self.n_units | lock_off
        feas = memo.get(key)
        if feas is None:
            if self._acts_by_hour is None:
                n = self.n_units
                try:
                    # numpy cannot even size an int64 array of 2**N entries
                    if 8 << n > np.iinfo(np.intp).max:
                        raise MemoryError
                    ints = np.arange(1 << n, dtype=np.int64)
                    lo, hi = _set_limit_sums(ints, self._mask, self._gens)
                    self._int_objects = ints.tolist()
                    profile = self.instance.profile
                    # set last, so that a build that fails leaves no table
                    self._acts_by_hour = [
                        ints[(lo <= d) & (hi >= d + r)]
                        for d, r in zip(profile.demand, profile.reserve)
                    ]
                except MemoryError:
                    raise TooLargeError(
                        f"N = {n} units: the table of 2**{n} = {1 << n} actions "
                        "does not fit in memory"
                    ) from None
            arr = self._acts_by_hour[hour]
            sel = arr[((arr & lock_on) == lock_on) & ((arr & lock_off) == 0)]
            objects = self._int_objects
            # through a list: tuple(map(...)) resizes while it fills, which
            # raised peak RSS a little more on every repeated solve
            feas = tuple([objects[a] for a in sel.tolist()])
            memo[key] = feas
        return feas

    def _bits_of(self, aint: int) -> CommitmentAction:
        return tuple([1 if aint & m else 0 for m in self._mask])

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
            self.scalar_dispatches += 1
            memo[aint] = cost
        return cost
