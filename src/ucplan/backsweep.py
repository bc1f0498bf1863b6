"""Backward value sweep with sampled states and nearest-neighbor lookup.

``evaluate_states`` walks from the terminal hour back to hour 0.  At each
hour it samples states near an anchor, values each one with a Bellman
backup whose successor values come from nearest-neighbor lookup into the
already-valued next slice, then re-anchors on the best sampled state.
``greedy_policy`` afterwards sweeps forward once, picking the action that
maximizes reward plus the neighbor-approximated successor value.  Both
score actions with ``_score_actions``: ``UnitCommitmentMDP.rewards`` plus
the successors' neighbor values, from one matrix product per state.
"""

import numpy as np

from .core import STATUS_CAP
from .errors import EmptySliceError, HourMismatchError, NoFeasibleActionError
from .mdp import BIG, ScheduleSolution, SystemState, UnitCommitmentMDP, all_statuses

SIGN_MISMATCH_WEIGHT = 8.0
COUNTER_SCALE = 1.0


def state_distance(s1: SystemState, s2: SystemState, caps: tuple[int, ...]) -> float:
    """Weighted distance between same-hour states.

    Per unit: ``SIGN_MISMATCH_WEIGHT`` if the on/off signs differ, plus
    ``COUNTER_SCALE`` times the difference of counter magnitudes clipped at
    that unit's cap.  The solvers cap each unit at its lock horizon
    max(t_up, t_down): beyond it, counters only matter through the
    (bounded) start-up price, and states behave nearly identically.
    """
    if s1.hour != s2.hour:
        raise HourMismatchError(f"hours differ: {s1.hour} != {s2.hour}")
    total = 0.0
    for a, b, cap in zip(s1.status, s2.status, caps):
        if (a > 0) != (b > 0):
            total += SIGN_MISMATCH_WEIGHT
        total += COUNTER_SCALE * abs(min(abs(a), cap) - min(abs(b), cap))
    return total


def _clip(statuses: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Status rows with each counter clipped at its unit's cap, sign kept."""
    return np.sign(statuses) * np.minimum(np.abs(statuses), caps)


class ValueSlice:
    """States valued at one hour, queryable by nearest neighbor under
    ``state_distance`` with per-unit counter ``caps`` (each >= 1)."""

    def __init__(self, hour: int, caps: tuple[int, ...]):
        self.hour = hour
        self.caps = np.array(caps)
        self.states: list[SystemState] = []
        self.values: list[float] = []
        self._index: dict[tuple[int, ...], int] = {}
        self._cached = -1

    def add(self, state: SystemState, value: float) -> None:
        if state.hour != self.hour:
            raise HourMismatchError(f"state hour {state.hour} != slice hour {self.hour}")
        self._index.setdefault(state.status, len(self.states))
        self.states.append(state)
        self.values.append(value)

    def exact_index(self, status: tuple[int, ...]):
        return self._index.get(status)

    def arrays(self):
        """(distance table, value vector), cached.  ``table[i, K + v, j]``,
        K the largest cap, is unit ``i``'s ``state_distance`` term between a
        counter that clips to ``v`` and stored state ``j``."""
        if self._cached != len(self.states):
            stored = _clip(np.array([s.status for s in self.states]), self.caps).T.copy()[:, None]
            v = np.arange(-self.caps.max(), self.caps.max() + 1)[:, None]
            self._table = SIGN_MISMATCH_WEIGHT * ((v > 0) != (stored > 0)) + (
                COUNTER_SCALE * np.abs(np.abs(v) - np.abs(stored))
            )
            self._vals = np.array(self.values)
            self._cached = len(self.states)
        return self._table, self._vals

    def __len__(self) -> int:
        return len(self.states)


def nearest_neighbor(state: SystemState, slice_: ValueSlice) -> tuple[SystemState, float]:
    """Closest stored (state, value) pair: an exact status match, since the
    clipped distance is a pseudometric, else the first at minimum
    ``state_distance``.  ``_score_actions`` applies this rule to all actions."""
    if len(slice_) == 0:
        raise EmptySliceError(f"no states stored at hour {state.hour}")
    if state.hour != slice_.hour:
        raise HourMismatchError(f"state hour {state.hour} != slice hour {slice_.hour}")
    best = slice_.exact_index(state.status)
    if best is None:
        caps = slice_.caps.tolist()
        d = [state_distance(state, s, caps) for s in slice_.states]
        best = d.index(min(d))
    return slice_.states[best], slice_.values[best]


def sample_environment(
    anchor: SystemState, n_samples: int, rng: np.random.Generator, env: UnitCommitmentMDP
) -> list[SystemState]:
    """Distinct valid states at the anchor's hour, the anchor first.

    Each draw perturbs a geometric(0.5) number of units (capped at N),
    redrawing their counters uniformly over the valid signed range.  When
    ``n_samples`` covers the whole state space no draw is made; then, or
    if random draws stop producing new states, a deterministic fill adds
    statuses in ``all_statuses`` order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = env.n_units
    out = [anchor]
    seen = {anchor.status}
    attempts = 0
    limit = 200 * n_samples if n_samples < (2 * STATUS_CAP) ** n else 0
    while len(out) < n_samples and attempts < limit:
        attempts += 1
        m = min(int(rng.geometric(0.5)), n)
        units = rng.choice(n, size=m, replace=False)
        status = list(anchor.status)
        for i in units:
            v = int(rng.integers(0, 2 * STATUS_CAP))
            status[i] = v - STATUS_CAP if v < STATUS_CAP else v - STATUS_CAP + 1
        key = tuple(status)
        if key not in seen:
            seen.add(key)
            out.append(SystemState(key, anchor.hour))
    if len(out) < n_samples:
        for status in all_statuses(n):  # deterministic fill
            if len(out) >= n_samples:
                break
            if status not in seen:
                seen.add(status)
                out.append(SystemState(status, anchor.hour))
    return out


def _score_actions(env: UnitCommitmentMDP, state: SystemState, nxt: ValueSlice):
    """Backup score (reward + neighbor value of the successor) for every
    feasible action, with one matrix product over the next slice.

    Each unit's child counter is one of two values, off or on, so the
    distance from action row ``a`` to stored state ``j`` is ``base[j] +
    bits[a] @ delta[:, j]``, ``base`` the all-off child's and ``delta`` each
    unit's change when on.  The weights are integers and clipped counters at
    most ``STATUS_CAP``, so every partial sum is an integer far below 2**53:
    any BLAS summation order gives the same floats, hence the same first
    minima as ``nearest_neighbor``.  An exact status match still wins; only
    rows at distance 0 can hold one.

    Returns (action ints ascending, score vector); empty list from a
    catastrophe state.
    """
    acts = env._feasible_ints(state.status, state.hour)
    if not acts:
        return acts, None
    n = env.n_units
    bits = (np.array(acts)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    off = np.array(env._advance(state.status, (0,) * n))
    on = np.array(env._advance(state.status, (1,) * n))
    table, vals = nxt.arrays()
    d_off, d_on = table[np.arange(n), _clip(np.array([off, on]), nxt.caps) + nxt.caps.max()]
    dist = d_off.sum(axis=0) + bits.astype(float) @ (d_on - d_off)
    best = dist.argmin(axis=1)
    for k in np.flatnonzero(dist.min(axis=1) == 0).tolist():
        j = nxt.exact_index(tuple(np.where(bits[k], on, off).tolist()))
        if j is not None:
            best[k] = j
    rewards = np.array(env.rewards(state.status, state.hour, acts))
    return acts, rewards + vals[best]


def evaluate_states(
    n_samples: int,
    terminal_anchor: SystemState,
    env: UnitCommitmentMDP,
    rng: np.random.Generator,
) -> list[ValueSlice]:
    """Backward sweep producing one valued slice for every hour 0..T.

    The terminal slice around ``terminal_anchor`` carries value 0; each
    earlier slice is sampled around the previous sweep's best state
    (re-timed to the current hour) and valued by Bellman backups, with
    catastrophe states pinned at -BIG.  Every slice clips each unit's
    counter at its lock horizon max(t_up, t_down).
    """
    if terminal_anchor.hour != env.horizon:
        raise ValueError("terminal anchor must sit at the final hour")
    caps = tuple(max(g.t_up, g.t_down) for g in env.instance.generators)
    slices = [ValueSlice(t, caps) for t in range(env.horizon + 1)]

    for s in sample_environment(terminal_anchor, n_samples, rng, env):
        slices[env.horizon].add(s, 0.0)

    anchor_status = terminal_anchor.status
    for t in range(env.horizon - 1, -1, -1):
        anchor = SystemState(anchor_status, t)
        best_v = -float("inf")
        for s in sample_environment(anchor, n_samples, rng, env):
            _, scores = _score_actions(env, s, slices[t + 1])
            v = float(scores.max()) if scores is not None else -BIG
            slices[t].add(s, v)
            if v > best_v:
                best_v = v
                anchor_status = s.status
    return slices


def greedy_policy(slices: list[ValueSlice], env: UnitCommitmentMDP) -> ScheduleSolution:
    """Forward sweep: at every hour take the action maximizing reward plus
    the neighbor-approximated next-slice value (lexicographic ties)."""

    def choose(state, _):
        acts, scores = _score_actions(env, state, slices[state.hour + 1])
        if not acts:
            raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
        k = int(np.argmax(scores))  # first maximum = lexicographic tie-break
        return env._bits_of(acts[k]), float(scores[k])

    return env.rollout(choose)
