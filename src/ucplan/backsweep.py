"""Backward value sweep with sampled states and nearest-neighbor lookup.

``evaluate_states`` walks from the terminal hour back to hour 0.  At each
hour it samples states near an anchor, values each one with a Bellman
backup whose successor values come from nearest-neighbor lookup into the
already-valued next slice, then re-anchors on the best sampled state.
``greedy_policy`` afterwards sweeps forward once, picking the action that
maximizes reward plus the neighbor-approximated successor value.  Both
score actions with ``UnitCommitmentMDP.rewards``, the one definition of
the hourly reward.
"""

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .core import STATUS_CAP
from .errors import EmptySliceError, HourMismatchError, NoFeasibleActionError
from .mdp import BIG, ScheduleSolution, SystemState, UnitCommitmentMDP, all_statuses

SIGN_MISMATCH_WEIGHT = 8.0
COUNTER_SCALE = 1.0


@dataclass(frozen=True, slots=True)
class StateDistanceMetric:
    """Weighted distance between same-hour states.

    Per unit: ``SIGN_MISMATCH_WEIGHT`` if the on/off signs differ, plus
    ``COUNTER_SCALE`` times the difference of counter magnitudes clipped
    at that unit's lock horizon max(t_up, t_down); beyond it, counters
    only matter through the (bounded) start-up price, and states behave
    nearly identically.
    """

    counter_caps: tuple[int, ...] | None = None

    def for_instance(self, instance) -> "StateDistanceMetric":
        if self.counter_caps is not None:
            return self
        caps = tuple(max(g.t_up, g.t_down) for g in instance.generators)
        return dc_replace(self, counter_caps=caps)


def state_distance(s1: SystemState, s2: SystemState, metric: StateDistanceMetric) -> float:
    if s1.hour != s2.hour:
        raise HourMismatchError(f"hours differ: {s1.hour} != {s2.hour}")
    caps = metric.counter_caps or (STATUS_CAP,) * len(s1.status)
    total = 0.0
    for a, b, cap in zip(s1.status, s2.status, caps):
        if (a > 0) != (b > 0):
            total += SIGN_MISMATCH_WEIGHT
        total += COUNTER_SCALE * abs(min(abs(a), cap) - min(abs(b), cap))
    return total


def _sign_clip(statuses: np.ndarray, metric: StateDistanceMetric):
    """Per-unit on/off signs and cap-clipped counter magnitudes of status rows."""
    caps = np.array(metric.counter_caps or (STATUS_CAP,) * statuses.shape[1])
    return statuses > 0, np.minimum(np.abs(statuses), caps)


def _distances(q_sign, q_clip, sign, clip) -> np.ndarray:
    """``state_distance`` from every query row to every stored row."""
    return (
        SIGN_MISMATCH_WEIGHT * (q_sign[:, None, :] != sign[None, :, :])
        + COUNTER_SCALE * np.abs(q_clip[:, None, :] - clip[None, :, :])
    ).sum(axis=2)


class ValueSlice:
    """States valued at one hour, queryable by nearest neighbor."""

    def __init__(self, hour: int):
        self.hour = hour
        self.states: list[SystemState] = []
        self.values: list[float] = []
        self._index: dict[tuple[int, ...], int] = {}
        self._cache_key = None

    def add(self, state: SystemState, value: float) -> None:
        if state.hour != self.hour:
            raise HourMismatchError(f"state hour {state.hour} != slice hour {self.hour}")
        self._index.setdefault(state.status, len(self.states))
        self.states.append(state)
        self.values.append(value)

    def exact_index(self, status: tuple[int, ...]):
        return self._index.get(status)

    def arrays(self, metric: StateDistanceMetric):
        """(sign matrix, clipped-magnitude matrix, value vector), cached."""
        key = (len(self.states), metric)
        if self._cache_key != key:
            status = np.array([s.status for s in self.states])
            self._sign, self._clip = _sign_clip(status, metric)
            self._vals = np.array(self.values)
            self._cache_key = key
        return self._sign, self._clip, self._vals

    def nearest(self, statuses: np.ndarray, metric: StateDistanceMetric) -> list[int]:
        """Index of the nearest stored state for every status row.

        An exact status match wins outright (the clipped metric is a
        pseudometric, so distinct states can sit at distance zero); the
        other rows take the first minimum, so ties resolve by insertion
        order.
        """
        found = [self.exact_index(tuple(row)) for row in statuses.tolist()]
        miss = [k for k, j in enumerate(found) if j is None]
        if miss:
            sign, clip, _ = self.arrays(metric)
            q_sign, q_clip = _sign_clip(statuses[miss], metric)
            chunk = max(1, 2_000_000 // max(1, len(self) * statuses.shape[1]))
            for lo in range(0, len(miss), chunk):
                hi = lo + chunk
                d = _distances(q_sign[lo:hi], q_clip[lo:hi], sign, clip)
                for k, j in zip(miss[lo:hi], np.argmin(d, axis=1).tolist()):
                    found[k] = j
        return found

    def __len__(self) -> int:
        return len(self.states)


class ValueSampleSet:
    """One ValueSlice per hour 0..T; the terminal slice holds value 0."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.slices = [ValueSlice(t) for t in range(horizon + 1)]

    def slice_at(self, hour: int) -> ValueSlice:
        return self.slices[hour]


def nearest_neighbor(
    state: SystemState, slice_: ValueSlice, metric: StateDistanceMetric
) -> tuple[SystemState, float]:
    """Closest stored (state, value) pair, as ``ValueSlice.nearest`` picks it."""
    if len(slice_) == 0:
        raise EmptySliceError(f"no states stored at hour {state.hour}")
    if state.hour != slice_.hour:
        raise HourMismatchError(f"state hour {state.hour} != slice hour {slice_.hour}")
    best = slice_.nearest(np.array([state.status]), metric)[0]
    return slice_.states[best], slice_.values[best]


def sample_environment(
    anchor: SystemState, n_samples: int, rng: np.random.Generator, env: UnitCommitmentMDP
) -> list[SystemState]:
    """Distinct valid states at the anchor's hour, the anchor included.

    Each draw perturbs a geometric(0.5) number of units (capped at N),
    redrawing their counters uniformly over the valid signed range.  When
    ``n_samples`` covers the whole state space the full enumeration is
    returned instead; a deterministic fill kicks in if random draws stop
    producing new states.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = env.n_units
    space = (2 * STATUS_CAP) ** n
    if n_samples >= space:
        out = [anchor]
        seen = {anchor.status}
        for status in all_statuses(n):
            if status not in seen:
                out.append(SystemState(status, anchor.hour))
        return out

    out = [anchor]
    seen = {anchor.status}
    attempts = 0
    limit = 200 * n_samples
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
        for status in all_statuses(n):  # deterministic fill, rare
            if len(out) >= n_samples:
                break
            if status not in seen:
                seen.add(status)
                out.append(SystemState(status, anchor.hour))
    return out


def _score_actions(env: UnitCommitmentMDP, state: SystemState, nxt: ValueSlice, metric):
    """Backup score (reward + neighbor value of the successor) for every
    feasible action, vectorized over the next slice.

    Returns (action ints ascending, score vector); empty list from a
    catastrophe state.
    """
    acts = env._feasible_ints(state.status, state.hour)
    if not acts:
        return acts, None
    n = env.n_units
    bits = (np.array(acts)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    st = np.array(state.status)
    child = np.where(
        bits,
        np.where(st > 0, np.minimum(st + 1, STATUS_CAP), 1),
        np.where(st < 0, np.maximum(st - 1, -STATUS_CAP), -1),
    )
    rewards = np.array(env.rewards(state.status, state.hour, acts))
    _, _, vals = nxt.arrays(metric)
    return acts, rewards + vals[nxt.nearest(child, metric)]


def evaluate_states(
    n_samples: int,
    terminal_anchor: SystemState,
    env: UnitCommitmentMDP,
    metric: StateDistanceMetric,
    rng: np.random.Generator,
) -> ValueSampleSet:
    """Backward sweep producing a valued sample set for every hour.

    The terminal slice around ``terminal_anchor`` carries value 0; each
    earlier slice is sampled around the previous sweep's best state
    (re-timed to the current hour) and valued by Bellman backups, with
    catastrophe states pinned at -BIG.
    """
    if terminal_anchor.hour != env.horizon:
        raise ValueError("terminal anchor must sit at the final hour")
    metric = metric.for_instance(env.instance)
    value_set = ValueSampleSet(env.horizon)

    terminal = value_set.slice_at(env.horizon)
    for s in sample_environment(terminal_anchor, n_samples, rng, env):
        terminal.add(s, 0.0)

    anchor_status = terminal_anchor.status
    for t in range(env.horizon - 1, -1, -1):
        anchor = SystemState(anchor_status, t)
        slice_t = value_set.slice_at(t)
        nxt = value_set.slice_at(t + 1)
        best_v = -float("inf")
        for s in sample_environment(anchor, n_samples, rng, env):
            _, scores = _score_actions(env, s, nxt, metric)
            v = float(scores.max()) if scores is not None else -BIG
            slice_t.add(s, v)
            if v > best_v:
                best_v = v
                anchor_status = s.status
    return value_set


def greedy_policy(
    value_set: ValueSampleSet,
    s0: SystemState,
    env: UnitCommitmentMDP,
    metric: StateDistanceMetric,
) -> ScheduleSolution:
    """Forward sweep: at every hour take the action maximizing reward plus
    the neighbor-approximated next-slice value (lexicographic ties)."""
    metric = metric.for_instance(env.instance)

    def choose(state, _):
        acts, scores = _score_actions(env, state, value_set.slice_at(state.hour + 1), metric)
        if not acts:
            raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
        k = int(np.argmax(scores))  # first maximum = lexicographic tie-break
        return env._bits_of(acts[k]), float(scores[k])

    return env.rollout(s0, choose)
