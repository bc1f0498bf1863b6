"""Approximate policy iteration baseline: SARSA evaluation of a linear
state-action value plus a perceptron-tree classifier policy.

Feature layout for a fleet of N units: each unit contributes a 4-way
one-hot over its counter zone (deep off / inside the min-down window /
inside the min-up window / settled on).  That 4N block is repeated once
per unit and zeroed where the action leaves the unit off, giving 4N^2
action-gated entries, and the whole block lands in one of two halves
depending on whether the action's successor state is a catastrophe:
8N^2 entries total, quadratic in the fleet size.

This method is a small-scale baseline: the per-hour policies start out
uninformed and improve slowly, so it is only expected to produce good
schedules up to roughly 8 units and 12 hours.
"""

import numpy as np

from .errors import NoFeasibleActionError
from .mdp import BIG, CommitmentAction, ScheduleSolution, SystemState, UnitCommitmentMDP


def _zone(status_i: int, t_up: int, t_down: int) -> int:
    if status_i < -t_down:
        return 0
    if status_i < 0:
        return 1
    if status_i <= t_up:
        return 2
    return 3


def _zones(state: SystemState, env: UnitCommitmentMDP) -> tuple[int, ...]:
    return tuple(
        _zone(st, env._t_up[i], env._t_down[i]) for i, st in enumerate(state.status)
    )


def feature_dim(n_units: int) -> int:
    return 8 * n_units * n_units


def _feature_indices(state, action, env) -> list[int]:
    """Indices of the active entries of the feature vector (all ones)."""
    n = env.n_units
    zones = _zones(state, env)
    child = SystemState(env._advance(state.status, action), state.hour + 1)
    half = 4 * n * n if env.is_catastrophe(child) else 0
    idx = []
    for j, bit in enumerate(action):
        if bit:
            base = half + 4 * n * j
            idx.extend(base + 4 * i + zones[i] for i in range(n))
    return idx


def features(state: SystemState, action, env: UnitCommitmentMDP) -> np.ndarray:
    """Binary feature vector of dimension 8*N^2 for one (state, action)."""
    phi = np.zeros(feature_dim(env.n_units))
    phi[_feature_indices(state, action, env)] = 1.0
    return phi


def _q_score(w_t: np.ndarray, state, action, env) -> float:
    idx = _feature_indices(state, action, env)
    return float(w_t[idx].sum()) if idx else 0.0


def greedy_action_from_q(w_t: np.ndarray, state: SystemState, env) -> CommitmentAction:
    """Feasible action maximizing the linear value estimate, lexicographic
    ties."""
    feas = env.feasible_actions(state)
    if not feas:
        raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
    best_a, best_v = feas[0], _q_score(w_t, state, feas[0], env)
    for a in feas[1:]:
        v = _q_score(w_t, state, a, env)
        if v > best_v:
            best_a, best_v = a, v
    return best_a


class PerceptronTreePolicy:
    """Per-hour binary tree of perceptrons, one action bit per depth.

    A node at depth d holds a weight vector over the 4N state-zone
    indicators and thresholds it at zero to emit bit d (score >= 0 means
    commit); the path of emitted bits is the action.  Nodes are created
    lazily with zero weights, so a fresh tree emits the all-ones action.
    """

    def __init__(self, horizon: int, n_units: int):
        self.horizon = horizon
        self.n_units = n_units
        self._trees: list[dict[tuple[int, ...], np.ndarray]] = [
            {} for _ in range(horizon)
        ]

    def _node(self, hour: int, prefix: tuple[int, ...]) -> np.ndarray:
        tree = self._trees[hour]
        w = tree.get(prefix)
        if w is None:
            w = np.zeros(4 * self.n_units)
            tree[prefix] = w
        return w

    def _raw_bits(self, state: SystemState, env) -> CommitmentAction:
        zones = _zones(state, env)
        zidx = [4 * i + z for i, z in enumerate(zones)]
        bits: list[int] = []
        for _ in range(self.n_units):
            w = self._node(state.hour, tuple(bits))
            bits.append(1 if w[zidx].sum() >= 0.0 else 0)
        return tuple(bits)

    def classify(self, state: SystemState, env) -> CommitmentAction:
        """Tree-predicted action projected onto the feasible set: the
        Hamming-nearest feasible action, ties to the smallest.  Every
        feasible action carries the locked bits, so forcing them first
        would change no distance ranking."""
        raw = env._int_of(self._raw_bits(state, env))
        feas = env._feasible_ints(state.status, state.hour)
        if not feas:
            raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
        return env._bits_of(min(feas, key=lambda a: (a ^ raw).bit_count()))

    def update(self, state: SystemState, target: CommitmentAction, env) -> None:
        """Perceptron updates along the target's bit path."""
        zones = _zones(state, env)
        zidx = [4 * i + z for i, z in enumerate(zones)]
        for d in range(self.n_units):
            w = self._node(state.hour, tuple(target[:d]))
            predicted = 1 if w[zidx].sum() >= 0.0 else 0
            if predicted != target[d]:
                w[zidx] += 2 * target[d] - 1


def _behavior_action(policy, state, epsilon, rng, env) -> CommitmentAction:
    if epsilon > 0 and rng.random() < epsilon:
        feas = env.feasible_actions(state)
        if not feas:
            raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
        return feas[int(rng.integers(len(feas)))]
    return policy.classify(state, env)


def _sarsa(policy, alpha, epsilon, episodes, rng, env):
    """On-policy TD evaluation; returns per-hour weights and the states
    visited at each hour (deduplicated, in visit order).  Raises ValueError
    unless ``alpha`` and ``epsilon`` lie in [0, 1]."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    dim = feature_dim(env.n_units)
    w = np.zeros((env.horizon, dim))
    visited: list[dict[SystemState, None]] = [{} for _ in range(env.horizon)]
    for _ in range(episodes):
        state = env.initial_state()
        if env.is_catastrophe(state):
            break
        action = _behavior_action(policy, state, epsilon, rng, env)
        while True:
            t = state.hour
            visited[t].setdefault(state)
            idx = _feature_indices(state, action, env)
            q_sa = float(w[t, idx].sum()) if idx else 0.0
            r = env.reward(state, action)
            nxt = SystemState(env._advance(state.status, action), t + 1)
            if nxt.hour == env.horizon:
                target = r
            elif env.is_catastrophe(nxt):
                # dead end: write the step down with the catastrophe penalty
                target = r - BIG
            else:
                next_action = _behavior_action(policy, nxt, epsilon, rng, env)
                nidx = _feature_indices(nxt, next_action, env)
                target = r + (float(w[t + 1, nidx].sum()) if nidx else 0.0)
            if idx:
                w[t, idx] += alpha * (target - q_sa)
            if nxt.hour == env.horizon or env.is_catastrophe(nxt):
                break
            state, action = nxt, next_action
    return w, visited


def sarsa_evaluate(
    policy: PerceptronTreePolicy,
    alpha: float,
    epsilon: float,
    episodes: int,
    rng: np.random.Generator,
    env: UnitCommitmentMDP,
) -> np.ndarray:
    """Per-hour weight vectors of the linear state-action value under
    epsilon-greedy rollouts of ``policy`` (undiscounted, terminal value 0).
    Episodes that hit a dead end are written down with the -BIG penalty
    and cut short rather than raised."""
    w, _ = _sarsa(policy, alpha, epsilon, episodes, rng, env)
    return w


def approximate_policy_iteration(
    n_iterations: int,
    alpha: float,
    epsilon: float,
    episodes: int,
    rng: np.random.Generator,
    env: UnitCommitmentMDP,
) -> tuple[PerceptronTreePolicy, ScheduleSolution]:
    """Alternate SARSA evaluation with classifier improvement.

    The improvement pass trains each hour's tree toward the value-greedy
    action on the states visited during that iteration's episodes (the
    full state space is unreachable).  Returns the final policy and the
    schedule obtained by rolling it out greedily.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    policy = PerceptronTreePolicy(env.horizon, env.n_units)
    for _ in range(n_iterations):
        w, visited = _sarsa(policy, alpha, epsilon, episodes, rng, env)
        for t in range(env.horizon):
            for state in visited[t]:
                best = greedy_action_from_q(w[t], state, env)
                policy.update(state, best, env)

    state = env.initial_state()
    actions = []
    for t in range(env.horizon):
        try:
            action = policy.classify(state, env)
        except NoFeasibleActionError as err:
            raise NoFeasibleActionError(str(err), step=t) from None
        actions.append(action)
        state = env.transition(state, action)
    return policy, env.replay(actions)
