"""Approximate policy iteration baseline: SARSA evaluation of a linear
state-action value plus a perceptron-tree classifier policy.

Feature layout for a fleet of N units: each unit contributes a 4-way
one-hot over its counter zone (deep off / inside the min-down window /
inside the min-up window / settled on).  That 4N block is repeated once
per unit and zeroed where the action leaves the unit off, giving 4N^2
action-gated entries, and the whole block lands in one of two halves
depending on whether the action's successor state is a catastrophe:
8N^2 entries total, quadratic in the fleet size.  Features are indexed
once per state, each action's half by the MDP's ``child_dead_end``.  The
plan is read out by ``UnitCommitmentMDP.rollout``, each hour's step value
the last SARSA evaluation's Q estimate of the committed action.

This method is a small-scale baseline: the per-hour policies start out
uninformed and improve slowly, so it is only expected to produce good
schedules up to roughly 8 units and 12 hours.
"""

import numpy as np

from .errors import NoFeasibleActionError
from .mdp import BIG, CommitmentAction, ScheduleSolution, SystemState, UnitCommitmentMDP


def _zone_index(status, env: UnitCommitmentMDP) -> list[int]:
    """Each unit's entry ``4*i + zone`` in its 4-entry block."""
    return [
        4 * i + (0 if st < -t_down else 1 if st < 0 else 2 if st <= t_up else 3)
        for i, (st, t_up, t_down) in enumerate(zip(status, env._t_up, env._t_down))
    ]


def feature_dim(n_units: int) -> int:
    return 8 * n_units * n_units


def _indexer(status, hour: int, env: UnitCommitmentMDP):
    """Map a bit-packed action from ``status`` at ``hour`` to whether its
    child is a dead end and the active entries of its feature vector."""
    n = env.n_units
    zidx = _zone_index(status, env)
    dead_end = env.child_dead_end(status, hour)

    def index(aint: int) -> tuple[bool, list[int]]:
        dead = dead_end(aint)
        half = 4 * n * n if dead else 0
        idx = []
        for j, m in enumerate(env._mask):
            if aint & m:
                base = half + 4 * n * j
                idx += [base + z for z in zidx]
        return dead, idx

    return index


def features(state: SystemState, action, env: UnitCommitmentMDP) -> np.ndarray:
    """Binary feature vector of dimension 8*N^2 for one (state, action)."""
    phi = np.zeros(feature_dim(env.n_units))
    phi[_indexer(state.status, state.hour, env)(env._int_of(action))[1]] = 1.0
    return phi


def _q_score(w_t: np.ndarray, state, action, env) -> float:
    idx = _indexer(state.status, state.hour, env)(env._int_of(action))[1]
    return float(w_t[idx].sum())


def greedy_action_from_q(w_t: np.ndarray, state: SystemState, env) -> CommitmentAction:
    """Feasible action maximizing the linear value estimate, lexicographic
    ties."""
    feas = env._feasible_ints(state.status, state.hour) if state.hour < env.horizon else ()
    if not feas:
        raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
    index = _indexer(state.status, state.hour, env)
    return env._bits_of(max(feas, key=lambda a: float(w_t[index(a)[1]].sum())))


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
        zidx = _zone_index(state.status, env)
        bits: list[int] = []
        for _ in range(self.n_units):
            w = self._node(state.hour, tuple(bits))
            bits.append(1 if w[zidx].sum() >= 0.0 else 0)
        return tuple(bits)

    def classify(self, state: SystemState, env) -> CommitmentAction:
        """Tree-predicted action projected onto the feasible set: the
        Hamming-nearest feasible action whose child is not a dead end, or
        the nearest of all when every child is one; ties to the smallest.
        Every feasible action carries the locked bits, so forcing them
        first would change no distance ranking."""
        raw = env._int_of(self._raw_bits(state, env))
        feas = env._feasible_ints(state.status, state.hour)
        if not feas:
            raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
        dead = env.child_dead_end(state.status, state.hour)
        ranked = sorted(feas, key=lambda a: (a ^ raw).bit_count())
        return env._bits_of(next((a for a in ranked if not dead(a)), ranked[0]))

    def update(self, state: SystemState, target: CommitmentAction, env) -> None:
        """Perceptron updates along the target's bit path."""
        zidx = _zone_index(state.status, env)
        for d in range(self.n_units):
            w = self._node(state.hour, tuple(target[:d]))
            predicted = 1 if w[zidx].sum() >= 0.0 else 0
            if predicted != target[d]:
                w[zidx] += 2 * target[d] - 1


def _behavior_action(policy, state, epsilon, rng, env) -> CommitmentAction:
    if epsilon > 0 and rng.random() < epsilon:
        feas = env._feasible_ints(state.status, state.hour)
        if not feas:
            raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
        return env._bits_of(feas[int(rng.integers(len(feas)))])
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
    if env.is_catastrophe(env.initial_state()):
        return w, visited
    for _ in range(episodes):
        state = env.initial_state()
        action = _behavior_action(policy, state, epsilon, rng, env)
        dead, idx = _indexer(state.status, 0, env)(env._int_of(action))
        while True:
            t = state.hour
            visited[t].setdefault(state)
            q_sa = float(w[t, idx].sum())
            r = env.reward(state, action)
            # a dead end ends the episode with the catastrophe penalty
            last = dead or t + 1 == env.horizon
            if last:
                target = r - BIG if dead else r
            else:
                state = SystemState(env._advance(state.status, action), t + 1)
                action = _behavior_action(policy, state, epsilon, rng, env)
                next_dead, next_idx = _indexer(state.status, t + 1, env)(env._int_of(action))
                target = r + float(w[t + 1, next_idx].sum())
            w[t, idx] += alpha * (target - q_sa)
            if last:
                break
            dead, idx = next_dead, next_idx
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
    schedule obtained by rolling it out greedily, each hour's step value
    the last evaluation's Q estimate of the committed action.
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

    def choose(state, _previous):
        action = policy.classify(state, env)
        return action, _q_score(w[state.hour], state, action, env)

    return policy, env.rollout(choose)
