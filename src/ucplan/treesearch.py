"""Finite-lookahead tree search over the commitment MDP.

``find_best_action`` recursively scores every feasible action sequence up
to a lookahead of H hours (cut off at the planning horizon) and returns
the first action of a maximizing sequence.  ``tree_search_policy`` commits
that action hour by hour across the horizon.  The sub-sampled variant
draws only a few candidate actions per node, biased toward small Hamming
deviations from the previous hour's action, which is where low-cost
schedules concentrate: start-up prices and the up/down locks punish
rapid re-commitment churn.

Both searches score an edge with ``UnitCommitmentMDP.rewards``, the one
definition of the hourly reward, share one root choice, and commit hour by
hour through ``UnitCommitmentMDP.rollout``.  A node whose children sit at
the depth cutoff scores its candidates straight from the reward vector,
minus ``BIG`` for each child with no feasible action (``_cutoff_values``).
"""

from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleActionError
from .mdp import BIG, CommitmentAction, ScheduleSolution, SystemState, UnitCommitmentMDP


@dataclass(frozen=True, slots=True)
class SubsampleConfig:
    """Neighborhood sampling: ``sample_count`` candidates per node, biased
    by ``decay**hamming_distance`` from the anchor action."""

    sample_count: int
    decay: float
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")


@dataclass(frozen=True, slots=True)
class SearchConfig:
    lookahead: int
    subsample: SubsampleConfig | None = None
    threads: int = 1

    def __post_init__(self):
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _cutoff_values(env: UnitCommitmentMDP, status, hour: int, aints) -> list[float]:
    """Each candidate's reward plus its child's value at the depth cutoff:
    0, or -BIG where the child is a catastrophe state."""
    dead = env.dead_ends(status, hour, aints)
    return [r + (-BIG if d else 0.0) for r, d in zip(env.rewards(status, hour, aints), dead)]


def _at_cutoff(env: UnitCommitmentMDP, hour: int, depth: int) -> bool:
    """Whether the children of a node at ``hour`` with ``depth`` steps left
    are leaves."""
    return depth == 1 or hour + 1 == env.horizon


def _search(env: UnitCommitmentMDP, status, hour: int, depth: int) -> float:
    """Best cumulative reward over ``depth`` more steps from (status, hour).

    Returns 0 at the depth cutoff or the terminal hour; -BIG from a
    catastrophe state, including one a step past the cutoff, so any
    feasible branch dominates.
    """
    if depth == 0 or hour == env.horizon:
        return 0.0
    cands = env._feasible_ints(status, hour)
    if not cands:
        return -BIG
    if _at_cutoff(env, hour, depth):
        return max(_cutoff_values(env, status, hour, cands))
    best = -float("inf")
    for aint, r in zip(cands, env.rewards(status, hour, cands)):
        v = r + _search(env, env._advance(status, env._bits_of(aint)), hour + 1, depth - 1)
        if v > best:
            best = v
    return best


def _best_root(
    env: UnitCommitmentMDP, state: SystemState, aints, depth: int, tail, threads: int
):
    """Index and value of the best root candidate, scored as its reward plus
    ``tail(index, child status)``, or by ``_cutoff_values`` when the
    children are leaves.

    Candidates ascend, so taking the first maximum breaks ties toward the
    lexicographically smallest action.
    """
    if _at_cutoff(env, state.hour, depth):
        values = _cutoff_values(env, state.status, state.hour, aints)
        best = max(range(len(values)), key=values.__getitem__)
        return best, values[best]
    rewards = env.rewards(state.status, state.hour, aints)

    def score(k: int) -> float:
        child = env._advance(state.status, env._bits_of(aints[k]))
        return rewards[k] + tail(k, child)

    if threads > 1 and len(aints) > 1:
        with futures.ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(score, range(len(aints))))
    else:
        values = [score(k) for k in range(len(aints))]
    best = max(range(len(values)), key=values.__getitem__)
    return best, values[best]


def find_best_action(
    state: SystemState, lookahead: int, env: UnitCommitmentMDP, threads: int = 1
) -> tuple[CommitmentAction, float]:
    """First action of a reward-maximizing sequence over
    min(lookahead, remaining hours); ties go to the lexicographically
    smallest action."""
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    cands = env._feasible_ints(state.status, state.hour)
    if not cands:
        raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")

    def tail(k, child):
        return _search(env, child, state.hour + 1, lookahead - 1)

    k, value = _best_root(env, state, cands, lookahead, tail, threads)
    return env._bits_of(cands[k]), value


def tree_search_policy(
    s0: SystemState, config: SearchConfig, env: UnitCommitmentMDP
) -> ScheduleSolution:
    """Receding-horizon rollout of ``find_best_action`` over the full day."""
    return env.rollout(
        s0, lambda state, _: find_best_action(state, config.lookahead, env, config.threads)
    )


def sample_action_neighborhood(
    a_prev: CommitmentAction,
    state: SystemState,
    sample_count: int,
    decay: float,
    rng: np.random.Generator,
    env: UnitCommitmentMDP,
) -> list[CommitmentAction]:
    """Sample distinct feasible actions near ``a_prev``.

    Inclusion probability is proportional to decay**d where d is the
    Hamming distance to the anchor; the anchor (or its nearest feasible
    projection) is always kept.  Returns the whole feasible set when
    ``sample_count`` covers it, the empty list from a catastrophe state.
    """
    feas = env.feasible_actions(state)
    if not feas:
        return []
    dist = [sum(x != y for x, y in zip(a, a_prev)) for a in feas]
    take = min(sample_count, len(feas))
    anchor = min(range(len(feas)), key=lambda i: (dist[i], feas[i]))
    chosen = {anchor}
    if take > 1:
        rest = np.array([i for i in range(len(feas)) if i != anchor])
        w = np.array([decay ** dist[i] for i in rest])
        picked = rng.choice(rest, size=take - 1, replace=False, p=w / w.sum())
        chosen.update(int(i) for i in picked)
    return [feas[i] for i in sorted(chosen)]


def _search_sub(env, status, hour, depth, anchor, rng, cfg: SubsampleConfig) -> float:
    if depth == 0 or hour == env.horizon:
        return 0.0
    state = SystemState(status, hour)
    cands = sample_action_neighborhood(anchor, state, cfg.sample_count, cfg.decay, rng, env)
    if not cands:
        return -BIG
    aints = [env._int_of(b) for b in cands]
    if _at_cutoff(env, hour, depth):
        return max(_cutoff_values(env, status, hour, aints))
    best = -float("inf")
    for bits, r in zip(cands, env.rewards(status, hour, aints)):
        v = r + _search_sub(env, env._advance(status, bits), hour + 1, depth - 1, bits, rng, cfg)
        if v > best:
            best = v
    return best


def subsampled_tree_search(
    s0: SystemState, config: SearchConfig, env: UnitCommitmentMDP
) -> ScheduleSolution:
    """Tree search with per-node action sub-sampling.

    The root candidates at hour t are anchored on the action committed at
    t-1 (at t=0: the on/off sign pattern of the initial state); deeper
    nodes anchor on the action taken along their own path.  Each root
    candidate evaluates under an RNG stream derived from (seed, t, index),
    so results do not depend on thread count.
    """
    if config.subsample is None:
        raise ValueError("subsampled_tree_search requires a subsample config")
    cfg = config.subsample
    depth = config.lookahead
    first_anchor = tuple(1 if st > 0 else 0 for st in s0.status)

    def choose(state, previous):
        t = state.hour
        anchor = first_anchor if previous is None else previous
        root_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
        cands = sample_action_neighborhood(
            anchor, state, cfg.sample_count, cfg.decay, root_rng, env
        )
        if not cands:
            raise NoFeasibleActionError(f"no feasible action at hour {t}")

        def tail(k, child):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t, k]))
            return _search_sub(env, child, t + 1, depth - 1, cands[k], rng, cfg)

        aints = [env._int_of(b) for b in cands]
        k, value = _best_root(env, state, aints, depth, tail, config.threads)
        return cands[k], value

    return env.rollout(s0, choose)
