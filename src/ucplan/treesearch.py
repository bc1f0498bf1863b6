"""Finite-lookahead tree search over the commitment MDP.

``find_best_action`` searches the feasible action sequences up to a
lookahead of H hours (cut off at the planning horizon) and returns the
first action of a maximizing sequence.  ``tree_search_policy`` commits
that action hour by hour across the horizon.  The sub-sampled variant
draws only a few candidate actions per node, biased toward small Hamming
deviations from the previous hour's action, which is where low-cost
schedules concentrate: start-up prices and the up/down locks punish
rapid re-commitment churn.

Both searches score every node, the root included, with one routine,
``_best``, over bit-packed actions; ``_search`` expands an inner node and
hands its candidates to it.  The searches differ only in their
``expand`` closure, which gives a node's candidates: the whole feasible set
(``UnitCommitmentMDP._feasible_ints``), or ``sample_action_neighborhood``
around the action that reached the node, with Hamming distances taken as
the popcount of an XOR.  Both score an edge with
``UnitCommitmentMDP.rewards``, the one definition of the hourly reward, and
commit hour by hour from the initial state through
``UnitCommitmentMDP.rollout``.

``_best`` is one branch and bound.  Start-up prices are >= 0, so
``UnitCommitmentMDP.reward_bound(h)``, the best minus dispatch cost over
the actions that pass hour h's set limits, bounds every reward at hour h
from any state; ``_tail_bound`` sums these bounds into one for a whole
subtree, and is 0.0 for leaves, which are worth 0.0 or -BIG.  A node walks
its candidates in descending reward and stops at the first whose reward
plus its children's bound falls below the best value so far, so the
returned maximum, and the root's first-maximum choice, are those of full
enumeration over the same candidates bit for bit.

A neighbourhood sample is a pure function of (seed, hour, status,
anchor): it takes its uniforms from a generator seeded by them and keeps
the largest Efraimidis-Spirakis keys in log space.  A node's sample thus
does not depend on which other nodes were searched, so pruning a subtree
changes no other draw, and a sample size that covers the feasible set
makes the node an exact one.
"""

from math import inf, log

import numpy as np

from .core import STATUS_CAP
from .errors import NoFeasibleActionError
from .mdp import BIG, CommitmentAction, ScheduleSolution, SystemState, UnitCommitmentMDP


def _tail_bound(env: UnitCommitmentMDP, hour: int, depth: int) -> float:
    """Upper bound on the ``_search`` value of any node at ``hour`` with
    ``depth`` steps left: per hour, -BIG or ``reward_bound`` plus the rest,
    summed in the order ``_search`` sums its values.  0.0 past the cutoff,
    with no ``reward_bound`` call."""
    tail = 0.0
    for h in reversed(range(hour, min(hour + depth, env.horizon))):
        tail = max(-BIG, env.reward_bound(h) + tail)
    return tail


def _best(
    env: UnitCommitmentMDP, status, hour: int, depth: int, cands, expand
) -> tuple[int, float]:
    """Index and value of the best of a node's candidates ``cands``: each
    one's reward plus its child's value.

    A leaf child, past the depth cutoff or the horizon, is worth 0.0, or
    -BIG when it has no feasible action; any other child is worth its
    ``_search`` value with ``expand``, anchored on ``cands[k]``.  The walk
    takes the candidates in descending reward and stops at the first whose
    reward plus the children's ``_tail_bound`` falls below the best value
    so far: no candidate after it can reach that value, so the result is
    the full maximum.  Candidates ascend by action, so taking the lowest
    index among equal values breaks ties toward the lexicographically
    smallest action.
    """
    # bound first: the first bound prices the whole day, this hour included
    tail = _tail_bound(env, hour + 1, depth - 1)
    rewards = env.rewards(status, hour, cands)
    leaf = depth == 1 or hour + 1 == env.horizon
    dead = env.child_dead_end(status, hour) if leaf else None
    best_k, best = -1, -inf
    for k in sorted(range(len(rewards)), key=rewards.__getitem__, reverse=True):
        r, a = rewards[k], cands[k]
        if r + tail < best:
            break
        if leaf:
            v = r + (-BIG if dead(a) else 0.0)
        else:
            child = env._advance(status, env._bits_of(a))
            v = r + _search(env, child, hour + 1, depth - 1, expand, a)
        if v > best or (v == best and k < best_k):
            best_k, best = k, v
    return best_k, best


def _search(env: UnitCommitmentMDP, status, hour: int, depth: int, expand, anchor) -> float:
    """Best cumulative reward over ``depth`` more steps from (status, hour):
    the ``_best`` value of the node's candidates ``expand(status, hour,
    anchor)``.

    Every child is expanded the same way, around the bit-packed action that
    reached it.  Returns -BIG from a catastrophe state, so any feasible
    branch dominates.
    """
    cands = expand(status, hour, anchor)
    if not cands:
        return -BIG
    return _best(env, status, hour, depth, cands, expand)[1]


# ``benchmark/spans.py`` patches ``_search_sub`` by name, so the name stays
# bound to the one recursion.
_search_sub = _search


def _root(
    env: UnitCommitmentMDP, state: SystemState, lookahead: int, expand, anchor
) -> tuple[CommitmentAction, float]:
    """Best candidate ``expand(status, hour, anchor)`` at a search root, as
    an action tuple, and its value; raises NoFeasibleActionError when there
    is none, the horizon included."""
    cands = expand(state.status, state.hour, anchor) if state.hour < env.horizon else ()
    if not cands:
        raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")
    k, value = _best(env, state.status, state.hour, lookahead, cands, expand)
    return env._bits_of(cands[k]), value


def find_best_action(
    state: SystemState, lookahead: int, env: UnitCommitmentMDP
) -> tuple[CommitmentAction, float]:
    """First action of a reward-maximizing sequence over
    min(lookahead, remaining hours); ties go to the lexicographically
    smallest action."""
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")

    def expand(status, hour, _anchor):
        return env._feasible_ints(status, hour)

    return _root(env, state, lookahead, expand, None)


def tree_search_policy(lookahead: int, env: UnitCommitmentMDP) -> ScheduleSolution:
    """Receding-horizon rollout of ``find_best_action`` over the full day."""
    return env.rollout(lambda state, _: find_best_action(state, lookahead, env))


def sample_action_neighborhood(
    anchor: int,
    status,
    hour: int,
    sample_count: int,
    decay: float,
    seed: int,
    env: UnitCommitmentMDP,
) -> list[int]:
    """Sample distinct feasible bit-packed actions near ``anchor``, ascending.

    Returns the whole feasible set, with no draw, when ``sample_count``
    covers it; the empty list from a catastrophe state.  Otherwise keeps
    the anchor, or its nearest feasible projection with ties to the
    smallest action, and ``sample_count - 1`` of the other actions, drawn
    without replacement with weights decay**d, where d is the Hamming
    distance (popcount of the XOR) to the anchor.  The draw gives each of
    those actions, in ascending order, one uniform u from a generator
    seeded by (seed, hour, anchor, status) and keeps the largest keys
    d * log(decay) - log(-log(u)) (Efraimidis and Spirakis, 2006, in log
    space), so no weight underflows and the sample depends on nothing but
    its arguments.
    """
    feas = env._feasible_ints(status, hour)
    if len(feas) <= sample_count:
        return list(feas)
    dist = [(a ^ anchor).bit_count() for a in feas]
    nearest = dist.index(min(dist))
    rest = [i for i in range(len(feas)) if i != nearest]
    rng = np.random.default_rng([seed, hour, anchor, *(st + STATUS_CAP for st in status)])
    u = rng.random(len(rest))
    keys = log(decay) * np.array([dist[i] for i in rest]) - np.log(-np.log(u))
    picked = np.argsort(-keys, kind="stable")[: sample_count - 1].tolist()
    return [feas[i] for i in sorted([nearest, *(rest[j] for j in picked)])]


def subsampled_tree_search(
    lookahead: int, sample_count: int, decay: float, seed: int, env: UnitCommitmentMDP
) -> ScheduleSolution:
    """Tree search with ``sample_count`` candidates per node, drawn by
    ``sample_action_neighborhood`` with weights ``decay**hamming_distance``.

    The root candidates at hour t are anchored on the action committed at
    t-1 (at t=0: the on/off sign pattern of the initial state); deeper
    nodes anchor on the action taken along their own path.  Each node's
    sample depends only on (seed, hour, status, anchor), so the search
    prunes at every node as the exact search does.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in (0, 1)")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    first_anchor = env._int_of(1 if st > 0 else 0 for st in env.initial_state().status)

    def expand(status, hour, anchor):
        return sample_action_neighborhood(anchor, status, hour, sample_count, decay, seed, env)

    def choose(state, previous):
        anchor = first_anchor if previous is None else env._int_of(previous)
        return _root(env, state, lookahead, expand, anchor)

    return env.rollout(choose)
