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
hands its candidates to it.  The searches differ only in where a node's
candidates come from: the whole feasible set
(``UnitCommitmentMDP._feasible_ints``), or ``sample_action_neighborhood``
around the action that reached the node, with Hamming distances taken as
the popcount of an XOR.  Both score an edge with
``UnitCommitmentMDP.rewards``, the one definition of the hourly reward, and
commit hour by hour from the initial state through
``UnitCommitmentMDP.rollout``.  A node whose children sit at the depth
cutoff, the root included, scores its candidates straight from the reward
vector, minus ``BIG`` for each child with no feasible action, and keeps the
first maximum (``_cutoff_best``).

The exact search is a branch and bound.  Start-up prices are >= 0, so
``UnitCommitmentMDP.reward_bound(h)``, the best minus dispatch cost over
the actions that pass hour h's set limits, bounds every reward at hour h
from any state; ``_tail_bound`` sums these bounds into one for a whole
subtree.  A node walks its candidates in descending reward and stops at
the first whose reward plus its children's bound falls below the best
value so far, so the returned maximum, and the root's first-maximum
choice, are those of full enumeration bit for bit.  The sub-sampled
search prunes only among root candidates: each draws from its own RNG
stream, created when it is expanded, so skipping one changes no other,
while inner nodes share their root candidate's stream and keep every
draw in order.

A neighbourhood sample is drawn by ``_draw``: numpy's successive-sampling
law for ``Generator.choice(replace=False, p=...)`` written out over Python
lists.  It takes the same uniforms, so it makes the same picks in the same
order and leaves the generator where ``choice`` would; tree-sub plans
depend only on ``Generator.random``'s stream.
"""

from bisect import bisect_right
from itertools import accumulate
from math import inf

import numpy as np

from .errors import NoFeasibleActionError, SamplingWeightUnderflowError
from .mdp import BIG, CommitmentAction, ScheduleSolution, SystemState, UnitCommitmentMDP


def _cutoff_best(env: UnitCommitmentMDP, status, hour: int, aints) -> tuple[int, float]:
    """Index and value of the first best candidate at the depth cutoff: its
    reward, minus BIG where its child is a catastrophe state.

    The first highest reward wins outright when its child is live: any other
    candidate scores at most its own reward and, on a tie, comes later.
    """
    dead = env.child_dead_end(status, hour)
    rewards = env.rewards(status, hour, aints)
    best = max(range(len(rewards)), key=rewards.__getitem__)
    if not dead(aints[best]):
        return best, rewards[best] + 0.0
    values = [r + (-BIG if dead(a) else 0.0) for r, a in zip(rewards, aints)]
    best = max(range(len(values)), key=values.__getitem__)
    return best, values[best]


def _at_cutoff(env: UnitCommitmentMDP, hour: int, depth: int) -> bool:
    """Whether the children of a node at ``hour`` with ``depth`` steps left
    are leaves."""
    return depth == 1 or hour + 1 == env.horizon


def _tail_bound(env: UnitCommitmentMDP, hour: int, depth: int) -> float:
    """Upper bound on the ``_search`` value of any node at ``hour`` with
    ``depth`` steps left: per hour, -BIG or ``reward_bound`` plus the rest,
    summed in the order ``_search`` sums its values."""
    tail = 0.0
    for h in reversed(range(hour, min(hour + depth, env.horizon))):
        tail = max(-BIG, env.reward_bound(h) + tail)
    return tail


def _bounded_best(order, rewards, tail: float, score) -> tuple[int, float]:
    """Index and value of the best ``score(k)`` over candidates ``order``.

    Stops at the first candidate whose reward plus ``tail``, a bound on its
    child's value, falls below the best value so far.  With ``order`` by
    descending reward, no candidate after it can reach that value, so the
    result is the full maximum.  Among equal values the lowest index wins.
    """
    best_k, best = -1, -inf
    for k in order:
        if rewards[k] + tail < best:
            break
        v = score(k)
        if v > best or (v == best and k < best_k):
            best_k, best = k, v
    return best_k, best


def _best(
    env: UnitCommitmentMDP, status, hour: int, depth: int, cands, expand_for, ordered, prune
) -> tuple[int, float]:
    """Index and value of the best of a node's candidates ``cands``: each
    one's reward plus the ``_search`` value of its child, or
    ``_cutoff_best`` when the children are leaves.

    Child k is searched by ``_search`` with ``expand_for(k)`` and
    ``prune``.  With ``ordered``, the candidates go in descending reward
    against the children's ``_tail_bound`` (``_bounded_best``); without it,
    every one is scored in the order given.  Candidates ascend by action,
    so taking the lowest index among equal values breaks ties toward the
    lexicographically smallest action.
    """
    if _at_cutoff(env, hour, depth):
        return _cutoff_best(env, status, hour, cands)
    rewards = env.rewards(status, hour, cands)

    def score(k: int) -> float:
        child = env._advance(status, env._bits_of(cands[k]))
        return rewards[k] + _search(
            env, child, hour + 1, depth - 1, expand_for(k), cands[k], prune
        )

    if not ordered:
        return _bounded_best(range(len(cands)), rewards, inf, score)
    order = sorted(range(len(cands)), key=rewards.__getitem__, reverse=True)
    return _bounded_best(order, rewards, _tail_bound(env, hour + 1, depth - 1), score)


def _search(
    env: UnitCommitmentMDP, status, hour: int, depth: int, expand, anchor, prune: bool
) -> float:
    """Best cumulative reward over ``depth`` more steps from (status, hour):
    the ``_best`` value of the node's candidates ``expand(status, hour,
    anchor)``, walked in descending reward when ``prune``.

    Every child is expanded the same way, around the bit-packed action that
    reached it.  Returns -BIG from a catastrophe state, including one a step
    past the cutoff, so any feasible branch dominates.
    """
    cands = expand(status, hour, anchor)
    if not cands:
        return -BIG
    return _best(env, status, hour, depth, cands, lambda _k: expand, prune, prune)[1]


# ``benchmark/spans.py`` patches ``_search_sub`` by name, so the name stays
# bound to the one recursion.
_search_sub = _search


def find_best_action(
    state: SystemState, lookahead: int, env: UnitCommitmentMDP
) -> tuple[CommitmentAction, float]:
    """First action of a reward-maximizing sequence over
    min(lookahead, remaining hours); ties go to the lexicographically
    smallest action."""
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    cands = env._feasible_ints(state.status, state.hour)
    if not cands:
        raise NoFeasibleActionError(f"no feasible action at hour {state.hour}")

    def expand(status, hour, _anchor):
        return env._feasible_ints(status, hour)

    k, value = _best(
        env, state.status, state.hour, lookahead, cands, lambda _k: expand, True, True
    )
    return env._bits_of(cands[k]), value


def tree_search_policy(lookahead: int, env: UnitCommitmentMDP) -> ScheduleSolution:
    """Receding-horizon rollout of ``find_best_action`` over the full day."""
    return env.rollout(lambda state, _: find_best_action(state, lookahead, env))


def _draw(w: np.ndarray, size: int, rng: np.random.Generator) -> list[int]:
    """``size`` distinct indices drawn from weights ``w`` in the order
    ``rng.choice(len(w), size, replace=False, p=w / w.sum())`` picks them,
    with the same uniforms taken from ``rng``.

    Each round draws one uniform per index still missing, zeroes the
    weights found so far, maps each uniform through the left-to-right cdf
    (``searchsorted(side="right")``) and keeps the first hit of each new
    index.  Raises ``SamplingWeightUnderflowError`` when fewer than
    ``size`` weights are non-zero.
    """
    total = w.sum()
    p = w / total if total > 0 else w
    nonzero = np.count_nonzero(p)
    if nonzero < size:
        raise SamplingWeightUnderflowError(
            f"only {nonzero} of {len(p)} sampling weights rho**d are non-zero"
            f" for {size} draws; rho is too small"
        )
    p = p.tolist()
    found: list[int] = []
    while len(found) < size:
        x = rng.random(size - len(found)).tolist()
        for i in found:
            p[i] = 0.0
        cdf = list(accumulate(p))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        for u in x:
            i = bisect_right(cdf, u)
            if i not in found:
                found.append(i)
    return found


def sample_action_neighborhood(
    anchor: int,
    status,
    hour: int,
    sample_count: int,
    decay: float,
    rng: np.random.Generator,
    env: UnitCommitmentMDP,
) -> list[int]:
    """Sample distinct feasible bit-packed actions near ``anchor``, ascending.

    Inclusion probability is proportional to decay**d where d is the
    Hamming distance (popcount of the XOR) to the anchor; the anchor, or
    its nearest feasible projection with ties to the smallest action, is
    always kept.  Returns the whole feasible set when ``sample_count``
    covers it, the empty list from a catastrophe state.  Raises
    ``SamplingWeightUnderflowError`` when decay**d underflows to 0.0 for
    so many actions that fewer non-zero weights are left than draws.
    """
    feas = env._feasible_ints(status, hour)
    if not feas:
        return []
    dist = [(a ^ anchor).bit_count() for a in feas]
    nearest = dist.index(min(dist))
    take = min(sample_count, len(feas))
    if take == 1:
        return [feas[nearest]]
    rest = [i for i in range(len(feas)) if i != nearest]
    w = np.array([decay ** dist[i] for i in rest])
    picked = _draw(w, take - 1, rng)
    return [feas[i] for i in sorted({nearest, *(rest[j] for j in picked)})]


def subsampled_tree_search(
    lookahead: int, sample_count: int, decay: float, seed: int, env: UnitCommitmentMDP
) -> ScheduleSolution:
    """Tree search with ``sample_count`` candidates per node, drawn by
    ``sample_action_neighborhood`` with weights ``decay**hamming_distance``.

    The root candidates at hour t are anchored on the action committed at
    t-1 (at t=0: the on/off sign pattern of the initial state); deeper
    nodes anchor on the action taken along their own path.  Each root
    candidate evaluates under an RNG stream derived from (seed, t, index),
    so a pruned root candidate changes no other candidate's draws.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be >= 1")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in (0, 1)")
    first_anchor = env._int_of(1 if st > 0 else 0 for st in env.initial_state().status)

    def choose(state, previous):
        t = state.hour
        anchor = first_anchor if previous is None else env._int_of(previous)
        root_rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        cands = sample_action_neighborhood(
            anchor, state.status, t, sample_count, decay, root_rng, env
        )
        if not cands:
            raise NoFeasibleActionError(f"no feasible action at hour {t}")

        def expand_for(k):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, k]))

            def expand(status, hour, anchor):
                return sample_action_neighborhood(
                    anchor, status, hour, sample_count, decay, rng, env
                )

            return expand

        k, value = _best(env, state.status, t, lookahead, cands, expand_for, True, False)
        return env._bits_of(cands[k]), value

    return env.rollout(choose)
