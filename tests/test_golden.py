"""Golden values pinned before a change to the solvers' arithmetic.

The small-instance digests were recorded before the reward kernel was
unified, the bundled-instance tree ones before dispatch was batched (the
two deepest, ``n8_t24`` at H=4 and ``n12_t24`` at H=3, before the tree
searches pruned against a reward bound), the bundled-instance tree-sub
ones before the two search recursions were merged, the 17-unit ones
before fleets above 16 units lost their own feasible-set path to the one
action table, and the API baseline's before its features went through
the MDP's shared dead-end predicate.  Every tree-sub digest was recorded
again, on purpose, when each node's neighbourhood sample came to be
drawn from a generator seeded by the node itself instead of one stream
shared along the search, and the API baseline's plan digest when its
readout came to prefer actions whose child has a feasible action.  Each
tree, tree-sub and back-sweep digest covers a solver's emitted
``schedule.csv`` text plus the ``repr`` of its per-hour step values, so a
change in the last bit of any value the search reports fails here.  The small solver instance has a
multi-start-up hour in all three plans; the oracle instance starts both
units off, and its optimum starts both in hour 0.  The API baseline's
plan digest covers its ``schedule.csv`` text plus the ``repr`` of its
objective, and a second digest the bytes of one SARSA evaluation's
weights.  Its step values are left out, so that they can carry the
baseline's own Q estimates in place of None.  Never re-record these to
make a refactor pass: a mismatch is a behaviour change.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from ucplan import (
    PerceptronTreePolicy,
    ProblemInstance,
    UnitCommitmentMDP,
    exact_dp,
    exhaustive_optimum,
    gen_instance,
    sarsa_evaluate,
)
from ucplan.harness import load_instance, run, schedule_csv_text

from conftest import INSTANCES

SOLVER_DIGESTS = {
    "tree": (
        dict(lookahead=2),
        "7416879efb352b7f5c9aaf418cb0383c5b9b52be5a751aec09bc3e55a950f470",
    ),
    "tree-sub": (
        dict(lookahead=2, sample_count=16, rho=0.5, seed=0),
        "756c7fb0484f6925879c1bc069c4aae5dad0232b28b2a0e41cdc1a53cd986dd0",
    ),
    "backsweep": (
        dict(n_samples=30, seed=0),
        "8206fd5797d5ce6834a2dd4f4df7c7ea94958f27cce506ce5b5be722210b7cae",
    ),
}

# exact tree search on the bundled instances: (instance, H) -> digest
BUNDLED_TREE_DIGESTS = {
    ("n8_t24", 1): "05f89cc58a499f0c23ea12719fe257e3798e6acc4d83d7dbc663e518f01ec30c",
    ("n8_t24", 2): "30cd8cd7c8c253bf1d03baa678d72604099cbbf7be4f7c86187140eb9171beb9",
    ("n8_t24", 3): "d6c898e5b785d1903fcf4cb03e128ae28fec089bc2f68751987bcbaa647a312f",
    ("n8_t24", 4): "658436a1bca718327cebd5f7eb4f7b7d15e6032f10615842dfec4ce05634c666",
    ("n12_t24", 1): "e4636d014218c56c26d9702abbdefb00a5a37734816a8dce904ae5849e0dda2b",
    ("n12_t24", 2): "cf60d5372808069556112ac2d50c657376f4f64700925bc8bb9649c34950e0eb",
    ("n12_t24", 3): "cf170ec33b13e07019f5be44db5fa9638ba9b9a74e983e45c9bd3e6ea57f9a2c",
}

# sub-sampled tree search (rho 0.5, seed 0) on the bundled instances:
# (instance, H, K) -> digest
BUNDLED_TREE_SUB_DIGESTS = {
    ("n8_t24", 1, 64): "fb3632a2aea2701af2dca2b974b66bb1daf193e77f47082307a3eef7365c03d4",
    ("n8_t24", 2, 16): "6ef5bead1754b3a5e61ec02c449dbe45066dc1f1b248b980ba76413912f368a2",
    ("n8_t24", 3, 64): "188c72ae34669a7947602ff0e21c730d60d0f37a6741cc7c9971d287e69a65b2",
    ("n12_t24", 1, 64): "b30ec1f3fc43fb3b60eaf811546e69271342d3cf3bc533f052a9ac2512fecd30",
    ("n12_t24", 2, 16): "95e51f628e5165648971a198fc8de759f01d0b2751c1ffe904cc93a77499060b",
}

# both tree searches on ``gen_instance(17, 4, 1)``, a fleet above 16 units
LARGE_FLEET_DIGESTS = {
    "tree": (
        dict(lookahead=2),
        "809f2b660e918c4156bc6683cee9c984adc8fff781309117fa2140c51563c98d",
    ),
    "tree-sub": (
        dict(lookahead=2, sample_count=16, rho=0.5, seed=0),
        "1606838864fae0f9f2cf3a795d1520bb58f0183d34d5ff8af774255793e0a8bb",
    ),
}

# API baseline on ``gen_instance(6, 24, 1)``: seed 0, 3 iterations of 200
# episodes; the weights are one ``sarsa_evaluate`` (alpha 0.01, epsilon 0.1,
# 200 episodes, generator seed 0) of a fresh tree policy
API_PLAN_DIGEST = "cef0ad78bc318faaf7e6a0a6e5cc464809274ad0465dab2c0e3caadf6730d680"
API_WEIGHTS_DIGEST = "61be3b675fce487f87fdbb84185347aa980f0320eaa37533d1b987965fe487bb"

EXACT_DP_DIGEST = "943382c9e6e6612749be0b1d92b2722568b78274a990ebe9ccb336186013ae5b"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cold_start_pair() -> ProblemInstance:
    """Two units (N*T = 20), both off and free to start at hour 0."""
    base = gen_instance(2, 10, 3)
    gens = tuple(replace(g, initial_status=-g.t_down) for g in base.generators)
    return ProblemInstance(gens, base.profile)


@pytest.mark.parametrize("algo", sorted(SOLVER_DIGESTS))
def test_solver_csv_and_step_values_are_unchanged(algo):
    inst = gen_instance(6, 24, 1)
    kwargs, digest = SOLVER_DIGESTS[algo]
    sol = run(inst, algo, **kwargs).solution
    assert sha256(schedule_csv_text(sol, inst) + repr(sol.step_values)) == digest


@pytest.mark.parametrize("name, lookahead", sorted(BUNDLED_TREE_DIGESTS))
def test_bundled_tree_plans_are_unchanged(name, lookahead):
    inst = load_instance(INSTANCES / f"{name}.json")
    sol = run(inst, "tree", lookahead=lookahead).solution
    digest = sha256(schedule_csv_text(sol, inst) + repr(sol.step_values))
    assert digest == BUNDLED_TREE_DIGESTS[name, lookahead]


@pytest.mark.parametrize("name, lookahead, sample_count", sorted(BUNDLED_TREE_SUB_DIGESTS))
def test_bundled_tree_sub_plans_are_unchanged(name, lookahead, sample_count):
    inst = load_instance(INSTANCES / f"{name}.json")
    kwargs = dict(lookahead=lookahead, sample_count=sample_count, rho=0.5, seed=0)
    sol = run(inst, "tree-sub", **kwargs).solution
    digest = sha256(schedule_csv_text(sol, inst) + repr(sol.step_values))
    assert digest == BUNDLED_TREE_SUB_DIGESTS[name, lookahead, sample_count]


@pytest.mark.parametrize("algo", sorted(LARGE_FLEET_DIGESTS))
def test_large_fleet_plans_are_unchanged(algo):
    inst = gen_instance(17, 4, 1)
    kwargs, digest = LARGE_FLEET_DIGESTS[algo]
    sol = run(inst, algo, **kwargs).solution
    assert sha256(schedule_csv_text(sol, inst) + repr(sol.step_values)) == digest


def test_api_plan_is_unchanged():
    inst = gen_instance(6, 24, 1)
    sol = run(inst, "api", seed=0, api_iterations=3, api_episodes=200).solution
    assert sha256(schedule_csv_text(sol, inst) + repr(sol.objective)) == API_PLAN_DIGEST


def test_api_sarsa_weights_are_unchanged():
    env = UnitCommitmentMDP(gen_instance(6, 24, 1))
    policy = PerceptronTreePolicy(env.horizon, env.n_units)
    w = sarsa_evaluate(policy, 0.01, 0.1, 200, np.random.default_rng(0), env)
    assert hashlib.sha256(w.tobytes()).hexdigest() == API_WEIGHTS_DIGEST


def test_exhaustive_plan_is_unchanged():
    best = exhaustive_optimum(UnitCommitmentMDP(cold_start_pair()))
    assert best.actions == ((1, 1),) * 10


def test_exact_dp_values_are_unchanged():
    values = exact_dp(UnitCommitmentMDP(cold_start_pair()))
    assert sha256(repr(sorted(values.items()))) == EXACT_DP_DIGEST
