"""Golden values pinned before a change to the solvers' arithmetic.

The small-instance digests were recorded before the reward kernel was
unified, the bundled-instance tree ones before dispatch was batched, and
the bundled-instance tree-sub ones before the two search recursions were
merged.  Each digest covers a solver's emitted ``schedule.csv`` text plus
the ``repr`` of its per-hour step values, so a change in the last bit of
any value the search reports fails here.  The small solver instance has a
multi-start-up hour in all three plans; the oracle instance starts both
units off, and its optimum starts both in hour 0.  Never re-record these
to make a refactor pass: a mismatch is a behaviour change.
"""

import hashlib
from dataclasses import replace

import pytest

from ucplan import ProblemInstance, UnitCommitmentMDP, exact_dp, exhaustive_optimum, gen_instance
from ucplan.harness import load_instance, run, schedule_csv_text

from conftest import INSTANCES

SOLVER_DIGESTS = {
    "tree": (
        dict(lookahead=2),
        "7416879efb352b7f5c9aaf418cb0383c5b9b52be5a751aec09bc3e55a950f470",
    ),
    "tree-sub": (
        dict(lookahead=2, sample_count=16, rho=0.5, seed=0),
        "5a651a8df298ae28f7b01e5297e76f2d75d614e3d0076523fd46a82892405bc4",
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
    ("n12_t24", 1): "e4636d014218c56c26d9702abbdefb00a5a37734816a8dce904ae5849e0dda2b",
    ("n12_t24", 2): "cf60d5372808069556112ac2d50c657376f4f64700925bc8bb9649c34950e0eb",
}

# sub-sampled tree search (rho 0.5, seed 0) on the bundled instances:
# (instance, H, K) -> digest
BUNDLED_TREE_SUB_DIGESTS = {
    ("n8_t24", 1, 64): "b2276797e1c6a405f802470fb30db7fde5e9db51cc0b557f5c45ffdcde60d000",
    ("n8_t24", 2, 16): "d0321c60a341c1264599c6d761beba3d383a14b90da49a8bceb788411d2850b2",
    ("n8_t24", 3, 64): "1ba4b35d9afd8f14d8ed8d73b0ec11cd7ac62481d0a483eefac0b1afff033f49",
    ("n12_t24", 1, 64): "71d7130ea1b794613ac174184e0240eb998ba6a029f656f1a87e4b950253ee3a",
    ("n12_t24", 2, 16): "9854a4d78c58871d6e862e4029c24d0c633b09abe3f068e46f3068781b795626",
}

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


def test_exhaustive_plan_is_unchanged():
    best = exhaustive_optimum(UnitCommitmentMDP(cold_start_pair()))
    assert best.actions == ((1, 1),) * 10


def test_exact_dp_values_are_unchanged():
    values = exact_dp(UnitCommitmentMDP(cold_start_pair()))
    assert sha256(repr(sorted(values.items()))) == EXACT_DP_DIGEST
