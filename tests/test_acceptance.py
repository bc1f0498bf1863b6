"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass lines.  Dollar figures from the original 12-unit benchmark are not
reproducible (its generator parameters are not public), so the bundled
seed-42 instances stand in and the checks are property-based.
"""

import math
import time

import numpy as np

from ucplan import (
    NoFeasibleActionError,
    SystemState,
    UnitCommitmentMDP,
    approximate_policy_iteration,
    economic_dispatch,
    evaluate_states,
    exhaustive_optimum,
    feature_dim,
    features,
    gen_instance,
    greedy_policy,
    grid_dispatch,
    kkt_violation,
    load_instance,
    run,
    subsampled_tree_search,
    tree_search_policy,
)
from ucplan.core import STATUS_CAP
from ucplan.harness import schedule_csv_text

from conftest import INSTANCES, REPO_ROOT, make_gen


def report(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_bundled_instance_stands_in_for_the_benchmark():
    bundled = load_instance(INSTANCES / "n12_t24.json")
    assert bundled == gen_instance(12, 24, 42)
    assert bundled.n_units == 12 and bundled.horizon == 24
    readme = (REPO_ROOT / "README.md").read_text()
    assert "not reproducible" in readme
    report(1, "seed-42 bundled instance matches its generator; README discloses "
              "that the original benchmark costs are not reproducible")


def test_criterion_2_tree_search_is_exact_at_full_depth():
    started = time.perf_counter()
    for seed in range(20):
        inst = gen_instance(3, 6, seed)
        env = UnitCommitmentMDP(inst)
        best = exhaustive_optimum(env)
        tree = tree_search_policy(6, env)
        assert tree.objective == best.objective
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"20/20 seeds match the exhaustive optimum exactly in {elapsed:.1f}s")


def test_criterion_3_back_sweep_is_exact_under_full_sampling():
    started = time.perf_counter()
    space = (2 * STATUS_CAP) ** 2
    for seed in range(10):
        inst = gen_instance(2, 4, seed)
        env = UnitCommitmentMDP(inst)
        best = exhaustive_optimum(env)
        anchor = SystemState(
            tuple(min(g.initial_status + env.horizon, STATUS_CAP) for g in inst.generators),
            env.horizon,
        )
        slices = evaluate_states(space, anchor, env, np.random.default_rng(seed))
        sweep = greedy_policy(slices, env)
        assert sweep.objective == best.objective
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"10/10 seeds reach the exhaustive optimum exactly in {elapsed:.1f}s")


def test_criterion_4_dispatch_kkt_balance_and_grid_cross_check():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 9))
        gens = []
        for i in range(n):
            a = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.001, 0.05))
            p_max = float(rng.uniform(50.0, 400.0))
            gens.append(
                make_gen(id=i, a=a, b=float(rng.uniform(5.0, 30.0)),
                         c=float(rng.uniform(50.0, 500.0)),
                         p_min=p_max * float(rng.uniform(0.1, 0.5)), p_max=p_max)
            )
        action = tuple(int(b) for b in rng.integers(0, 2, size=n))
        lo = sum(g.p_min for g, b in zip(gens, action) if b)
        hi = sum(g.p_max for g, b in zip(gens, action) if b)
        if hi <= lo:
            continue
        demand = float(rng.uniform(lo, hi))
        result = economic_dispatch(action, demand, gens)
        assert abs(sum(result.power) - demand) <= 1e-9 * max(demand, 1.0)
        assert kkt_violation(result, gens, action) <= 1e-6
        checked += 1

    grid_checked = 0
    worst_gap = 0.0
    for k in range(40):
        n = 1 + k % 3
        gens = []
        for i in range(n):
            p_min = float(rng.uniform(0.0, 20.0))
            gens.append(
                make_gen(id=i, a=float(rng.uniform(0.001, 0.05)),
                         b=float(rng.uniform(5.0, 30.0)), c=float(rng.uniform(50.0, 500.0)),
                         p_min=p_min, p_max=p_min + float(rng.uniform(10.0, 55.0)))
            )
        action = (1,) * n
        lo = sum(g.p_min for g in gens)
        hi = sum(g.p_max for g in gens)
        demand = float(rng.uniform(lo, hi))
        fast = economic_dispatch(action, demand, gens)
        grid = grid_dispatch(action, demand, gens, step=0.01)
        worst_gap = max(worst_gap, abs(fast.cost - grid.cost))
        assert abs(fast.cost - grid.cost) <= 0.1
        grid_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, f"1000 KKT/balance cases plus {grid_checked} grid cross-checks "
              f"(worst gap ${worst_gap:.4f}) in {elapsed:.1f}s")


def test_criterion_5_bundled_day_solves_quickly_with_one_hour_lookahead():
    inst = load_instance(INSTANCES / "n12_t24.json")
    started = time.perf_counter()
    result = run(inst, "tree", lookahead=1)  # self-audits the objective
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert len(result.solution.actions) == 24
    report(5, f"N=12, T=24, H=1 solved and self-audited in {elapsed:.1f}s "
              f"(objective ${result.objective:,.0f})")


def test_criterion_6_subsampling_stays_within_one_percent_of_full_search():
    inst = load_instance(INSTANCES / "n8_t24.json")
    env = UnitCommitmentMDP(inst)
    full = tree_search_policy(3, env)
    gaps = []
    for seed in range(5):
        sub = subsampled_tree_search(3, 64, 0.5, seed, env)
        assert sub.objective >= full.objective
        gap = (sub.objective - full.objective) / full.objective
        assert gap <= 0.01
        gaps.append(gap)
    report(6, "5/5 sub-sampling seeds dominate full H=3 and stay within "
              f"{100 * max(gaps):.2f}% of it")


def test_criterion_7_feature_vectors_are_quadratic_with_one_live_half():
    rng = np.random.default_rng(7)
    checked = 0
    for n in (1, 2, 4, 8):
        inst = gen_instance(n, 12, n)
        env = UnitCommitmentMDP(inst)
        done = 0
        while done < 250:
            status = tuple(int(v) if v != 0 else 1 for v in rng.integers(-24, 25, size=n))
            state = SystemState(status, int(rng.integers(0, env.horizon)))
            feasible = env.feasible_actions(state)
            if not feasible:
                continue
            action = feasible[int(rng.integers(len(feasible)))]
            phi = features(state, action, env)
            assert phi.shape == (2 * 4 * n * n,) == (feature_dim(n),)
            halves = phi.reshape(2, -1).sum(axis=1)
            assert min(halves) == 0.0
            assert max(halves) == n * sum(action)
            done += 1
            checked += 1
    report(7, f"{checked} random state-action pairs at N in {{1,2,4,8}} have "
              "dimension 8*N^2 with exactly one populated half")


def test_criterion_8_api_baseline_beats_random_play_at_small_scale():
    started = time.perf_counter()
    inst = gen_instance(4, 8, 42)
    env = UnitCommitmentMDP(inst)
    _, sol = approximate_policy_iteration(10, 0.01, 0.1, 500, np.random.default_rng(0), env)
    assert env.schedule_cost(sol.actions).objective == sol.objective

    rng = np.random.default_rng(123)
    objectives = []
    attempts = 0
    while len(objectives) < 100 and attempts < 2000:
        attempts += 1
        state = env.initial_state()
        plan = []
        dead = False
        for _ in range(env.horizon):
            feasible = env.feasible_actions(state)
            if not feasible:
                dead = True
                break
            plan.append(feasible[int(rng.integers(len(feasible)))])
            state = env.transition(state, plan[-1])
        if not dead:
            objectives.append(env.schedule_cost(plan).objective)
    elapsed = time.perf_counter() - started
    assert len(objectives) == 100
    assert sol.objective < float(np.mean(objectives))
    assert elapsed < 300.0
    report(8, f"API objective ${sol.objective:,.0f} beats the random-policy mean "
              f"${np.mean(objectives):,.0f} on N=4, T=8 in {elapsed:.1f}s")


def test_criterion_9_all_solvers_emit_byte_identical_csv():
    inst = gen_instance(4, 8, 1)
    configs = [
        ("tree", dict(lookahead=2)),
        ("tree-sub", dict(lookahead=2, sample_count=6, rho=0.5, seed=5)),
        ("backsweep", dict(n_samples=30, seed=5, warm_start="tree:H=2")),
        ("api", dict(seed=3, api_iterations=3, api_episodes=100)),
    ]
    for algo, kwargs in configs:
        outputs = {
            schedule_csv_text(run(inst, algo, **kwargs).solution, inst)
            for _ in range(3)
        }
        assert len(outputs) == 1, f"{algo} produced diverging CSV output"
    report(9, "tree, tree-sub, backsweep, and api each "
              "produced byte-identical CSV across 3 runs")
