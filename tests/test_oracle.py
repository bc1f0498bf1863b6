import numpy as np
import pytest

from ucplan import (
    NoFeasiblePlanError,
    SystemState,
    TooLargeError,
    UnitCommitmentMDP,
    dp_greedy_solution,
    economic_dispatch,
    exact_dp,
    exhaustive_optimum,
    gen_instance,
    grid_dispatch,
    tree_search_policy,
)

from conftest import make_gen, make_instance


class TestExhaustiveOptimum:
    def test_fully_locked_unit_has_one_plan(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0, t_up=10, initial_status=1)]
        inst = make_instance(gens, demand=[50.0, 60.0, 70.0], reserve=[0.0] * 3)
        env = UnitCommitmentMDP(inst)
        sol = exhaustive_optimum(env)
        assert sol.actions == ((1,), (1,), (1,))

    def test_beats_every_random_feasible_plan(self):
        inst = gen_instance(2, 4, 17)
        env = UnitCommitmentMDP(inst)
        best = exhaustive_optimum(env)
        rng = np.random.default_rng(0)
        found = 0
        while found < 50:
            state = env.initial_state()
            plan = []
            dead = False
            for _ in range(env.horizon):
                feas = env.feasible_actions(state)
                if not feas:
                    dead = True
                    break
                plan.append(feas[int(rng.integers(len(feas)))])
                state = env.transition(state, plan[-1])
            if dead:
                continue
            found += 1
            assert env.schedule_cost(plan).objective >= best.objective

    def test_agrees_with_full_depth_tree_search(self):
        for seed in (1, 9, 23):
            inst = gen_instance(3, 6, seed)
            env = UnitCommitmentMDP(inst)
            best = exhaustive_optimum(env)
            tree = tree_search_policy(6, env)
            assert tree.objective == best.objective

    def test_enumeration_bound(self):
        inst = gen_instance(4, 8, 0)  # N*T = 32
        with pytest.raises(TooLargeError):
            exhaustive_optimum(UnitCommitmentMDP(inst))

    def test_no_feasible_plan(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0, t_down=3, initial_status=-1)]
        inst = make_instance(gens, demand=[50.0, 50.0])
        with pytest.raises(NoFeasiblePlanError):
            exhaustive_optimum(UnitCommitmentMDP(inst))


class TestExactDP:
    def test_terminal_slice_is_zero(self):
        inst = gen_instance(2, 4, 2)
        env = UnitCommitmentMDP(inst)
        values = exact_dp(env)
        assert all(
            v == 0.0 for (hour, _), v in values.items() if hour == env.horizon
        )

    def test_greedy_readout_matches_exhaustive(self):
        for seed in (2, 5):
            inst = gen_instance(2, 4, seed)
            env = UnitCommitmentMDP(inst)
            values = exact_dp(env)
            assert dp_greedy_solution(env, values).objective == exhaustive_optimum(env).objective

    def test_initial_value_is_minus_the_optimum(self):
        inst = gen_instance(2, 4, 2)
        env = UnitCommitmentMDP(inst)
        values = exact_dp(env)
        s0 = env.initial_state()
        best = exhaustive_optimum(env)
        assert values[(0, s0.status)] == pytest.approx(-best.objective, rel=1e-12)

    def test_state_space_bound(self):
        inst = gen_instance(3, 4, 0)
        with pytest.raises(TooLargeError):
            exact_dp(UnitCommitmentMDP(inst))


class TestGridDispatch:
    def test_single_unit_exact(self):
        gens = [make_gen(id=0, p_min=10.0, p_max=100.0)]
        result = grid_dispatch((1,), 37.0, gens, step=0.5)
        assert result.power[0] == 37.0

    def test_symmetric_pair_splits_evenly(self):
        gens = [
            make_gen(id=0, a=1.0, b=0.0, c=0.0, p_min=0.0, p_max=10.0),
            make_gen(id=1, a=1.0, b=0.0, c=0.0, p_min=0.0, p_max=10.0),
        ]
        result = grid_dispatch((1, 1), 10.0, gens, step=1.0)
        assert result.power == (5.0, 5.0)

    def test_three_units_close_to_price_search(self):
        gens = [
            make_gen(id=0, a=0.01, b=10.0, p_min=5.0, p_max=60.0),
            make_gen(id=1, a=0.02, b=12.0, p_min=5.0, p_max=60.0),
            make_gen(id=2, a=0.03, b=14.0, p_min=5.0, p_max=60.0),
        ]
        grid = grid_dispatch((1, 1, 1), 100.0, gens, step=0.01)
        fast = economic_dispatch((1, 1, 1), 100.0, gens)
        assert abs(grid.cost - fast.cost) <= 0.1

    def test_rejects_more_than_three_units(self):
        gens = [make_gen(id=i) for i in range(4)]
        with pytest.raises(TooLargeError):
            grid_dispatch((1, 1, 1, 1), 100.0, gens, step=0.1)
