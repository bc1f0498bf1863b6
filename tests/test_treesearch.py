import math
from collections import defaultdict

import numpy as np
import pytest

from ucplan import (
    NoFeasibleActionError,
    SearchConfig,
    SubsampleConfig,
    SystemState,
    UnitCommitmentMDP,
    exhaustive_optimum,
    find_best_action,
    gen_instance,
    run,
    sample_action_neighborhood,
    subsampled_tree_search,
    tree_search_policy,
)

from conftest import cold_start, make_gen, make_instance


class TestFindBestAction:
    def test_locked_single_unit_accumulates_dispatch_costs(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=120.0, t_up=10, initial_status=1)]
        inst = make_instance(gens, demand=[50.0, 60.0, 70.0], reserve=[0.0] * 3)
        env = UnitCommitmentMDP(inst)
        action, value = find_best_action(env.initial_state(), 3, env)
        assert action == (1,)
        expected = -math.fsum(
            env.dispatch_cost((1,), t) for t in range(3)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_lookahead_truncates_at_horizon(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        s = SystemState((3, 3), env.horizon - 1)
        _, shallow = find_best_action(s, 1, env)
        _, deep = find_best_action(s, 99, env)
        assert shallow == deep  # no hours remain beyond the horizon

    def test_full_depth_matches_exhaustive_on_random_instance(self):
        inst = gen_instance(3, 6, seed=11)
        env = UnitCommitmentMDP(inst)
        best = exhaustive_optimum(env)
        sol = tree_search_policy(env.initial_state(), SearchConfig(6), env)
        assert sol.objective == best.objective

    def test_zero_lookahead_rejected(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        with pytest.raises(ValueError):
            find_best_action(env.initial_state(), 0, env)

    def test_root_catastrophe_raises(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0, t_down=3)]
        inst = make_instance(gens, demand=[50.0, 50.0])
        env = UnitCommitmentMDP(inst)
        with pytest.raises(NoFeasibleActionError):
            find_best_action(SystemState((-1,), 0), 2, env)

    def test_value_consistent_with_recursive_descent(self):
        # v(s, H) == r(s, a*) + v(f(s, a*), H-1), replayed to the cutoff;
        # the cold pair's best first action starts both units at once
        for inst in (gen_instance(3, 6, seed=4), cold_start(gen_instance(2, 10, 3))):
            env = UnitCommitmentMDP(inst)

            def descend(state, depth):
                if depth == 0 or state.hour == env.horizon:
                    return 0.0
                action, value = find_best_action(state, depth, env)
                tail = descend(env.transition(state, action), depth - 1)
                assert value == env.reward(state, action) + tail
                return value

            descend(env.initial_state(), 4)


class TestTreeSearchPolicy:
    def test_horizon_one_equals_single_search(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=120.0)]
        inst = make_instance(gens, demand=[50.0], reserve=[5.0])
        env = UnitCommitmentMDP(inst)
        sol = tree_search_policy(env.initial_state(), SearchConfig(1), env)
        action, value = find_best_action(env.initial_state(), 1, env)
        assert sol.actions == (action,)
        assert sol.step_values == (value,)

    def test_five_step_window_still_finds_the_optimum(self):
        # one hour short of the horizon: only the first decision is taken
        # with a truncated window, which does not hurt on these instances
        for seed in (1, 9, 23):
            inst = gen_instance(3, 6, seed)
            env = UnitCommitmentMDP(inst)
            best = exhaustive_optimum(env)
            sol = tree_search_policy(env.initial_state(), SearchConfig(5), env)
            assert sol.objective == best.objective

    def test_one_hour_lookahead_walks_into_a_restart_bill(self):
        # pocketing unit 1's running cost now means paying its start-up
        # at the peak; the full-depth plan keeps both units on throughout
        gens = [
            make_gen(id=0, a=0.001, b=5.0, c=20.0, e=400.0, f=200.0, g=0.3, h=0.1,
                     p_min=0.0, p_max=120.0, t_up=1, t_down=1, initial_status=-1),
            make_gen(id=1, a=0.02, b=40.0, c=100.0, p_min=0.0, p_max=200.0,
                     t_up=1, t_down=1, initial_status=5),
        ]
        inst = make_instance(gens, demand=[60.0, 150.0, 150.0], reserve=[5.0] * 3)
        env = UnitCommitmentMDP(inst)
        full = tree_search_policy(env.initial_state(), SearchConfig(3), env)
        short = tree_search_policy(env.initial_state(), SearchConfig(1), env)
        assert short.objective > full.objective

    def test_myopia_costs_money(self):
        # short lookahead is never cheaper than the full-depth plan
        for seed in (0, 3, 8):
            inst = gen_instance(3, 6, seed)
            env = UnitCommitmentMDP(inst)
            full = tree_search_policy(env.initial_state(), SearchConfig(6), env)
            try:
                shallow = tree_search_policy(env.initial_state(), SearchConfig(1), env)
            except NoFeasibleActionError:
                continue  # walked into a dead end: counts as worse
            assert shallow.objective >= full.objective

    def test_rollout_dead_end_reports_step(self):
        gens = [
            make_gen(id=0, a=0.0, b=1.0, c=0.0, e=0.0, f=0.0, p_min=0.0, p_max=100.0,
                     t_down=3, initial_status=5),
            make_gen(id=1, a=0.0, b=50.0, c=10.0, e=1e5, f=0.0, g=0.0, h=0.0,
                     p_min=0.0, p_max=100.0, t_down=3, initial_status=5),
        ]
        # hours 0 and 1 are coverable by unit 0 alone; hour 2 needs both
        # units, and unit 1 switched off at hour 0 stays locked off until 3
        inst = make_instance(gens, demand=[40.0, 40.0, 150.0], reserve=[0.0, 0.0, 0.0])
        env = UnitCommitmentMDP(inst)
        with pytest.raises(NoFeasibleActionError) as err:
            tree_search_policy(env.initial_state(), SearchConfig(1), env)
        assert err.value.step == 2
        # one more hour of lookahead sees the trap
        assert tree_search_policy(env.initial_state(), SearchConfig(2), env).actions[0] == (1, 1)

    def test_lookahead_sees_a_dead_end_one_hour_past_the_cutoff(self):
        inst = gen_instance(3, 4, 1)
        env = UnitCommitmentMDP(inst)
        deep = tree_search_policy(env.initial_state(), SearchConfig(4), env)
        for lookahead in (1, 2):
            plan = tree_search_policy(env.initial_state(), SearchConfig(lookahead), env)
            assert plan.objective == deep.objective
        config = SearchConfig(1, SubsampleConfig(64, 0.5))
        assert subsampled_tree_search(env.initial_state(), config, env).objective == deep.objective
        # the back sweep's default warm start is tree H=1
        assert run(inst, "backsweep").objective == deep.objective

    def test_starts_only_from_hour_zero(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        with pytest.raises(ValueError):
            tree_search_policy(SystemState((3, 3), 1), SearchConfig(1), env)

    def test_threads_do_not_change_the_plan(self):
        inst = gen_instance(5, 8, seed=6)
        env = UnitCommitmentMDP(inst)
        one = tree_search_policy(env.initial_state(), SearchConfig(2, threads=1), env)
        four = tree_search_policy(env.initial_state(), SearchConfig(2, threads=4), env)
        assert one.actions == four.actions
        assert one.step_values == four.step_values


def all_free_env():
    """Four units, all free, every action with at least one unit on is
    feasible (each unit alone covers demand plus reserve)."""
    gens = [
        make_gen(id=i, p_min=0.0, p_max=100.0, t_up=1, t_down=1, initial_status=5)
        for i in range(4)
    ]
    inst = make_instance(gens, demand=[50.0] * 3, reserve=[5.0] * 3)
    return UnitCommitmentMDP(inst)


class TestSampleActionNeighborhood:
    @staticmethod
    def sample(anchor, state, sample_count, decay, rng, env):
        """The sampler on action tuples: bit-packed in, bit-packed out."""
        aints = sample_action_neighborhood(
            env._int_of(anchor), state.status, state.hour, sample_count, decay, rng, env
        )
        return [env._bits_of(a) for a in aints]

    def test_covers_full_feasible_set(self):
        env = all_free_env()
        state = env.initial_state()
        rng = np.random.default_rng(0)
        anchor = (1, 1, 1, 1)
        sampled = self.sample(anchor, state, 16, 0.5, rng, env)
        assert sampled == env.feasible_actions(state)

    def test_vanishing_decay_keeps_nearest_actions(self):
        env = all_free_env()
        state = env.initial_state()
        anchor = (1, 1, 1, 1)
        feas = env.feasible_actions(state)
        dist = {a: sum(x != y for x, y in zip(a, anchor)) for a in feas}
        want = sorted(sorted(dist.values())[:4])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            sampled = self.sample(anchor, state, 4, 1e-9, rng, env)
            assert anchor in sampled
            assert sorted(dist[a] for a in sampled) == want

    def test_inclusion_frequency_decreases_with_distance(self):
        env = all_free_env()
        state = env.initial_state()
        anchor = (1, 1, 1, 1)
        feas = env.feasible_actions(state)
        dist = {a: sum(x != y for x, y in zip(a, anchor)) for a in feas}
        rng = np.random.default_rng(42)
        counts = defaultdict(int)
        draws = 10_000
        for _ in range(draws):
            for a in self.sample(anchor, state, 4, 0.5, rng, env):
                counts[a] += 1
        by_distance = defaultdict(list)
        for a in feas:
            by_distance[dist[a]].append(counts[a] / draws)
        means = [np.mean(by_distance[d]) for d in sorted(by_distance)]
        assert all(x > y for x, y in zip(means, means[1:]))

    def test_infeasible_anchor_projected_to_nearest(self):
        env = all_free_env()
        state = env.initial_state()
        rng = np.random.default_rng(1)
        sampled = self.sample((0, 0, 0, 0), state, 1, 0.5, rng, env)
        # all-off is infeasible; its nearest feasible neighbors are one-hot
        assert sampled in ([(0, 0, 0, 1)], [(0, 0, 1, 0)], [(0, 1, 0, 0)], [(1, 0, 0, 0)])
        assert sampled == [(0, 0, 0, 1)]  # lexicographic among equals

    def test_catastrophe_state_yields_empty_list(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0, t_down=3)]
        inst = make_instance(gens, demand=[50.0, 50.0])
        env = UnitCommitmentMDP(inst)
        rng = np.random.default_rng(0)
        assert self.sample((1,), SystemState((-1,), 0), 2, 0.5, rng, env) == []


class TestSubsampledTreeSearch:
    def test_exhaustive_sampling_recovers_full_search(self):
        inst = gen_instance(3, 6, seed=5)
        env = UnitCommitmentMDP(inst)
        full = tree_search_policy(env.initial_state(), SearchConfig(3), env)
        for seed in (0, 7):
            cfg = SearchConfig(3, subsample=SubsampleConfig(8, 0.5, seed))
            sub = subsampled_tree_search(env.initial_state(), cfg, env)
            assert sub.actions == full.actions
            assert sub.objective == full.objective

    def test_sampling_never_beats_full_search(self):
        for seed in range(5):
            inst = gen_instance(3, 6, seed=20 + seed)
            env = UnitCommitmentMDP(inst)
            full = tree_search_policy(env.initial_state(), SearchConfig(3), env)
            cfg = SearchConfig(3, subsample=SubsampleConfig(2, 0.5, seed))
            try:
                sub = subsampled_tree_search(env.initial_state(), cfg, env)
            except NoFeasibleActionError:
                continue
            assert sub.objective >= full.objective

    def test_fixed_seed_reproduces_solution(self):
        inst = gen_instance(4, 6, seed=1)
        env = UnitCommitmentMDP(inst)
        cfg = SearchConfig(2, subsample=SubsampleConfig(4, 0.5, 12))
        a = subsampled_tree_search(env.initial_state(), cfg, env)
        b = subsampled_tree_search(env.initial_state(), cfg, env)
        assert a == b

    def test_threads_do_not_change_the_plan(self):
        inst = gen_instance(4, 6, seed=1)
        env = UnitCommitmentMDP(inst)
        base = SubsampleConfig(4, 0.5, 12)
        one = subsampled_tree_search(env.initial_state(), SearchConfig(2, subsample=base, threads=1), env)
        four = subsampled_tree_search(env.initial_state(), SearchConfig(2, subsample=base, threads=4), env)
        assert one.actions == four.actions

    def test_requires_subsample_config(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        with pytest.raises(ValueError):
            subsampled_tree_search(env.initial_state(), SearchConfig(2), env)


class TestConfigValidation:
    def test_rejects_bad_lookahead(self):
        with pytest.raises(ValueError):
            SearchConfig(0)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            SubsampleConfig(4, 0.0)
        with pytest.raises(ValueError):
            SubsampleConfig(4, 1.0)
        with pytest.raises(ValueError):
            SubsampleConfig(0, 0.5)
