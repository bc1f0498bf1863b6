import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from ucplan import (
    NoFeasibleActionError,
    ProblemInstance,
    SearchConfig,
    SubsampleConfig,
    SystemState,
    UnitCommitmentMDP,
    exhaustive_optimum,
    find_best_action,
    gen_instance,
    load_instance,
    run,
    sample_action_neighborhood,
    subsampled_tree_search,
    tree_search_policy,
    treesearch,
)
from ucplan.mdp import BIG

from conftest import INSTANCES, cold_start, make_gen, make_instance


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


def cutoff_reference(env, status, hour, aints):
    """First maximum of the full cutoff vector: each candidate's reward,
    minus BIG where its child is a catastrophe state."""
    dead = env.child_dead_end(status, hour)
    values = [
        r + (-BIG if dead(a) else 0.0) for r, a in zip(env.rewards(status, hour, aints), aints)
    ]
    best = max(range(len(values)), key=values.__getitem__)
    return best, values[best]


class TestCutoffMax:
    """``_cutoff_best`` against the full vector it stands in for."""

    cutoff_best = staticmethod(treesearch._cutoff_best)

    def check(self, env, status, hour, aints):
        got = self.cutoff_best(env, status, hour, aints)
        want = cutoff_reference(env, status, hour, aints)
        assert (got[0], repr(got[1])) == (want[0], repr(want[1]))
        return got

    def checked_cutoffs(self, monkeypatch, env, lookahead):
        """Runs tree search, checking ``_cutoff_best`` at every cutoff node,
        roots included; returns each node's dead-end flags."""
        seen = []

        def checked(env, status, hour, aints):
            seen.append(list(map(env.child_dead_end(status, hour), aints)))
            return self.check(env, status, hour, aints)

        monkeypatch.setattr(treesearch, "_cutoff_best", checked)
        tree_search_policy(env.initial_state(), SearchConfig(lookahead), env)
        return seen

    def test_every_cutoff_node_of_the_bundled_n8_search(self, monkeypatch):
        # branch and bound leaves a few hundred cutoff nodes at H=3; H=4
        # brings the count back above a thousand
        env = UnitCommitmentMDP(load_instance(INSTANCES / "n8_t24.json"))
        self.checked_cutoffs(monkeypatch, env, 3)
        env = UnitCommitmentMDP(load_instance(INSTANCES / "n8_t24.json"))
        assert len(self.checked_cutoffs(monkeypatch, env, 4)) > 1000
        env = UnitCommitmentMDP(load_instance(INSTANCES / "n8_t24.json"))
        assert len(self.checked_cutoffs(monkeypatch, env, 1)) == env.horizon

    def test_every_root_of_the_bundled_n12_search(self, monkeypatch):
        env = UnitCommitmentMDP(load_instance(INSTANCES / "n12_t24.json"))
        assert len(self.checked_cutoffs(monkeypatch, env, 1)) == env.horizon

    def test_cutoff_nodes_with_dead_children(self, monkeypatch):
        # gen_instance(3, 4, 1) has a dead end one hour out
        seen = []
        for lookahead in (1, 2, 3):
            env = UnitCommitmentMDP(gen_instance(3, 4, 1))
            seen += self.checked_cutoffs(monkeypatch, env, lookahead)
        assert any(any(dead) for dead in seen)

    @pytest.mark.parametrize("scale", [1.0, 1e10])
    @pytest.mark.parametrize("initial_status", [1, -5], ids=["all-dead", "best-dead"])
    def test_nodes_whose_best_children_are_dead(self, initial_status, scale):
        # unit 0 is cheap, but once on it stays on for three hours, and
        # hour 1's 30 MW lie below its minimum output.  Started an hour ago,
        # it is locked on, so every child of hour 0 is dead; off, only the
        # actions that start it are dead, among them the best reward.
        # Scaled by 1e10, rewards dwarf BIG, and a dead child can score
        # above a live one.
        gens = [
            make_gen(id=0, b=10.0, p_min=60.0, p_max=100.0, t_up=3,
                     initial_status=initial_status),
            make_gen(id=1, b=50.0, p_min=5.0, p_max=100.0),
        ]
        env = UnitCommitmentMDP(make_instance(gens, demand=[80.0, 30.0, 30.0]))
        rewards_of = env.rewards
        env.rewards = lambda *args: [scale * r for r in rewards_of(*args)]
        status = env.initial_state().status
        aints = env._feasible_ints(status, 0)
        rewards = env.rewards(status, 0, aints)
        dead = list(map(env.child_dead_end(status, 0), aints))
        assert dead[rewards.index(max(rewards))]
        assert all(dead) == (initial_status == 1)
        self.check(env, status, 0, aints)

    @pytest.mark.parametrize("sticky, winner", [(0, (0, 1, 0)), (1, (1, 0, 0))],
                             ids=["lower-live", "lower-dead"])
    def test_reward_ties(self, sticky, winner):
        # units 0 and 1 are twins, both off, and either alone is the
        # cheapest way to meet hour 0's 80 MW; the sticky one, once on,
        # stays on through hour 1, whose 30 MW lie below its minimum
        # output.  Unit 1 alone, (0, 1, 0), is the lower action, so the
        # first maximum keeps it unless its child is the dead one.
        gens = [
            make_gen(id=i, b=10.0, p_min=60.0, p_max=100.0, t_up=3 if i == sticky else 1,
                     t_down=1, initial_status=-5)
            for i in range(2)
        ]
        gens.append(make_gen(id=2, b=50.0, p_min=5.0, p_max=100.0, t_down=1, initial_status=5))
        env = UnitCommitmentMDP(make_instance(gens, demand=[80.0, 30.0]))
        status = env.initial_state().status
        aints = env._feasible_ints(status, 0)
        rewards = env.rewards(status, 0, aints)
        dead = env.child_dead_end(status, 0)
        tied = [aints.index(env._int_of(a)) for a in ((0, 1, 0), (1, 0, 0))]
        assert rewards[tied[0]] == rewards[tied[1]] == max(rewards)
        assert [dead(aints[k]) for k in tied] == [sticky == 1, sticky == 0]
        best, value = self.check(env, status, 0, aints)
        assert env._bits_of(aints[best]) == winner
        assert value == max(rewards)

    def test_reward_tie_behind_a_dead_best(self):
        # as above with neither twin sticky, plus a sticky unit 2 that is a
        # little cheaper: its start alone has the best reward and a dead
        # child, and the full vector's first maximum is the lower twin
        gens = [
            make_gen(id=i, b=b, p_min=60.0, p_max=100.0, t_up=t_up, t_down=1, initial_status=-5)
            for i, (b, t_up) in enumerate([(10.0, 1), (10.0, 1), (9.0, 3)])
        ]
        gens.append(make_gen(id=3, b=50.0, p_min=5.0, p_max=100.0, t_down=1, initial_status=5))
        env = UnitCommitmentMDP(make_instance(gens, demand=[80.0, 30.0]))
        status = env.initial_state().status
        aints = env._feasible_ints(status, 0)
        rewards = env.rewards(status, 0, aints)
        dead = env.child_dead_end(status, 0)
        first, *tied = [aints.index(env._int_of(a))
                        for a in ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))]
        assert rewards[first] == max(rewards) and dead(aints[first])
        assert rewards[tied[0]] == rewards[tied[1]] == max(r for r in rewards if r < max(rewards))
        assert not any(dead(aints[k]) for k in tied)
        best, value = self.check(env, status, 0, aints)
        assert (best, value) == (tied[0], rewards[tied[0]])


def plain_search(env, status, hour, depth):
    """Index and value of the first best candidate over every feasible
    sequence of ``depth`` more steps, scored in full: the definition the
    pruned search must reproduce."""
    cands = env._feasible_ints(status, hour)
    if not cands:
        return None, -BIG
    if depth == 1 or hour + 1 == env.horizon:
        return cutoff_reference(env, status, hour, cands)
    values = [
        r + plain_search(env, env._advance(status, env._bits_of(a)), hour + 1, depth - 1)[1]
        for a, r in zip(cands, env.rewards(status, hour, cands))
    ]
    best = max(range(len(values)), key=values.__getitem__)
    return best, values[best]


def reachable_states(env, count, seed):
    """``count`` non-catastrophe states met on random feasible walks from
    hour 0, each walk stopping at a random hour."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        state = env.initial_state()
        stop = int(rng.integers(env.horizon))
        while state.hour < stop and not env.is_catastrophe(state):
            feas = env._feasible_ints(state.status, state.hour)
            action = env._bits_of(feas[rng.integers(len(feas))])
            state = env.transition(state, action)
        if not env.is_catastrophe(state):
            states.append(state)
    return states


class TestBranchAndBound:
    """The pruned searches against the full ones they stand in for."""

    @staticmethod
    def check(env, state, lookahead):
        want_k, want = plain_search(env, state.status, state.hour, lookahead)
        action, value = find_best_action(state, lookahead, env)
        cands = env._feasible_ints(state.status, state.hour)
        assert (env._int_of(action), repr(value)) == (cands[want_k], repr(want))

    @pytest.mark.parametrize(
        "name, lookahead, count",
        [("n8_t24", 2, 8), ("n8_t24", 3, 6), ("n8_t24", 4, 3), ("n12_t24", 2, 2)],
    )
    def test_exact_search_equals_the_plain_recursion(self, name, lookahead, count):
        env = UnitCommitmentMDP(load_instance(INSTANCES / f"{name}.json"))
        for state in reachable_states(env, count, seed=lookahead):
            self.check(env, state, lookahead)

    def test_exact_search_equals_the_plain_recursion_next_to_a_dead_end(self):
        # gen_instance(3, 4, 1) has a dead end one hour out
        env = UnitCommitmentMDP(gen_instance(3, 4, 1))
        for lookahead in (1, 2, 3, 4):
            for state in reachable_states(env, 10, seed=lookahead):
                self.check(env, state, lookahead)

    def test_ties_go_to_the_lowest_action(self):
        # unit 2 is unit 0's twin, so every sequence that commits one and
        # not the other ties with its mirror image
        base = gen_instance(2, 6, 1)
        twin = replace(base.generators[0], id=2)
        env = UnitCommitmentMDP(ProblemInstance((*base.generators, twin), base.profile))
        for lookahead in (2, 3):
            for state in reachable_states(env, 6, seed=lookahead):
                self.check(env, state, lookahead)

    @pytest.mark.parametrize("lookahead", [2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e10])
    def test_dead_ends_that_outscore_live_branches(self, scale, lookahead):
        # unit 1 alone has the best reward at hour 0; starting unit 0 costs
        # more and, as it then stays on, leaves hour 1's 30 MW below its
        # minimum output.  Scaled by 1e10, any live hour costs more than
        # BIG, so the dead branch wins, and the bound of a child must be
        # no lower than the -BIG it can return.
        gens = [
            make_gen(id=0, b=60.0, p_min=60.0, p_max=100.0, t_up=3, initial_status=-5),
            make_gen(id=1, b=50.0, p_min=5.0, p_max=100.0),
        ]
        env = UnitCommitmentMDP(make_instance(gens, demand=[80.0, 30.0, 30.0]))
        rewards_of = env.rewards
        env.rewards = lambda *args: [scale * r for r in rewards_of(*args)]
        self.check(env, env.initial_state(), lookahead)
        action, _ = find_best_action(env.initial_state(), lookahead, env)
        assert action == ((1, 1) if scale > 1 else (0, 1))

    def test_a_near_tie_behind_a_tight_bound(self):
        # dropping unit 1 now saves its $100 fixed cost, but hour 1 needs
        # it back at a $100.50 start-up; keeping both on wins by $0.50, and
        # its hour 1 costs exactly the bound, so nothing looser than the
        # strict comparison keeps it
        gens = [
            make_gen(id=0, a=0.0, b=10.0, c=0.0, p_min=0.0, p_max=100.0,
                     t_up=1, t_down=1, initial_status=5),
            make_gen(id=1, a=0.0, b=20.0, c=100.0, e=100.5, f=0.0, g=0.0, h=0.0,
                     p_min=0.0, p_max=100.0, t_up=1, t_down=1, initial_status=5),
        ]
        env = UnitCommitmentMDP(make_instance(gens, demand=[50.0, 150.0]))
        self.check(env, env.initial_state(), 2)
        assert find_best_action(env.initial_state(), 2, env) == ((1, 1), -2700.0)

    def test_pruning_skips_most_nodes_of_the_bundled_n8_search(self, monkeypatch):
        calls = []
        search = treesearch._search

        def counted(*args):
            calls.append(args[2])
            return search(*args)

        monkeypatch.setattr(treesearch, "_search", counted)
        inst = load_instance(INSTANCES / "n8_t24.json")
        env = UnitCommitmentMDP(inst)
        pruned = find_best_action(env.initial_state(), 3, env)
        n_pruned = len(calls)
        env = UnitCommitmentMDP(inst)
        monkeypatch.setattr(env, "reward_bound", lambda hour: math.inf)
        calls.clear()
        assert find_best_action(env.initial_state(), 3, env) == pruned
        assert 0 < 10 * n_pruned < len(calls)

    @pytest.mark.parametrize("lookahead", [2, 3])
    def test_tree_sub_root_pruning_keeps_the_plan(self, monkeypatch, lookahead):
        inst = load_instance(INSTANCES / "n8_t24.json")
        config = SearchConfig(lookahead, SubsampleConfig(64, 0.5))
        env = UnitCommitmentMDP(inst)
        pruned = subsampled_tree_search(env.initial_state(), config, env)
        env = UnitCommitmentMDP(inst)
        monkeypatch.setattr(env, "reward_bound", lambda hour: math.inf)
        full = subsampled_tree_search(env.initial_state(), config, env)
        assert pruned.actions == full.actions
        assert repr(pruned.step_values) == repr(full.step_values)


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
