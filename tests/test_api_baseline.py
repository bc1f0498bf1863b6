import itertools

import numpy as np
import pytest

from ucplan import (
    NoFeasibleActionError,
    PerceptronTreePolicy,
    SystemState,
    UnitCommitmentMDP,
    approximate_policy_iteration,
    feature_dim,
    features,
    gen_instance,
    greedy_action_from_q,
    sarsa_evaluate,
)
from ucplan.mdp import BIG

from conftest import make_gen, make_instance


def trap_env():
    """Two units where shutting the big unit down leads into a dead end:
    hour 1's demand needs it, but a shutdown at hour 0 locks it off."""
    gens = [
        make_gen(id=0, p_min=5.0, p_max=150.0, t_down=2, initial_status=5),
        make_gen(id=1, p_min=5.0, p_max=60.0, t_down=1, t_up=1, initial_status=5),
    ]
    inst = make_instance(gens, demand=[50.0, 120.0, 50.0], reserve=[0.0, 0.0, 0.0])
    return UnitCommitmentMDP(inst)


# (alpha, epsilon, the rate named in the error)
BAD_RATES = [(5.0, 0.1, "alpha"), (-0.1, 0.1, "alpha"), (0.1, -3.0, "epsilon"),
             (0.1, 1.5, "epsilon")]


class TestFeatures:
    def test_dimension_is_quadratic_in_fleet_size(self):
        for n in (1, 2, 4):
            inst = gen_instance(n, 4, 0)
            env = UnitCommitmentMDP(inst)
            s0 = env.initial_state()
            action = env.feasible_actions(s0)[-1]
            phi = features(s0, action, env)
            assert phi.shape == (8 * n * n,)
            assert feature_dim(n) == 8 * n * n

    def test_all_zero_action_gives_all_zero_features(self):
        env = trap_env()
        # all-off is infeasible here, so evaluate structure directly: no
        # committed unit means every action-gated block is zeroed
        phi = features(SystemState((5, 5), 0), (0, 0), env)
        assert phi.sum() == 0.0

    def test_safe_pair_populates_first_half_only(self):
        env = trap_env()
        s = SystemState((5, 5), 0)
        phi = features(s, (1, 1), env)
        n = env.n_units
        first, second = phi[: 4 * n * n], phi[4 * n * n :]
        assert first.sum() == n * 2  # one zone per unit, per committed unit
        assert second.sum() == 0.0

    def test_catastrophe_pair_populates_second_half(self):
        env = trap_env()
        s = SystemState((5, 5), 0)
        # shutting unit 0 down is feasible now but unservable next hour
        assert (0, 1) in env.feasible_actions(s)
        phi = features(s, (0, 1), env)
        n = env.n_units
        first, second = phi[: 4 * n * n], phi[4 * n * n :]
        assert first.sum() == 0.0
        assert second.sum() == n * 1

    def test_exactly_one_half_populated_on_random_pairs(self):
        rng = np.random.default_rng(0)
        inst = gen_instance(4, 8, 1)
        env = UnitCommitmentMDP(inst)
        for _ in range(100):
            status = tuple(int(v) if v != 0 else 1 for v in rng.integers(-24, 25, size=4))
            hour = int(rng.integers(0, env.horizon))
            state = SystemState(status, hour)
            feas = env.feasible_actions(state)
            if not feas:
                continue
            action = feas[int(rng.integers(len(feas)))]
            phi = features(state, action, env)
            half = phi.reshape(2, -1).sum(axis=1)
            assert min(half) == 0.0
            if sum(action):
                assert max(half) == 4 * sum(action)  # N zone bits per on-unit


class TestGreedyActionFromQ:
    def test_zero_weights_pick_lexicographically_smallest(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        w = np.zeros(feature_dim(2))
        s = SystemState((5, 5), 0)
        assert greedy_action_from_q(w, s, env) == env.feasible_actions(s)[0]

    def test_single_feasible_action_wins_regardless(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0, t_up=3, initial_status=1)]
        inst = make_instance(gens, demand=[50.0], reserve=[0.0])
        env = UnitCommitmentMDP(inst)
        w = np.full(feature_dim(1), -1e9)
        assert greedy_action_from_q(w, env.initial_state(), env) == (1,)

    def test_catastrophe_averse_weights_avoid_the_trap(self):
        env = trap_env()
        n = env.n_units
        w = np.concatenate([np.ones(4 * n * n), -np.ones(4 * n * n)])
        s = SystemState((5, 5), 0)
        action = greedy_action_from_q(w, s, env)
        nxt = SystemState(env._advance(s.status, action), 1)
        assert not env.is_catastrophe(nxt)

    def test_no_feasible_action_raises(self):
        env = trap_env()
        # unit 0 locked off while hour 1 needs it
        with pytest.raises(NoFeasibleActionError):
            greedy_action_from_q(np.zeros(feature_dim(2)), SystemState((-1, 5), 1), env)


class TestSarsa:
    @pytest.mark.parametrize("alpha, epsilon, name", BAD_RATES)
    def test_rates_outside_the_unit_interval_are_refused(
        self, two_unit_instance, alpha, epsilon, name
    ):
        env = UnitCommitmentMDP(two_unit_instance)
        policy = PerceptronTreePolicy(env.horizon, env.n_units)
        with pytest.raises(ValueError, match=name):
            sarsa_evaluate(policy, alpha, epsilon, 5, np.random.default_rng(0), env)

    def test_zero_step_size_leaves_weights_at_zero(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        policy = PerceptronTreePolicy(env.horizon, env.n_units)
        w = sarsa_evaluate(policy, 0.0, 0.5, 20, np.random.default_rng(0), env)
        assert not w.any()

    def test_converges_to_the_forced_step_reward(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0, t_up=3, initial_status=1)]
        inst = make_instance(gens, demand=[50.0], reserve=[0.0])
        env = UnitCommitmentMDP(inst)
        policy = PerceptronTreePolicy(env.horizon, env.n_units)
        w = sarsa_evaluate(policy, 0.1, 0.0, 200, np.random.default_rng(0), env)
        s0 = env.initial_state()
        from ucplan.api_baseline import _q_score

        q = _q_score(w[0], s0, (1,), env)
        true = env.reward(s0, (1,))
        assert abs(q - true) <= 0.01 * abs(true)

    def test_fixed_seed_reproduces_weights(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        runs = []
        for _ in range(2):
            policy = PerceptronTreePolicy(env.horizon, env.n_units)
            runs.append(
                sarsa_evaluate(policy, 0.05, 0.3, 50, np.random.default_rng(11), env)
            )
        assert (runs[0] == runs[1]).all()

    def test_dead_end_episode_records_the_penalty(self):
        env = trap_env()
        policy = PerceptronTreePolicy(env.horizon, env.n_units)

        class ShutdownPolicy(PerceptronTreePolicy):
            def classify(self, state, env_):
                feas = env_.feasible_actions(state)
                return feas[0]  # lexicographically smallest: shuts unit 0 down

        w = sarsa_evaluate(ShutdownPolicy(env.horizon, env.n_units), 1.0, 0.0, 1,
                           np.random.default_rng(0), env)
        assert w.min() < -BIG / 10  # the breaking step carries the penalty


class TestPerceptronTree:
    def test_fresh_tree_emits_all_ones(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        policy = PerceptronTreePolicy(env.horizon, env.n_units)
        assert policy.classify(SystemState((5, 5), 0), env) == (1, 1)

    def test_single_update_teaches_the_target(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        policy = PerceptronTreePolicy(env.horizon, env.n_units)
        s = SystemState((5, 5), 0)
        target = (0, 1)
        assert target in env.feasible_actions(s)
        policy.update(s, target, env)
        assert policy.classify(s, env) == target

    def test_classification_is_feasibility_projected(self):
        env = trap_env()
        policy = PerceptronTreePolicy(env.horizon, env.n_units)
        for hour in range(env.horizon):
            for status in [(5, 5), (1, 5), (5, -1), (2, 2)]:
                state = SystemState(status, hour)
                if not env.feasible_actions(state):
                    continue
                assert policy.classify(state, env) in env.feasible_actions(state)

    def test_projection_matches_forcing_locks_first(self):
        # unit 0 is locked off; the other three are free but any three
        # minimum outputs together exceed the demand
        gens = [make_gen(id=i, p_min=30.0, p_max=100.0, t_down=3) for i in range(4)]
        env = UnitCommitmentMDP(make_instance(gens, demand=[80.0, 80.0], reserve=[0.0, 0.0]))

        def forced_then_nearest(policy, state):
            raw = policy._raw_bits(state, env)
            forced = tuple(
                1 if 0 < st < env._t_up[i] else 0 if -env._t_down[i] < st < 0 else bit
                for i, (bit, st) in enumerate(zip(raw, state.status))
            )
            feas = env.feasible_actions(state)
            if forced in feas:
                return forced
            return min(feas, key=lambda a: (sum(x != y for x, y in zip(a, forced)), a))

        state = SystemState((-1, 5, 5, 5), 0)
        fresh = PerceptronTreePolicy(env.horizon, env.n_units)
        assert fresh._raw_bits(state, env) == (1, 1, 1, 1)  # breaks the lock
        assert (0, 1, 1, 1) not in env.feasible_actions(state)  # forced fails the limits
        assert fresh.classify(state, env) == forced_then_nearest(fresh, state) == (0, 0, 1, 1)

        rng = np.random.default_rng(3)
        for _ in range(5):
            policy = PerceptronTreePolicy(env.horizon, env.n_units)
            for d in range(env.n_units):
                for prefix in itertools.product((0, 1), repeat=d):
                    policy._trees[0][prefix] = rng.normal(size=4 * env.n_units)
            for status in itertools.product((-2, -1, 1, 3), repeat=env.n_units):
                state = SystemState(status, 0)
                if env.feasible_actions(state):
                    assert policy.classify(state, env) == forced_then_nearest(policy, state)

    def test_converges_on_a_separable_task(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        policy = PerceptronTreePolicy(env.horizon, env.n_units)
        cases = [
            (SystemState((5, 5), 0), (1, 0)),   # settled-on zone
            (SystemState((1, 1), 0), (1, 1)),   # min-up window zone
        ]
        for _ in range(50):
            for state, target in cases:
                policy.update(state, target, env)
            if all(policy.classify(s, env) == t for s, t in cases):
                break
        assert all(policy.classify(s, env) == t for s, t in cases)


class TestApproximatePolicyIteration:
    @pytest.mark.parametrize("alpha, epsilon, name", BAD_RATES)
    def test_rates_outside_the_unit_interval_are_refused(
        self, two_unit_instance, alpha, epsilon, name
    ):
        env = UnitCommitmentMDP(two_unit_instance)
        with pytest.raises(ValueError, match=name):
            approximate_policy_iteration(1, alpha, epsilon, 5, np.random.default_rng(0), env)

    def test_single_pure_exploration_iteration_runs(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        policy, sol = approximate_policy_iteration(
            1, 0.05, 1.0, 30, np.random.default_rng(0), env
        )
        assert len(sol.actions) == env.horizon

    def test_beats_random_feasible_policies_on_average(self):
        # cheap vs dear unit, full switching freedom: random play overpays
        gens = [
            make_gen(id=0, a=0.002, b=5.0, c=50.0, p_min=5.0, p_max=100.0,
                     t_up=1, t_down=1, initial_status=1),
            make_gen(id=1, a=0.002, b=25.0, c=150.0, p_min=5.0, p_max=100.0,
                     t_up=1, t_down=1, initial_status=1),
        ]
        inst = make_instance(gens, demand=[50.0, 60.0, 50.0, 40.0], reserve=[5.0] * 4)
        env = UnitCommitmentMDP(inst)
        _, sol = approximate_policy_iteration(
            5, 0.02, 0.2, 200, np.random.default_rng(1), env
        )
        rng = np.random.default_rng(2)
        objectives = []
        while len(objectives) < 100:
            state = env.initial_state()
            plan = []
            try:
                for _ in range(env.horizon):
                    feas = env.feasible_actions(state)
                    if not feas:
                        raise NoFeasibleActionError("dead end")
                    plan.append(feas[int(rng.integers(len(feas)))])
                    state = env.transition(state, plan[-1])
            except NoFeasibleActionError:
                continue
            objectives.append(env.schedule_cost(plan).objective)
        assert sol.objective < np.mean(objectives)

    def test_mid_scale_run_produces_a_feasible_schedule(self):
        inst = gen_instance(4, 8, 42)
        env = UnitCommitmentMDP(inst)
        _, sol = approximate_policy_iteration(
            10, 0.01, 0.1, 500, np.random.default_rng(0), env
        )
        # replay validates feasibility step by step
        assert env.schedule_cost(sol.actions).objective == sol.objective
