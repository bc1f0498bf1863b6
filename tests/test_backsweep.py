import numpy as np
import pytest

from ucplan import (
    EmptySliceError,
    HourMismatchError,
    StateDistanceMetric,
    SystemState,
    UnitCommitmentMDP,
    evaluate_states,
    exact_dp,
    exhaustive_optimum,
    find_best_action,
    gen_instance,
    greedy_policy,
    nearest_neighbor,
    sample_environment,
    state_distance,
)
from ucplan.backsweep import SIGN_MISMATCH_WEIGHT, ValueSlice
from ucplan.core import STATUS_CAP

from conftest import cold_start, make_gen, make_instance


def terminal_anchor(env):
    status = tuple(
        min(g.initial_status + env.horizon, STATUS_CAP) for g in env.instance.generators
    )
    return SystemState(status, env.horizon)


class TestStateDistance:
    metric = StateDistanceMetric(counter_caps=(3,))

    def test_identity(self):
        s = SystemState((5,), 2)
        assert state_distance(s, s, self.metric) == 0.0

    def test_sign_flip_beyond_cap_costs_only_the_sign_weight(self):
        # +5 vs -5 with caps at 3: magnitudes clip equal, signs differ
        d = state_distance(SystemState((5,), 0), SystemState((-5,), 0), self.metric)
        assert d == SIGN_MISMATCH_WEIGHT

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(0)
        metric = StateDistanceMetric(counter_caps=(3, 4, 2))
        for _ in range(100):
            s1, s2 = (
                SystemState(
                    tuple(int(v) if v != 0 else 1 for v in rng.integers(-24, 25, size=3)), 1
                )
                for _ in range(2)
            )
            assert state_distance(s1, s2, metric) == state_distance(s2, s1, metric)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(1)
        metric = StateDistanceMetric(counter_caps=(3, 4))
        for _ in range(200):
            a, b, c = (
                SystemState(
                    tuple(int(v) if v != 0 else 1 for v in rng.integers(-24, 25, size=2)), 0
                )
                for _ in range(3)
            )
            assert state_distance(a, c, metric) <= (
                state_distance(a, b, metric) + state_distance(b, c, metric) + 1e-12
            )

    def test_hour_mismatch_raises(self):
        with pytest.raises(HourMismatchError):
            state_distance(SystemState((1,), 0), SystemState((1,), 1), self.metric)


class TestNearestNeighbor:
    metric = StateDistanceMetric(counter_caps=(3, 3))

    def make_slice(self, entries):
        sl = ValueSlice(1)
        for status, value in entries:
            sl.add(SystemState(status, 1), value)
        return sl

    def test_exact_match_returns_itself(self):
        sl = self.make_slice([((5, 5), -10.0), ((2, 2), -20.0)])
        state, value = nearest_neighbor(SystemState((2, 2), 1), sl, self.metric)
        assert state.status == (2, 2) and value == -20.0

    def test_exact_match_beats_zero_distance_twin(self):
        # +5 and +6 clip to the same point; the true state must win
        sl = self.make_slice([((6, 2), -10.0), ((5, 2), -20.0)])
        _, value = nearest_neighbor(SystemState((5, 2), 1), sl, self.metric)
        assert value == -20.0

    def test_singleton_slice(self):
        sl = self.make_slice([((1, 1), -5.0)])
        state, value = nearest_neighbor(SystemState((-24, 3), 1), sl, self.metric)
        assert state.status == (1, 1) and value == -5.0

    def test_straddling_states_pick_the_closer(self):
        sl = self.make_slice([((-3, 1), -1.0), ((2, 1), -2.0)])
        _, value = nearest_neighbor(SystemState((1, 1), 1), sl, self.metric)
        assert value == -2.0

    def test_empty_slice_raises(self):
        with pytest.raises(EmptySliceError):
            nearest_neighbor(SystemState((1, 1), 1), ValueSlice(1), self.metric)

    def test_hour_mismatch_raises(self):
        sl = self.make_slice([((1, 1), 0.0)])
        with pytest.raises(HourMismatchError):
            nearest_neighbor(SystemState((1, 1), 2), sl, self.metric)


class TestSampleEnvironment:
    def test_single_sample_is_the_anchor(self):
        env = UnitCommitmentMDP(gen_instance(3, 4, 0))
        anchor = SystemState((1, 1, 1), 2)
        rng = np.random.default_rng(0)
        assert sample_environment(anchor, 1, rng, env) == [anchor]

    def test_samples_are_valid_distinct_and_timed(self):
        env = UnitCommitmentMDP(gen_instance(3, 4, 0))
        anchor = SystemState((1, -2, 4), 1)
        rng = np.random.default_rng(5)
        out = sample_environment(anchor, 40, rng, env)
        assert len(out) == 40
        assert len({s.status for s in out}) == 40
        assert out[0] == anchor
        for s in out:
            assert s.hour == 1
            assert all(v != 0 and abs(v) <= 24 for v in s.status)

    def test_full_enumeration_when_space_is_small(self):
        env = UnitCommitmentMDP(gen_instance(1, 4, 0))
        anchor = SystemState((2,), 0)
        rng = np.random.default_rng(0)
        out = sample_environment(anchor, 48, rng, env)
        assert len(out) == 48
        assert {s.status[0] for s in out} == {
            v for v in range(-24, 25) if v != 0
        }

    def test_mean_distance_grows_with_fleet_size(self):
        spreads = []
        for n in (2, 6):
            inst = gen_instance(n, 4, 1)
            env = UnitCommitmentMDP(inst)
            metric = StateDistanceMetric().for_instance(inst)
            anchor = SystemState((2,) * n, 0)
            dists = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                for s in sample_environment(anchor, 30, rng, env)[1:]:
                    dists.append(state_distance(anchor, s, metric))
            spreads.append(np.mean(dists))
        assert spreads[1] > spreads[0]


class TestEvaluateStates:
    def test_single_locked_step_value_is_the_forced_reward(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0, t_up=5, initial_status=1)]
        locked = make_instance(gens, demand=[50.0], reserve=[5.0])
        # both units off, and only starting both covers the hour: two
        # start-up prices land in one reward
        double_start = cold_start(gen_instance(2, 1, 1))
        for inst, status, action in [(locked, (2,), (1,)), (double_start, (-2, -2), (1, 1))]:
            env = UnitCommitmentMDP(inst)
            state = SystemState(status, 0)
            assert env.feasible_actions(state) == [action]
            metric = StateDistanceMetric().for_instance(inst)
            rng = np.random.default_rng(0)
            vs = evaluate_states(1, SystemState(status, 1), env, metric, rng)
            s0 = vs.slice_at(0)
            assert s0.states[0].status == status
            forced = env.reward(state, action)
            assert s0.values[0] == forced
            assert find_best_action(state, 1, env) == (action, forced)
            assert exact_dp(env)[(0, status)] == forced

    def test_exhaustive_sampling_reproduces_exact_dp(self):
        inst = gen_instance(2, 4, 3)
        env = UnitCommitmentMDP(inst)
        metric = StateDistanceMetric().for_instance(inst)
        rng = np.random.default_rng(0)
        vs = evaluate_states(48**2, terminal_anchor(env), env, metric, rng)
        dp = exact_dp(env)
        for t in range(env.horizon + 1):
            sl = vs.slice_at(t)
            assert len(sl) == 48**2
            for state, value in zip(sl.states, sl.values):
                assert value == dp[(t, state.status)]

    def test_scaling_all_costs_scales_all_values(self):
        base = gen_instance(2, 4, 6)
        doubled = make_instance(
            [
                make_gen(
                    id=g.id, a=2 * g.a, b=2 * g.b, c=2 * g.c, e=2 * g.e, f=2 * g.f,
                    g=g.g, h=g.h, p_min=g.p_min, p_max=g.p_max,
                    t_up=g.t_up, t_down=g.t_down, initial_status=g.initial_status,
                )
                for g in base.generators
            ],
            demand=base.profile.demand,
            reserve=base.profile.reserve,
        )
        env1, env2 = UnitCommitmentMDP(base), UnitCommitmentMDP(doubled)
        m1 = StateDistanceMetric().for_instance(base)
        m2 = StateDistanceMetric().for_instance(doubled)
        vs1 = evaluate_states(40, terminal_anchor(env1), env1, m1, np.random.default_rng(9))
        vs2 = evaluate_states(40, terminal_anchor(env2), env2, m2, np.random.default_rng(9))
        from ucplan import BIG

        compared = 0
        for t in range(env1.horizon + 1):
            s1, s2 = vs1.slice_at(t), vs2.slice_at(t)
            assert [s.status for s in s1.states] == [s.status for s in s2.states]
            for v1, v2 in zip(s1.values, s2.values):
                if v1 <= -BIG / 2:  # catastrophe penalty is pinned, not scaled
                    assert v2 <= -BIG / 2
                    continue
                assert v2 == 2.0 * v1
                compared += 1
        assert compared > 50

    def test_new_nearer_richer_neighbor_raises_the_backup(self):
        from ucplan.backsweep import _score_actions

        inst = gen_instance(2, 4, 2)
        env = UnitCommitmentMDP(inst)
        metric = StateDistanceMetric().for_instance(inst)
        state = SystemState((2, 2), 1)
        child_status = env._advance(state.status, (1, 1))
        far = SystemState((-24, -24), 2)
        sl = ValueSlice(2)
        sl.add(far, -1e6)
        acts, before = _score_actions(env, state, sl, metric)
        sl.add(SystemState(child_status, 2), 0.0)  # exact neighbor, higher value
        _, after = _score_actions(env, state, sl, metric)
        assert after.max() > before.max()

    def test_anchor_must_be_terminal(self):
        inst = gen_instance(2, 4, 0)
        env = UnitCommitmentMDP(inst)
        metric = StateDistanceMetric().for_instance(inst)
        with pytest.raises(ValueError):
            evaluate_states(5, SystemState((1, 1), 2), env, metric, np.random.default_rng(0))


class TestGreedyPolicy:
    def test_exact_values_recover_the_optimum(self):
        for seed in (0, 4):
            inst = gen_instance(2, 4, seed)
            env = UnitCommitmentMDP(inst)
            metric = StateDistanceMetric().for_instance(inst)
            vs = evaluate_states(
                48**2, terminal_anchor(env), env, metric, np.random.default_rng(0)
            )
            sol = greedy_policy(vs, env.initial_state(), env, metric)
            assert sol.objective == exhaustive_optimum(env).objective

    def test_single_step_reduces_to_reward_argmax(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0)]
        inst = make_instance(gens, demand=[50.0], reserve=[5.0])
        env = UnitCommitmentMDP(inst)
        metric = StateDistanceMetric().for_instance(inst)
        vs = evaluate_states(3, SystemState((3,), 1), env, metric, np.random.default_rng(0))
        sol = greedy_policy(vs, env.initial_state(), env, metric)
        assert sol.actions == ((1,),)

    def test_deterministic_given_fixed_inputs(self):
        inst = gen_instance(3, 5, 7)
        env = UnitCommitmentMDP(inst)
        metric = StateDistanceMetric().for_instance(inst)
        vs = evaluate_states(30, terminal_anchor(env), env, metric, np.random.default_rng(2))
        a = greedy_policy(vs, env.initial_state(), env, metric)
        b = greedy_policy(vs, env.initial_state(), env, metric)
        assert a == b
