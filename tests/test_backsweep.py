import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucplan.backsweep as backsweep
from ucplan import (
    EmptySliceError,
    HourMismatchError,
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
from ucplan.backsweep import SIGN_MISMATCH_WEIGHT, ValueSlice, _score_actions
from ucplan.core import STATUS_CAP
from ucplan.harness import load_instance, run
from ucplan.mdp import all_statuses

from conftest import INSTANCES, cold_start, make_gen, make_instance


def terminal_anchor(env):
    status = tuple(
        min(g.initial_status + env.horizon, STATUS_CAP) for g in env.instance.generators
    )
    return SystemState(status, env.horizon)


def lock_caps(instance):
    """The counter caps the solvers use: each unit's max(t_up, t_down)."""
    return tuple(max(g.t_up, g.t_down) for g in instance.generators)


class TestStateDistance:
    caps = (3,)

    def test_identity(self):
        s = SystemState((5,), 2)
        assert state_distance(s, s, self.caps) == 0.0

    def test_sign_flip_beyond_cap_costs_only_the_sign_weight(self):
        # +5 vs -5 with caps at 3: magnitudes clip equal, signs differ
        d = state_distance(SystemState((5,), 0), SystemState((-5,), 0), self.caps)
        assert d == SIGN_MISMATCH_WEIGHT

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(0)
        caps = (3, 4, 2)
        for _ in range(100):
            s1, s2 = (
                SystemState(
                    tuple(int(v) if v != 0 else 1 for v in rng.integers(-24, 25, size=3)), 1
                )
                for _ in range(2)
            )
            assert state_distance(s1, s2, caps) == state_distance(s2, s1, caps)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(1)
        caps = (3, 4)
        for _ in range(200):
            a, b, c = (
                SystemState(
                    tuple(int(v) if v != 0 else 1 for v in rng.integers(-24, 25, size=2)), 0
                )
                for _ in range(3)
            )
            assert state_distance(a, c, caps) <= (
                state_distance(a, b, caps) + state_distance(b, c, caps) + 1e-12
            )

    def test_hour_mismatch_raises(self):
        with pytest.raises(HourMismatchError):
            state_distance(SystemState((1,), 0), SystemState((1,), 1), self.caps)


class TestNearestNeighbor:
    caps = (3, 3)

    def make_slice(self, entries):
        sl = ValueSlice(1, self.caps)
        for status, value in entries:
            sl.add(SystemState(status, 1), value)
        return sl

    def test_exact_match_returns_itself(self):
        sl = self.make_slice([((5, 5), -10.0), ((2, 2), -20.0)])
        state, value = nearest_neighbor(SystemState((2, 2), 1), sl)
        assert state.status == (2, 2) and value == -20.0

    def test_exact_match_beats_zero_distance_twin(self):
        # +5 and +6 clip to the same point; the true state must win
        sl = self.make_slice([((6, 2), -10.0), ((5, 2), -20.0)])
        _, value = nearest_neighbor(SystemState((5, 2), 1), sl)
        assert value == -20.0

    def test_singleton_slice(self):
        sl = self.make_slice([((1, 1), -5.0)])
        state, value = nearest_neighbor(SystemState((-24, 3), 1), sl)
        assert state.status == (1, 1) and value == -5.0

    def test_straddling_states_pick_the_closer(self):
        sl = self.make_slice([((-3, 1), -1.0), ((2, 1), -2.0)])
        _, value = nearest_neighbor(SystemState((1, 1), 1), sl)
        assert value == -2.0

    def test_empty_slice_raises(self):
        with pytest.raises(EmptySliceError):
            nearest_neighbor(SystemState((1, 1), 1), ValueSlice(1, self.caps))

    def test_hour_mismatch_raises(self):
        sl = self.make_slice([((1, 1), 0.0)])
        with pytest.raises(HourMismatchError):
            nearest_neighbor(SystemState((1, 1), 2), sl)


def reference_scores(env, state, nxt):
    """``_score_actions`` the slow way: reward plus ``nearest_neighbor``'s
    value, one successor at a time."""
    acts = env._feasible_ints(state.status, state.hour)
    rewards = env.rewards(state.status, state.hour, acts)
    return acts, [
        r + nearest_neighbor(env.transition(state, env._bits_of(a)), nxt)[1]
        for a, r in zip(acts, rewards)
    ]


def assert_scores_match_reference(env, state, nxt):
    acts, scores = _score_actions(env, state, nxt)
    ref_acts, ref_scores = reference_scores(env, state, nxt)
    assert acts == ref_acts
    if not acts:
        assert scores is None
        return
    assert [repr(x) for x in scores.tolist()] == [repr(x) for x in ref_scores]


statuses = st.integers(-STATUS_CAP, STATUS_CAP).filter(bool)
values = st.integers(-10**6, 0).map(float)


@st.composite
def scored_slices(draw):
    """A random fleet, parent state and next-hour slice.  The slice holds
    random rows (counters beyond the caps included), duplicate statuses,
    and one feasible child stored after a zero-distance twin whose
    counters differ only beyond the caps."""
    n = draw(st.integers(1, 5))
    inst = gen_instance(n, 3, draw(st.integers(0, 10_000)))
    env = UnitCommitmentMDP(inst)
    hour = draw(st.integers(0, env.horizon - 1))
    state = SystemState(tuple(draw(st.lists(statuses, min_size=n, max_size=n))), hour)
    rows = draw(st.lists(
        st.tuples(st.lists(statuses, min_size=n, max_size=n).map(tuple), values),
        min_size=1, max_size=12,
    ))
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows.append((rows[k][0], draw(values)))  # duplicate status, own value
    acts = env._feasible_ints(state.status, state.hour)
    if acts:
        child = env._advance(state.status, env._bits_of(draw(st.sampled_from(acts))))
        twin = tuple(
            c if abs(c) < cap else (1 if c > 0 else -1) * draw(st.integers(cap, STATUS_CAP))
            for c, cap in zip(child, lock_caps(inst))
        )
        value = draw(values)
        at = draw(st.integers(0, len(rows)))
        rows.insert(draw(st.integers(at, len(rows))), (child, value - 1.0))
        rows.insert(at, (twin, value))
    nxt = ValueSlice(hour + 1, lock_caps(inst))
    for status, value in rows:
        nxt.add(SystemState(status, hour + 1), value)
    return env, state, nxt


class TestScoreActions:
    """The one-product scoring against the per-successor reference."""

    @settings(max_examples=300, deadline=None)
    @given(scored_slices())
    def test_scores_match_nearest_neighbor_reference(self, case):
        assert_scores_match_reference(*case)

    def test_every_scored_state_of_an_n8_sweep_matches_the_reference(self, monkeypatch):
        checked = []

        def score_and_check(env, state, nxt):
            assert_scores_match_reference(env, state, nxt)
            checked.append(state)
            return _score_actions(env, state, nxt)

        monkeypatch.setattr(backsweep, "_score_actions", score_and_check)
        run(load_instance(INSTANCES / "n8_t24.json"), "backsweep", n_samples=20)
        # 20 states at each of 24 hours, then one greedy step per hour
        assert len(checked) == 24 * 20 + 24


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

    @pytest.mark.parametrize("n_units, n_samples", [(1, 48), (1, 60), (2, 48**2)])
    def test_full_space_is_the_anchor_then_all_statuses_in_order(self, n_units, n_samples):
        env = UnitCommitmentMDP(gen_instance(n_units, 4, 0))
        anchor = SystemState((-3,) + (2,) * (n_units - 1), 1)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        out = sample_environment(anchor, n_samples, rng, env)
        rest = [SystemState(s, 1) for s in all_statuses(n_units) if s != anchor.status]
        assert out == [anchor] + rest
        assert rng.bit_generator.state == before

    def test_mean_distance_grows_with_fleet_size(self):
        spreads = []
        for n in (2, 6):
            inst = gen_instance(n, 4, 1)
            env = UnitCommitmentMDP(inst)
            caps = lock_caps(inst)
            anchor = SystemState((2,) * n, 0)
            dists = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                for s in sample_environment(anchor, 30, rng, env)[1:]:
                    dists.append(state_distance(anchor, s, caps))
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
            rng = np.random.default_rng(0)
            vs = evaluate_states(1, SystemState(status, 1), env, rng)
            s0 = vs[0]
            assert s0.states[0].status == status
            forced = env.reward(state, action)
            assert s0.values[0] == forced
            assert find_best_action(state, 1, env) == (action, forced)
            assert exact_dp(env)[(0, status)] == forced

    def test_exhaustive_sampling_reproduces_exact_dp(self):
        inst = gen_instance(2, 4, 3)
        env = UnitCommitmentMDP(inst)
        rng = np.random.default_rng(0)
        vs = evaluate_states(48**2, terminal_anchor(env), env, rng)
        dp = exact_dp(env)
        for t in range(env.horizon + 1):
            sl = vs[t]
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
        vs1 = evaluate_states(40, terminal_anchor(env1), env1, np.random.default_rng(9))
        vs2 = evaluate_states(40, terminal_anchor(env2), env2, np.random.default_rng(9))
        from ucplan import BIG

        compared = 0
        for t in range(env1.horizon + 1):
            s1, s2 = vs1[t], vs2[t]
            assert [s.status for s in s1.states] == [s.status for s in s2.states]
            for v1, v2 in zip(s1.values, s2.values):
                if v1 <= -BIG / 2:  # catastrophe penalty is pinned, not scaled
                    assert v2 <= -BIG / 2
                    continue
                assert v2 == 2.0 * v1
                compared += 1
        assert compared > 50

    def test_new_nearer_richer_neighbor_raises_the_backup(self):
        inst = gen_instance(2, 4, 2)
        env = UnitCommitmentMDP(inst)
        state = SystemState((2, 2), 1)
        child_status = env._advance(state.status, (1, 1))
        far = SystemState((-24, -24), 2)
        sl = ValueSlice(2, lock_caps(inst))
        sl.add(far, -1e6)
        acts, before = _score_actions(env, state, sl)
        sl.add(SystemState(child_status, 2), 0.0)  # exact neighbor, higher value
        _, after = _score_actions(env, state, sl)
        assert after.max() > before.max()

    def test_every_slice_clips_counters_at_the_lock_horizons(self):
        inst = gen_instance(3, 4, 5)
        env = UnitCommitmentMDP(inst)
        vs = evaluate_states(4, terminal_anchor(env), env, np.random.default_rng(0))
        assert [sl.hour for sl in vs] == list(range(env.horizon + 1))
        assert all(tuple(sl.caps.tolist()) == lock_caps(inst) for sl in vs)

    def test_anchor_must_be_terminal(self):
        inst = gen_instance(2, 4, 0)
        env = UnitCommitmentMDP(inst)
        with pytest.raises(ValueError):
            evaluate_states(5, SystemState((1, 1), 2), env, np.random.default_rng(0))


class TestGreedyPolicy:
    def test_exact_values_recover_the_optimum(self):
        for seed in (0, 4):
            inst = gen_instance(2, 4, seed)
            env = UnitCommitmentMDP(inst)
            vs = evaluate_states(
                48**2, terminal_anchor(env), env, np.random.default_rng(0)
            )
            sol = greedy_policy(vs, env)
            assert sol.objective == exhaustive_optimum(env).objective

    def test_single_step_reduces_to_reward_argmax(self):
        gens = [make_gen(id=0, p_min=5.0, p_max=100.0)]
        inst = make_instance(gens, demand=[50.0], reserve=[5.0])
        env = UnitCommitmentMDP(inst)
        vs = evaluate_states(3, SystemState((3,), 1), env, np.random.default_rng(0))
        sol = greedy_policy(vs, env)
        assert sol.actions == ((1,),)

    def test_deterministic_given_fixed_inputs(self):
        inst = gen_instance(3, 5, 7)
        env = UnitCommitmentMDP(inst)
        vs = evaluate_states(30, terminal_anchor(env), env, np.random.default_rng(2))
        a = greedy_policy(vs, env)
        b = greedy_policy(vs, env)
        assert a == b
