import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucplan import (
    InfeasibleActionError,
    SystemState,
    UnitCommitmentMDP,
    check_set_limits,
    economic_dispatch,
    gen_instance,
    generation_cost,
    kkt_violation,
    load_instance,
    startup_cost,
)
from ucplan.core import STATUS_CAP
from ucplan.mdp import all_statuses

from conftest import INSTANCES, make_gen, make_instance


def env_for(gens, demand, reserve=None):
    return UnitCommitmentMDP(make_instance(gens, demand, reserve))


class TestTransition:
    def setup_method(self):
        self.env = env_for(
            [
                make_gen(id=0, p_min=5.0, p_max=120.0, t_up=2, t_down=2),
                make_gen(id=1, p_min=5.0, p_max=120.0, t_up=2, t_down=2),
            ],
            demand=[60.0] * 4,
        )

    def test_counter_advances_while_on(self):
        s = SystemState((3, 3), 0)
        assert self.env.transition(s, (1, 1)).status == (4, 4)

    def test_turn_on_resets_counter(self):
        s = SystemState((-2, 3), 0)
        assert self.env.transition(s, (1, 1)).status == (1, 4)

    def test_counter_caps_at_24(self):
        s = SystemState((24, 3), 0)
        assert self.env.transition(s, (1, 1)).status == (24, 4)

    def test_turn_off_flips_sign(self):
        s = SystemState((3, 3), 0)
        assert self.env.transition(s, (0, 1)).status == (-1, 4)

    def test_off_counter_caps(self):
        env = env_for(
            [
                make_gen(id=0, p_min=0.0, p_max=120.0, t_down=1),
                make_gen(id=1, p_min=0.0, p_max=120.0),
            ],
            demand=[60.0] * 4,
        )
        s = SystemState((-24, 3), 0)
        assert env.transition(s, (0, 1)).status == (-24, 4)

    def test_hour_advances(self):
        s = SystemState((3, 3), 1)
        assert self.env.transition(s, (1, 1)).hour == 2

    def test_locked_on_rejects_shutdown(self):
        with pytest.raises(InfeasibleActionError):
            self.env.transition(SystemState((1, 3), 0), (0, 1))

    def test_locked_off_rejects_startup(self):
        with pytest.raises(InfeasibleActionError):
            self.env.transition(SystemState((-1, 3), 0), (1, 1))

    def test_set_limit_violation_rejected(self):
        # both units off cannot serve positive demand
        with pytest.raises(InfeasibleActionError):
            self.env.transition(SystemState((3, 3), 0), (0, 0))

    def test_terminal_hour_rejected(self):
        with pytest.raises(InfeasibleActionError):
            self.env.transition(SystemState((3, 3), 4), (1, 1))


class TestFeasibleActions:
    def test_up_time_lock_forces_on(self):
        env = env_for(
            [make_gen(id=0, p_min=5.0, p_max=100.0, t_up=2)], demand=[50.0], reserve=[5.0]
        )
        assert env.feasible_actions(SystemState((1,), 0)) == [(1,)]

    def test_down_time_lock_with_covering_partner(self):
        env = env_for(
            [
                make_gen(id=0, p_min=5.0, p_max=100.0, t_down=2),
                make_gen(id=1, p_min=5.0, p_max=100.0, t_up=1, t_down=1),
            ],
            demand=[50.0],
            reserve=[5.0],
        )
        # unit 0 is one hour into a two-hour minimum down window
        assert env.feasible_actions(SystemState((-1, 3), 0)) == [(0, 1)]

    def test_both_units_needed(self):
        env = env_for(
            [
                make_gen(id=0, p_min=5.0, p_max=60.0),
                make_gen(id=1, p_min=5.0, p_max=60.0),
            ],
            demand=[100.0],
            reserve=[10.0],
        )
        assert env.feasible_actions(SystemState((3, 3), 0)) == [(1, 1)]

    def test_terminal_state_has_no_actions(self):
        env = env_for([make_gen(id=0)], demand=[50.0])
        assert env.feasible_actions(SystemState((3,), 1)) == []

    def test_matches_brute_force_filter(self):
        # soundness + completeness against a direct enumeration of 2^N
        rng = np.random.default_rng(3)
        inst = gen_instance(6, 8, seed=5)
        env = UnitCommitmentMDP(inst)
        for _ in range(50):
            status = tuple(
                int(v) if v != 0 else 1
                for v in rng.integers(-24, 25, size=inst.n_units)
            )
            hour = int(rng.integers(0, inst.horizon))
            state = SystemState(status, hour)
            expected = []
            for bits in itertools.product((0, 1), repeat=inst.n_units):
                ok = True
                for i, g in enumerate(inst.generators):
                    if 0 < status[i] < g.t_up and not bits[i]:
                        ok = False
                    if -g.t_down < status[i] < 0 and bits[i]:
                        ok = False
                if ok and check_set_limits(
                    bits,
                    inst.profile.demand[hour],
                    inst.profile.reserve[hour],
                    inst.generators,
                ):
                    expected.append(bits)
            assert env.feasible_actions(state) == expected

    def test_memo_matches_a_fresh_table_filter(self):
        inst = gen_instance(2, 6, seed=3)
        env = UnitCommitmentMDP(inst)
        gens = inst.generators
        for status in all_statuses(2):
            lock_on = sum(m for m, g, st in zip(env._mask, gens, status) if 0 < st < g.t_up)
            lock_off = sum(m for m, g, st in zip(env._mask, gens, status) if -g.t_down < st < 0)
            for hour in range(inst.horizon):
                fresh = tuple(
                    a for a in env._acts_by_hour[hour].tolist()
                    if a & lock_on == lock_on and not a & lock_off
                )
                first = env._feasible_ints(status, hour)
                again = env._feasible_ints(status, hour)
                assert type(first) is tuple and type(again) is tuple
                assert first == again == fresh

    @pytest.mark.parametrize("name", ["n8_t24", "n12_t24"])
    def test_generic_path_matches_the_table(self, name):
        env = UnitCommitmentMDP(load_instance(INSTANCES / f"{name}.json"))
        n = env.n_units
        demand, reserve = env.instance.profile.demand, env.instance.profile.reserve
        rng = np.random.default_rng(0)
        for hour in range(env.horizon):
            for lock in [[0] * n, *rng.integers(0, 3, size=(5, n)).tolist()]:
                lock_on = sum(m for m, k in zip(env._mask, lock) if k == 1)
                lock_off = sum(m for m, k in zip(env._mask, lock) if k == 2)
                table = env._acts_by_hour[hour]
                expected = table[((table & lock_on) == lock_on) & ((table & lock_off) == 0)]
                generic = env._feasible_ints_generic(hour, lock_on, lock_off)
                assert generic == expected.tolist()
                if n <= 8:  # and against the set-limit check, one action at a time
                    assert generic == [
                        a for a in range(1 << n)
                        if a & lock_on == lock_on and not a & lock_off
                        and check_set_limits(
                            env._bits_of(a), demand[hour], reserve[hour], env._gens
                        )
                    ]


def left_to_right(values, aint, n):
    """Sum of ``values`` over the units ``aint`` commits, as ``check_set_limits``
    adds them."""
    total = 0.0
    for i, v in enumerate(values):
        if aint >> (n - 1 - i) & 1:
            total += v
    return total


class TestSetLimitSums:
    """The action table and the generic path sum committed limits as
    ``check_set_limits`` does, also where the order of addition decides."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 300), min_size=2, max_size=7),
        st.data(),
    )
    def test_feasible_actions_equal_the_brute_force_filter(self, cents, data):
        # two-decimal minimum outputs, and demand at one action's sum of them
        p_min = [c / 100 for c in cents]
        n = len(p_min)
        gens = [
            make_gen(id=i, p_min=p, p_max=10 * p, t_up=1, t_down=1, initial_status=1)
            for i, p in enumerate(p_min)
        ]
        demand = left_to_right(p_min, data.draw(st.integers(1, (1 << n) - 1)), n)
        cover = left_to_right([10 * p for p in p_min], data.draw(st.integers(1, (1 << n) - 1)), n)
        reserve = max(cover - demand, 0.0)
        env = env_for(gens, [demand], [reserve])
        expected = [
            bits for bits in itertools.product((0, 1), repeat=n)
            if check_set_limits(bits, demand, reserve, env._gens)
        ]
        assert env.feasible_actions(SystemState((1,) * n, 0)) == expected
        assert env._feasible_ints_generic(0, 0, 0) == [env._int_of(b) for b in expected]


class TestReward:
    def test_no_startup_term_when_all_on(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        s = SystemState((3, 3), 0)
        d = economic_dispatch((1, 1), two_unit_instance.profile.demand[0], two_unit_instance.generators)
        assert env.reward(s, (1, 1)) == -d.cost

    def test_startup_charged_for_restart(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        gens = two_unit_instance.generators
        s = SystemState((-3, 3), 0)
        d = economic_dispatch((1, 1), two_unit_instance.profile.demand[0], gens)
        expected = -(d.cost + startup_cost(gens[0], 3))
        assert env.reward(s, (1, 1)) == expected

    def test_symmetric_pair_composes_dispatch_and_startup(self):
        gens = [
            make_gen(id=0, a=1.0, b=0.0, c=0.0, e=100.0, f=50.0, g=0.0, h=0.0,
                     p_min=0.0, p_max=10.0, t_down=1),
            make_gen(id=1, a=1.0, b=0.0, c=0.0, p_min=0.0, p_max=10.0),
        ]
        env = env_for(gens, demand=[10.0])
        on = env.reward(SystemState((2, 2), 0), (1, 1))
        assert on == pytest.approx(-50.0, abs=1e-6)
        restarted = env.reward(SystemState((-1, 2), 0), (1, 1))
        assert restarted == pytest.approx(-50.0 - 150.0, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10**6), st.data())
    def test_reward_bound_is_above_every_reward(self, n, seed, data):
        # every action that passes the set limits, from any status: a
        # superset of what any search scores at that hour
        env = UnitCommitmentMDP(gen_instance(n, 6, seed))
        hour = data.draw(st.integers(0, env.horizon - 1))
        signed = st.integers(-24, 24).filter(bool)
        status = tuple(data.draw(st.lists(signed, min_size=n, max_size=n)))
        aints = env._feasible_for_locks(hour, 0, 0)
        bound = env.reward_bound(hour)
        assert all(r <= bound for r in env.rewards(status, hour, aints))
        assert (bound == -math.inf) == (not aints)


def child_lock_masks_by_loop(env, status):
    """``_child_lock_masks`` written out unit by unit: each child counter
    advanced by hand and tested against its unit's lock."""
    on_lock = off_lock = 0
    for i, (st, g) in enumerate(zip(status, env.instance.generators)):
        if (min(st + 1, STATUS_CAP) if st > 0 else 1) < g.t_up:
            on_lock |= env._mask[i]
        if -g.t_down < (max(st - 1, -STATUS_CAP) if st < 0 else -1):
            off_lock |= env._mask[i]
    return on_lock, off_lock


class TestChildLockMasks:
    @pytest.mark.parametrize("locks", [((1, 1), (1, 1)), ((2, 3), (4, 1)), ((24, 24), (3, 23))])
    def test_masks_derived_from_advance_equal_the_unit_loop(self, locks):
        gens = [make_gen(id=i, t_up=up, t_down=down, initial_status=up)
                for i, (up, down) in enumerate(locks)]
        env = env_for(gens, demand=[60.0] * 2)
        for status in all_statuses(2):
            assert env._child_lock_masks(status) == child_lock_masks_by_loop(env, status)


class TestCatastrophe:
    def test_terminal_state_is_not_catastrophe(self):
        env = env_for([make_gen(id=0)], demand=[50.0])
        assert not env.is_catastrophe(SystemState((3,), 1))

    def test_locked_out_unit_with_demand(self):
        env = env_for(
            [make_gen(id=0, p_min=5.0, p_max=100.0, t_down=3)], demand=[50.0] * 2
        )
        assert env.is_catastrophe(SystemState((-1,), 0))

    def test_generous_fleet_is_safe(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        assert not env.is_catastrophe(SystemState((3, 3), 0))


class TestScheduleCost:
    def test_empty_plan_at_terminal_hour(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        cost = env.schedule_cost([], SystemState((3, 3), env.horizon))
        assert cost.objective == 0.0

    def test_single_step_plan_matches_reward(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        s = SystemState((3, 3), env.horizon - 1)
        cost = env.schedule_cost([(1, 1)], s)
        assert cost.objective == pytest.approx(-env.reward(s, (1, 1)), rel=1e-15)

    def test_multi_step_plan_composes_stepwise(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        plan = [(1, 1), (1, 0), (1, 0), (1, 1)]  # respects unit 1's min down time
        state = env.initial_state()
        rewards = []
        for action in plan:
            rewards.append(env.reward(state, action))
            state = env.transition(state, action)
        cost = env.schedule_cost(plan)
        assert -math.fsum(rewards) == pytest.approx(cost.objective, rel=1e-12)

    def test_infeasible_step_reports_index(self, two_unit_instance):
        env = UnitCommitmentMDP(two_unit_instance)
        plan = [(1, 1), (0, 0), (1, 1), (1, 1)]
        with pytest.raises(InfeasibleActionError, match="step 1"):
            env.schedule_cost(plan)

    def test_objective_equals_independent_cost_recompute(self):
        # Eq-style recompute from the dispatch sequence alone, exact
        from ucplan import SearchConfig, tree_search_policy

        for seed in range(5):
            inst = gen_instance(3, 6, seed)
            env = UnitCommitmentMDP(inst)
            plan = tree_search_policy(env.initial_state(), SearchConfig(env.horizon), env).actions
            sol = env.replay(plan)
            gen_atoms, start_atoms = [], []
            state = env.initial_state()
            for action in plan:
                d = economic_dispatch(action, inst.profile.demand[state.hour], inst.generators)
                for i, bit in enumerate(action):
                    if bit:
                        g = inst.generators[i]
                        gen_atoms.append(g.a * d.power[i] ** 2 + g.b * d.power[i] + g.c)
                        if state.status[i] < 0:
                            start_atoms.append(startup_cost(g, -state.status[i]))
                state = env.transition(state, action)
            assert sol.cost.objective == math.fsum(gen_atoms) + math.fsum(start_atoms)
            assert sol.cost.objective == sol.cost.generation_total + sol.cost.startup_total


@st.composite
def feasible_plans(draw):
    """A ``gen_instance`` fleet of 1 to 4 units over 1 to 6 hours and a plan
    walked through its feasible sets, one random action an hour."""
    env = UnitCommitmentMDP(gen_instance(
        draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(0, 10_000))
    ))
    state = env.initial_state()
    plan = []
    while state.hour < env.horizon:
        feasible = env.feasible_actions(state)
        assume(feasible)  # a dead end: the walk cannot finish
        plan.append(draw(st.sampled_from(feasible)))
        state = env.transition(state, plan[-1])
    return env, plan


class TestReplayProperties:
    @settings(max_examples=150, deadline=None)
    @given(feasible_plans())
    def test_cost_terms_sum_to_the_objective_along_advancing_states(self, case):
        env, plan = case
        gens = env.instance.generators
        sol = env.replay(plan)
        assert sol.states[0] == env.initial_state()
        gen_terms, start_terms = [], []
        for k, (action, result) in enumerate(zip(plan, sol.dispatches)):
            status = sol.states[k].status
            assert sol.states[k + 1] == SystemState(env._advance(status, action), k + 1)
            for g, bit, st_, p in zip(gens, action, status, result.power):
                if bit:
                    gen_terms.append(generation_cost(g, p))
                    if st_ < 0:
                        start_terms.append(startup_cost(g, -st_))
        assert len(sol.states) == env.horizon + 1
        assert sol.cost.generation_total == math.fsum(gen_terms)
        assert sol.cost.startup_total == math.fsum(start_terms)
        assert sol.objective == math.fsum(gen_terms) + math.fsum(start_terms)

    @settings(max_examples=150, deadline=None)
    @given(feasible_plans())
    def test_dispatches_balance_and_meet_the_audit_kkt_bound(self, case):
        env, plan = case
        for hour, (action, result) in enumerate(zip(plan, env.replay(plan).dispatches)):
            demand = env.instance.profile.demand[hour]
            assert abs(math.fsum(result.power) - demand) <= 1e-9 * demand
            # ``harness.audit_objective``'s bound
            bound = max(1e-6, 2e-9 * abs(result.lam))
            assert kkt_violation(result, env.instance.generators, action) <= bound


class TestStateInvariants:
    def test_random_walks_preserve_invariants(self):
        rng = np.random.default_rng(9)
        inst = gen_instance(4, 8, seed=2)
        env = UnitCommitmentMDP(inst)
        for _ in range(30):
            state = env.initial_state()
            while state.hour < env.horizon:
                feas = env.feasible_actions(state)
                if not feas:
                    break
                state = env.transition(state, feas[int(rng.integers(len(feas)))])
                assert all(s != 0 for s in state.status)
                assert all(abs(s) <= 24 for s in state.status)
                assert 0 <= state.hour <= env.horizon
