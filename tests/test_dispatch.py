import itertools
from math import fsum

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucplan import (
    InfeasibleDispatchError,
    check_set_limits,
    dispatch_costs,
    economic_dispatch,
    generation_cost,
    grid_dispatch,
    load_instance,
)

from conftest import INSTANCES, kkt_violation, make_gen


def random_fleet(rng, n, linear_share=0.0):
    gens = []
    for i in range(n):
        a = 0.0 if rng.random() < linear_share else rng.uniform(0.001, 0.05)
        p_max = rng.uniform(50.0, 400.0)
        gens.append(
            make_gen(
                id=i,
                a=a,
                b=rng.uniform(5.0, 30.0),
                c=rng.uniform(50.0, 500.0),
                p_min=p_max * rng.uniform(0.1, 0.5),
                p_max=p_max,
            )
        )
    return gens


class TestCheckSetLimits:
    gens = (make_gen(id=0, p_min=10.0, p_max=100.0),)

    def test_coverable(self):
        assert check_set_limits((1,), 50.0, 10.0, self.gens)

    def test_minimum_exceeds_demand(self):
        assert not check_set_limits((1,), 5.0, 0.0, self.gens)

    def test_capacity_below_requirement(self):
        assert not check_set_limits((1,), 95.0, 10.0, self.gens)


class TestEconomicDispatch:
    def test_symmetric_pair(self):
        gens = [
            make_gen(id=0, a=1.0, b=0.0, c=0.0, p_min=0.0, p_max=10.0),
            make_gen(id=1, a=1.0, b=0.0, c=0.0, p_min=0.0, p_max=10.0),
        ]
        result = economic_dispatch((1, 1), 10.0, gens)
        assert result.power == pytest.approx((5.0, 5.0), abs=1e-8)
        assert result.cost == pytest.approx(50.0, abs=1e-6)

    def test_single_unit_forced_by_balance(self):
        gens = [make_gen(id=0, p_min=10.0, p_max=100.0)]
        result = economic_dispatch((1,), 42.0, gens)
        assert result.power[0] == pytest.approx(42.0, rel=1e-12)

    def test_three_unit_case_matches_grid_oracle(self):
        gens = [
            make_gen(id=0, a=0.01, b=10.0, p_min=5.0, p_max=60.0),
            make_gen(id=1, a=0.02, b=12.0, p_min=5.0, p_max=60.0),
            make_gen(id=2, a=0.03, b=14.0, p_min=5.0, p_max=60.0),
        ]
        action = (1, 1, 1)
        fast = economic_dispatch(action, 100.0, gens)
        grid = grid_dispatch(action, 100.0, gens, step=0.01)
        for p_fast, p_grid in zip(fast.power, grid.power):
            assert abs(p_fast - p_grid) <= 0.05
        assert abs(fast.cost - grid.cost) <= 0.1

    def test_uncommitted_units_stay_at_zero(self):
        gens = [make_gen(id=0, p_min=10.0, p_max=100.0), make_gen(id=1)]
        result = economic_dispatch((1, 0), 42.0, gens)
        assert result.power[1] == 0.0

    def test_infeasible_demand(self):
        gens = [make_gen(id=0, p_min=10.0, p_max=100.0)]
        with pytest.raises(InfeasibleDispatchError):
            economic_dispatch((1,), 150.0, gens)
        with pytest.raises(InfeasibleDispatchError):
            economic_dispatch((1,), 5.0, gens)
        with pytest.raises(InfeasibleDispatchError):
            economic_dispatch((0,), 5.0, gens)

    def test_demand_between_the_fsum_and_the_sum_of_capacities(self):
        # 0.1 + 0.2 + 0.3 summed left to right exceeds its fsum, so the set
        # limits admit a demand no price can meet; every unit runs at p_max
        gens = [make_gen(id=i, p_min=0.0, p_max=p) for i, p in enumerate((0.1, 0.2, 0.3))]
        demand = 0.1 + 0.2 + 0.3
        assert fsum(g.p_max for g in gens) < demand
        assert check_set_limits((1, 1, 1), demand, 0.0, gens)
        result = economic_dispatch((1, 1, 1), demand, gens)
        assert result.power == (0.1, 0.2, 0.3)

    def test_linear_units_fill_in_merit_order(self):
        gens = [
            make_gen(id=0, a=0.0, b=10.0, p_min=0.0, p_max=10.0),
            make_gen(id=1, a=0.0, b=5.0, p_min=0.0, p_max=10.0),
        ]
        result = economic_dispatch((1, 1), 15.0, gens)
        assert result.power == pytest.approx((5.0, 10.0), abs=1e-9)
        assert not result.degenerate

    def test_degenerate_tie_resolved_by_id(self):
        gens = [
            make_gen(id=0, a=0.0, b=8.0, p_min=0.0, p_max=10.0),
            make_gen(id=1, a=0.0, b=8.0, p_min=0.0, p_max=10.0),
        ]
        result = economic_dispatch((1, 1), 10.0, gens)
        assert result.degenerate
        assert result.power == pytest.approx((10.0, 0.0), abs=1e-9)


class TestDispatchProperties:
    def test_kkt_and_balance_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            gens = random_fleet(rng, int(rng.integers(1, 7)), linear_share=0.2)
            action = tuple(int(b) for b in rng.integers(0, 2, size=len(gens)))
            lo = sum(g.p_min for g, b in zip(gens, action) if b)
            hi = sum(g.p_max for g, b in zip(gens, action) if b)
            if hi <= lo:
                continue
            demand = float(rng.uniform(lo, hi))
            result = economic_dispatch(action, demand, gens)
            assert abs(sum(result.power) - demand) <= 1e-9 * max(demand, 1.0)
            assert kkt_violation(result, gens, action) <= 1e-6
            for g, bit, p in zip(gens, action, result.power):
                if bit:
                    assert g.p_min - 1e-9 <= p <= g.p_max + 1e-9
                else:
                    assert p == 0.0

    def test_grid_oracle_dominance(self):
        # the solver never loses to any feasible point on a 0.1 MW grid
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            gens = []
            for i in range(n):
                p_max = rng.uniform(20.0, 80.0)
                gens.append(
                    make_gen(
                        id=i,
                        a=rng.uniform(0.001, 0.05),
                        b=rng.uniform(5.0, 30.0),
                        c=rng.uniform(50.0, 500.0),
                        p_min=p_max * rng.uniform(0.1, 0.5),
                        p_max=p_max,
                    )
                )
            action = (1,) * n
            lo = sum(g.p_min for g in gens)
            hi = sum(g.p_max for g in gens)
            demand = float(rng.uniform(lo, hi))
            fast = economic_dispatch(action, demand, gens)
            grid = grid_dispatch(action, demand, gens, step=0.1)
            assert fast.cost <= grid.cost + 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            gens = random_fleet(rng, n)  # strictly quadratic, no ties
            lo = sum(g.p_min for g in gens)
            hi = sum(g.p_max for g in gens)
            demand = float(rng.uniform(lo, hi))
            base = economic_dispatch((1,) * n, demand, gens)
            perm = rng.permutation(n)
            shuffled = [gens[k] for k in perm]
            permuted = economic_dispatch((1,) * n, demand, shuffled)
            for pos, k in enumerate(perm):
                assert permuted.power[pos] == base.power[k]

    def test_cost_matches_generation_cost_sum(self):
        gens = [
            make_gen(id=0, a=0.01, b=10.0, c=100.0, p_min=5.0, p_max=60.0),
            make_gen(id=1, a=0.02, b=12.0, c=80.0, p_min=5.0, p_max=60.0),
        ]
        result = economic_dispatch((1, 1), 70.0, gens)
        expected = sum(generation_cost(g, p) for g, p in zip(gens, result.power))
        assert result.cost == pytest.approx(expected, rel=1e-15)


def scalar_costs(rows, demand, gens):
    return [economic_dispatch(row, demand, gens).cost for row in rows]


@st.composite
def fleets(draw):
    """1 to 16 units; some linear (a == 0), marginal prices often tied."""
    gens = []
    for i in range(draw(st.integers(1, 16))):
        p_min = draw(st.floats(0.0, 200.0))
        gens.append(make_gen(
            id=i,
            a=draw(st.sampled_from([0.0, 0.01]) | st.floats(1e-3, 0.05)),
            b=draw(st.sampled_from([8.0, 12.0]) | st.floats(5.0, 30.0)),
            c=draw(st.floats(0.0, 500.0)),
            p_min=p_min,
            p_max=p_min + draw(st.floats(0.0, 300.0)),
        ))
    return gens


class TestBatchedDispatch:
    """``dispatch_costs`` must equal the scalar solver's costs bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(gens=fleets(), data=st.data())
    def test_equals_scalar_on_random_fleets(self, gens, data):
        n = len(gens)
        rows = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=40))
        first = [g for g, bit in zip(gens, rows[0]) if bit]
        lo = sum(g.p_min for g in first)
        hi = sum(g.p_max for g in first)
        demand = data.draw(st.floats(lo, hi))

        def coverable(row):
            units = [g for g, bit in zip(gens, row) if bit]
            cap = sum(g.p_max for g in units)  # the scalar solver's own check
            return units and sum(g.p_min for g in units) <= demand <= cap

        rows = [row for row in rows if coverable(row)]
        assume(rows)
        assert dispatch_costs(rows, demand, gens) == scalar_costs(rows, demand, gens)

    @pytest.mark.parametrize("name", ["n8_t24", "n12_t24"])
    def test_equals_scalar_on_every_feasible_set_of_the_bundled_instances(self, name):
        inst = load_instance(INSTANCES / f"{name}.json")
        gens = inst.generators
        actions = list(itertools.product((0, 1), repeat=inst.n_units))
        for demand, reserve in zip(inst.profile.demand, inst.profile.reserve):
            rows = [row for row in actions if check_set_limits(row, demand, reserve, gens)]
            assert dispatch_costs(rows, demand, gens) == scalar_costs(rows, demand, gens)

    def test_price_step_fallback(self):
        # the fleet of test_degenerate_tie_resolved_by_id: two linear units at
        # one price, so the bisection bracket collapses on the price step
        gens = [
            make_gen(id=0, a=0.0, b=8.0, p_min=0.0, p_max=10.0),
            make_gen(id=1, a=0.0, b=8.0, p_min=0.0, p_max=10.0),
        ]
        rows = [(1, 1), (1, 0), (0, 1)]
        assert economic_dispatch((1, 1), 5.0, gens).degenerate
        for demand in (5.0, 10.0):
            assert dispatch_costs(rows, demand, gens) == scalar_costs(rows, demand, gens)

    def test_empty_and_infeasible_sets_behave_as_the_scalar_solver(self):
        gens = [make_gen(id=0, p_min=10.0, p_max=100.0), make_gen(id=1, p_min=10.0, p_max=100.0)]
        assert dispatch_costs([], 50.0, gens) == []
        assert dispatch_costs([(0, 0)], 0.0, gens) == [0.0]
        with pytest.raises(InfeasibleDispatchError):
            dispatch_costs([(1, 1), (1, 0)], 150.0, gens)
