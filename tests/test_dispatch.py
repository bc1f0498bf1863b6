import itertools
import re
from math import fsum

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ucplan import (
    InfeasibleDispatchError,
    OutOfBoundsError,
    UnitCommitmentMDP,
    check_set_limits,
    dispatch_costs,
    economic_dispatch,
    generation_cost,
    grid_dispatch,
    kkt_violation,
    load_instance,
)
from ucplan import dispatch
from ucplan.dispatch import row_fsum

from conftest import INSTANCES, make_gen


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

    def test_tiny_demand_is_served(self):
        # far below 1 nW, where an absolute floor on the bisection's
        # tolerance once accepted the all-zero dispatch
        gens = [
            make_gen(id=0, a=0.0, b=8.0, p_min=0.0, p_max=0.0),
            make_gen(id=1, a=0.0, b=8.0, p_min=0.0, p_max=1.0),
        ]
        result = economic_dispatch((0, 1), 9.219e-136, gens)
        assert result.power == (0.0, 9.219e-136)
        assert dispatch_costs([(0, 1)], 9.219e-136, gens) == [result.cost]

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


@st.composite
def dispatch_cases(draw):
    """A ``fleets()`` fleet, a non-empty committed set and a demand the set
    limits admit."""
    gens = draw(fleets())
    action = tuple(draw(st.lists(st.integers(0, 1), min_size=len(gens), max_size=len(gens))))
    assume(any(action))
    committed = [g for g, bit in zip(gens, action) if bit]
    demand = draw(st.floats(sum(g.p_min for g in committed), sum(g.p_max for g in committed)))
    return gens, action, demand


@st.composite
def rows_with_demands(draw):
    """A ``fleets()`` fleet and up to 30 committed sets, each with its own
    demand: anywhere its set limits admit, or on one of their edges, where
    the residual lies within ``_SUM_MARGIN`` of a feasibility check."""
    gens = draw(fleets())
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * len(gens)), min_size=1, max_size=30))
    demands = []
    for row in rows:
        units = [g for g, bit in zip(gens, row) if bit]
        lo = float(sum(g.p_min for g in units))
        hi = float(sum(g.p_max for g in units))
        demands.append(draw(st.sampled_from([lo, hi]) | st.floats(lo, hi)))
    return gens, rows, demands


# two linear units at one price: the bisection bracket collapses on the
# price step, so these rows take the scalar solver's fallback
PRICE_STEP_PAIR = [
    make_gen(id=0, a=0.0, b=8.0, p_min=0.0, p_max=10.0),
    make_gen(id=1, a=0.0, b=8.0, p_min=0.0, p_max=10.0),
]

# one unit a=0.01, b=8, p 0..1: a price step of one ulp moves it by about
# 9e-14 MW, more than 1e-9 of these demands
SMALL_QUADRATIC = [make_gen(id=0, a=0.01, b=8.0, p_min=0.0, p_max=1.0)]


class TestBalanceOverFleets:
    @settings(max_examples=300, deadline=None)
    @given(case=dispatch_cases())
    @example(case=(SMALL_QUADRATIC, (1,), 1e-9))
    @example(case=(SMALL_QUADRATIC, (1,), 1e-14))
    @example(case=(SMALL_QUADRATIC, (1,), 1e-6))
    @example(case=(
        [
            make_gen(id=0, a=0.0, b=8.0, p_min=0.0, p_max=0.0),
            make_gen(id=1, a=0.0, b=8.0, p_min=0.0, p_max=0.0),
            make_gen(id=2, a=0.01, b=8.0, p_min=0.0, p_max=1.0),
        ],
        (0, 0, 1),
        2.437e-67,
    ))
    def test_balance_and_kkt(self, case):
        gens, action, demand = case
        result = economic_dispatch(action, demand, gens)
        assert abs(fsum(result.power) - demand) <= 1e-9 * demand
        # the harness audit's bound
        assert kkt_violation(result, gens, action) <= max(1e-6, 2e-9 * abs(result.lam))


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

    @settings(max_examples=200, deadline=None)
    @given(case=rows_with_demands())
    @example(case=(PRICE_STEP_PAIR, [(1, 1), (1, 0), (0, 1), (1, 1)], [5.0, 10.0, 3.0, 20.0]))
    def test_a_demand_per_row_equals_the_scalar_solver(self, case):
        gens, rows, demands = case
        got = list(map(repr, dispatch_costs(rows, demands, gens)))
        assert got == [repr(economic_dispatch(r, d, gens).cost) for r, d in zip(rows, demands)]
        # and one call per distinct demand
        split = [None] * len(rows)
        for demand in set(demands):
            ks = [k for k, d in enumerate(demands) if d == demand]
            for k, cost in zip(ks, dispatch_costs([rows[k] for k in ks], demand, gens)):
                split[k] = repr(cost)
        assert split == got

    def test_price_step_fallback(self):
        # the fleet of test_degenerate_tie_resolved_by_id
        gens = PRICE_STEP_PAIR
        rows = [(1, 1), (1, 0), (0, 1)]
        assert economic_dispatch((1, 1), 5.0, gens).degenerate
        for demand in (5.0, 10.0):
            assert dispatch_costs(rows, demand, gens) == scalar_costs(rows, demand, gens)

    def test_empty_and_infeasible_sets_behave_as_the_scalar_solver(self):
        gens = [make_gen(id=0, p_min=10.0, p_max=100.0), make_gen(id=1, p_min=10.0, p_max=100.0)]
        assert dispatch_costs([], 50.0, gens) == []
        assert dispatch_costs([], [], gens) == []
        assert dispatch_costs([(0, 0)], 0.0, gens) == [0.0]
        with pytest.raises(InfeasibleDispatchError) as scalar:
            economic_dispatch((1, 0), 150.0, gens)
        with pytest.raises(InfeasibleDispatchError, match=re.escape(str(scalar.value))):
            dispatch_costs([(1, 1), (1, 0)], 150.0, gens)
        # each row against its own demand: only the second is out of range
        assert dispatch_costs([(1, 1), (1, 0)], [150.0, 50.0], gens) == scalar_costs(
            [(1, 1)], 150.0, gens
        ) + scalar_costs([(1, 0)], 50.0, gens)
        with pytest.raises(InfeasibleDispatchError, match=re.escape(str(scalar.value))):
            dispatch_costs([(1, 1), (1, 0)], [50.0, 150.0], gens)


def bit_equal(x, y):
    return float(x).hex() == float(y).hex()


# a coarse binary grid: exponents far apart give sums that land on exact ties
grid_values = st.builds(lambda m, e: m * 2.0**e, st.integers(-64, 64), st.integers(-80, 80))
column_values = (
    grid_values
    | st.floats(-1e30, 1e30)
    | st.floats(-1.0, 1.0)
    | st.sampled_from([0.0, -0.0])
)


@st.composite
def columns(draw):
    """A few columns of one length; some cancel their own entries."""
    length = draw(st.integers(1, 16))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        col = draw(st.lists(column_values, min_size=length, max_size=length))
        for k in draw(st.lists(st.integers(0, length - 1), max_size=length)):
            col[k] = -col[length - 1 - k]
        out.append(col)
    return out


TIE_ROW = [235.45309706198904, 81.51675127147462, 270.59890759161095, 152.483129559832, 349.81499943233143]


class TestRowFsum:
    """``row_fsum`` must equal ``math.fsum`` on every column it certifies."""

    @settings(max_examples=300, deadline=None)
    @given(cols=columns())
    # the running error lands exactly on half an ulp: round half to even
    @example(cols=[TIE_ROW])
    # the error term loses 2**-53, which with 2**-200 decides the rounding
    @example(cols=[[2.0**100, 1.0, 2.0**-53, -(2.0**100), 2.0**-200]])
    def test_certified_columns_equal_fsum(self, cols):
        total, ok = row_fsum(np.array(cols).T)
        for col, value, certified in zip(cols, total.tolist(), ok.tolist()):
            if certified:
                assert bit_equal(value, fsum(col))

    def test_ties_and_typical_rows_are_certified(self):
        # a tie must be settled, not sent to the scalar solver
        total, ok = row_fsum(np.array([TIE_ROW]).T)
        assert ok.all() and bit_equal(total[0], fsum(TIE_ROW))
        rows = np.random.default_rng(3).uniform(0.0, 500.0, size=(12, 2000))
        total, ok = row_fsum(rows)
        assert ok.all()
        assert all(bit_equal(t, fsum(col)) for t, col in zip(total.tolist(), rows.T.tolist()))

    def test_zero_and_non_finite_sums_are_not_certified(self):
        cols = np.array([[1.0, -1.0], [0.0, -0.0], [1e308, 1e308], [np.inf, 1.0]]).T
        assert not row_fsum(cols)[1].any()


class TestBatchedFinish:
    """Converged rows finish in numpy; only uncertain rows reach the scalar solver."""

    @staticmethod
    def scalar_calls(monkeypatch):
        calls = []
        scalar = dispatch.economic_dispatch

        def counted(*args):
            calls.append(args[0])
            return scalar(*args)

        monkeypatch.setattr(dispatch, "economic_dispatch", counted)
        return calls

    # the rows the bisection itself hands over: price steps and margin cases
    @pytest.mark.parametrize("name, handed_over", [("n8_t24", 6), ("n12_t24", 81)])
    def test_every_converged_row_of_the_bundled_instances_finishes_in_numpy(
        self, name, handed_over, monkeypatch
    ):
        inst = load_instance(INSTANCES / f"{name}.json")
        gens = inst.generators
        actions = list(itertools.product((0, 1), repeat=inst.n_units))
        calls = self.scalar_calls(monkeypatch)
        for demand, reserve in zip(inst.profile.demand, inst.profile.reserve):
            rows = [row for row in actions if check_set_limits(row, demand, reserve, gens)]
            dispatch_costs(rows, demand, gens)
        assert len(calls) == handed_over

    @pytest.mark.parametrize("name, handed_over", [("n8_t24", 6), ("n12_t24", 81)])
    def test_a_whole_day_in_one_call_equals_one_call_per_hour(
        self, name, handed_over, monkeypatch
    ):
        inst = load_instance(INSTANCES / f"{name}.json")
        gens = inst.generators
        actions = list(itertools.product((0, 1), repeat=inst.n_units))
        rows, demands, hourly = [], [], []
        for demand, reserve in zip(inst.profile.demand, inst.profile.reserve):
            hour = [row for row in actions if check_set_limits(row, demand, reserve, gens)]
            hourly += dispatch_costs(hour, demand, gens)
            rows += hour
            demands += [demand] * len(hour)
        calls = self.scalar_calls(monkeypatch)
        assert list(map(repr, dispatch_costs(rows, demands, gens))) == list(map(repr, hourly))
        assert len(calls) == handed_over

    def test_linear_unit_in_a_row_that_shifts_the_interior_units(self, monkeypatch):
        # unit 0 is linear and at p_max; the three quadratic units are
        # interior and take the equal-incremental-cost shift
        gens = [
            make_gen(id=0, a=0.0, b=11.0, c=100.0, p_min=0.0, p_max=50.0),
            make_gen(id=1, a=0.03, b=12.0, c=10.0, p_min=10.0, p_max=110.0),
            make_gen(id=2, a=0.03, b=12.0, c=70.0, p_min=5.0, p_max=45.0),
            make_gen(id=3, a=0.03, b=10.0, c=80.0, p_min=5.0, p_max=75.0),
        ]
        expected = scalar_costs([(1, 1, 1, 1)], 130.0, gens)
        calls = self.scalar_calls(monkeypatch)
        assert dispatch_costs([(1, 1, 1, 1)], 130.0, gens) == expected
        assert calls == []

    def test_remainder_goes_to_the_first_of_the_units_with_most_headroom(self, monkeypatch):
        # twin units 0 and 1 share a, b and box, so they tie on headroom;
        # their no-load costs c differ, so the pick shows in the cost
        gens = [
            make_gen(id=0, a=0.01, b=10.0, c=117.0, p_min=20.0, p_max=200.0),
            make_gen(id=1, a=0.01, b=10.0, c=295.0, p_min=20.0, p_max=200.0),
            make_gen(id=2, a=0.02, b=9.0, c=55.0, p_min=30.0, p_max=60.0),
        ]
        expected = scalar_costs([(1, 1, 1)], 118.7, gens)
        calls = self.scalar_calls(monkeypatch)
        assert dispatch_costs([(1, 1, 1)], 118.7, gens) == expected
        assert calls == []

    def test_out_of_bounds_row_raises_as_the_scalar_solver(self):
        # p_max below p_min: the price response clips to p_max, outside the box
        gens = [make_gen(id=0, p_min=10.0, p_max=100.0), make_gen(id=1, p_min=50.0, p_max=40.0)]
        with pytest.raises(OutOfBoundsError):
            economic_dispatch((1, 1), 80.0, gens)
        with pytest.raises(OutOfBoundsError):
            dispatch_costs([(1, 1)], 80.0, gens)


def wrong_roots(scale, guard_off=False):
    """``_root_estimate`` with every root scaled by ``scale``: on the bundled
    fleets, whose prices lie around 10-40 $/MWh, 0.75 and 1.25 move it by
    about a quarter of a row's bracket.  ``guard_off`` reports an infinite
    slope, so the replay runs right up to the root, past midpoints where
    the bisection itself would have settled."""
    estimate = dispatch._root_estimate

    def wrong(*args):
        root, slope = estimate(*args)
        return root * scale, np.where(guard_off, np.inf, slope)

    return wrong


WRONG_ROOTS = {"low": (0.75, False), "high": (1.25, False), "unguarded": (1.0, True)}


class TestSkipAhead:
    """``_skip_ahead`` may only save midpoints: a wrong root estimate must
    fall back to the full bracket, and a right one must skip nearly all."""

    @pytest.mark.parametrize("wrong", WRONG_ROOTS)
    def test_a_wrong_root_estimate_changes_no_cost_on_the_bundled_instance(
        self, wrong, monkeypatch
    ):
        inst = load_instance(INSTANCES / "n8_t24.json")
        gens = inst.generators
        actions = list(itertools.product((0, 1), repeat=inst.n_units))
        monkeypatch.setattr(dispatch, "_root_estimate", wrong_roots(*WRONG_ROOTS[wrong]))
        skipped = []
        skip_ahead = dispatch._skip_ahead

        def seen(*args):
            out = skip_ahead(*args)
            skipped.append(int(out[2].sum()))
            return out

        monkeypatch.setattr(dispatch, "_skip_ahead", seen)
        for demand, reserve in zip(inst.profile.demand, inst.profile.reserve):
            rows = [row for row in actions if check_set_limits(row, demand, reserve, gens)]
            assert dispatch_costs(rows, demand, gens) == scalar_costs(rows, demand, gens)
        # the certificate turned every replay down
        assert skipped == [0] * inst.horizon

    @settings(max_examples=200, deadline=None)
    @given(case=rows_with_demands(), wrong=st.sampled_from(list(WRONG_ROOTS.values())))
    def test_a_wrong_root_estimate_changes_no_cost_on_random_fleets(self, case, wrong):
        gens, rows, demands = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dispatch, "_root_estimate", wrong_roots(*wrong))
            got = list(map(repr, dispatch_costs(rows, demands, gens)))
        assert got == [repr(economic_dispatch(r, d, gens).cost) for r, d in zip(rows, demands)]

    def test_every_row_of_the_day_batch_skips_ahead(self, monkeypatch):
        """``price_day`` prices all 2 494 rows of ``n8_t24`` in one batch.
        Every row passes the certificate and skips 18 to 30 midpoints, and
        the bisection then runs ten where it ran about 32 from the full
        bracket."""
        skipped, calls = [], []
        skip_ahead, surplus = dispatch._skip_ahead, dispatch._surplus

        def seen(*args):
            out = skip_ahead(*args)
            skipped.append(out[2])
            return out

        def counted(lam, *args):
            calls.append(len(lam))
            return surplus(lam, *args)

        monkeypatch.setattr(dispatch, "_skip_ahead", seen)
        monkeypatch.setattr(dispatch, "_surplus", counted)
        UnitCommitmentMDP(load_instance(INSTANCES / "n8_t24.json")).price_day()
        [skip] = skipped
        assert len(skip) == 2494 and (skip.min(), skip.max()) == (18, 30)
        # one bracket check, the two certificate surpluses, then the loop
        assert calls == [2494] * 3 + [2494, 654, 454, 237, 126, 59, 30, 15, 6, 1]
