import math

import numpy as np
import pytest

from ucplan import (
    CostBreakdown,
    DemandProfile,
    OutOfBoundsError,
    ProblemInstance,
    generation_cost,
    startup_cost,
    validate_instance,
)

from conftest import make_gen, make_instance


class TestGenerationCost:
    def test_constant_cost(self):
        gen = make_gen(a=0.0, b=0.0, c=5.0, p_min=0.0, p_max=10.0)
        assert generation_cost(gen, 7.0) == 5.0

    def test_pure_square(self):
        gen = make_gen(a=1.0, b=0.0, c=0.0, p_min=0.0, p_max=10.0)
        assert generation_cost(gen, 5.0) == 25.0

    def test_quadratic_evaluation(self):
        # direct scalar evaluation: 0.01*50^2 + 10*50 + 100
        gen = make_gen(a=0.01, b=10.0, c=100.0, p_min=10.0, p_max=100.0)
        assert generation_cost(gen, 50.0) == 0.01 * 50.0 * 50.0 + 10.0 * 50.0 + 100.0
        assert generation_cost(gen, 50.0) == pytest.approx(625.0)

    def test_out_of_bounds(self):
        gen = make_gen(p_min=10.0, p_max=100.0)
        with pytest.raises(OutOfBoundsError):
            generation_cost(gen, 5.0)
        with pytest.raises(OutOfBoundsError):
            generation_cost(gen, 101.0)

    def test_convexity_on_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            gen = make_gen(
                a=rng.uniform(0.0, 0.1),
                b=rng.uniform(0.0, 30.0),
                c=rng.uniform(0.0, 500.0),
                p_min=0.0,
                p_max=400.0,
            )
            p1, p2 = sorted(rng.uniform(0.0, 400.0, size=2))
            mid = 0.5 * (p1 + p2)
            avg = 0.5 * (generation_cost(gen, p1) + generation_cost(gen, p2))
            assert generation_cost(gen, mid) <= avg + 1e-9 * max(1.0, avg)


class TestStartupCost:
    def test_flat_exponentials(self):
        gen = make_gen(e=100.0, f=50.0, g=0.0, h=0.0)
        assert startup_cost(gen, 3) == 150.0

    def test_zero_coefficients(self):
        gen = make_gen(e=0.0, f=0.0, g=1.0, h=1.0)
        assert startup_cost(gen, 5) == 0.0

    def test_exponential_decay(self):
        gen = make_gen(e=100.0, f=50.0, g=0.1, h=0.2)
        expected = 100.0 * math.exp(-1.0) + 50.0 * math.exp(-2.0)
        assert startup_cost(gen, 10) == pytest.approx(expected, rel=1e-15)

    def test_rejects_nonpositive_off_time(self):
        gen = make_gen()
        with pytest.raises(ValueError):
            startup_cost(gen, 0)

    def test_deep_history_uses_cap(self):
        gen = make_gen(e=100.0, f=50.0, g=0.1, h=0.2)
        assert startup_cost(gen, 40) == startup_cost(gen, 24)

    def test_non_increasing_in_off_time(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            gen = make_gen(
                e=rng.uniform(0.0, 1000.0),
                f=rng.uniform(0.0, 1000.0),
                g=rng.uniform(0.0, 1.0),
                h=rng.uniform(0.0, 1.0),
            )
            costs = [startup_cost(gen, t) for t in range(1, 25)]
            assert all(x >= y - 1e-12 for x, y in zip(costs, costs[1:]))


class TestCostBreakdown:
    def test_objective_is_sum_of_components(self):
        cb = CostBreakdown(1234.5678, 99.125)
        assert cb.objective == cb.generation_total + cb.startup_total


class TestValidateInstance:
    def test_well_formed(self):
        gens = (make_gen(id=0), make_gen(id=1))
        inst = make_instance(gens, demand=[50.0, 60.0], reserve=[5.0, 6.0])
        assert validate_instance(inst).ok

    def test_inverted_box_named(self):
        gens = (make_gen(id=0), make_gen(id=1, p_min=90.0, p_max=50.0))
        inst = make_instance(gens, demand=[40.0], reserve=[0.0])
        report = validate_instance(inst)
        assert not report.ok
        assert any("generators[1]" in v.field and "p_min" in v.field for v in report.violations)

    def test_capacity_shortfall(self):
        gens = (make_gen(id=0, p_max=100.0, p_min=10.0),)
        inst = make_instance(gens, demand=[150.0], reserve=[10.0])
        report = validate_instance(inst)
        assert any("capacity shortfall" in v.rule for v in report.violations)

    def test_zero_initial_status(self):
        gens = (make_gen(id=0, initial_status=0),)
        inst = make_instance(gens, demand=[50.0])
        report = validate_instance(inst)
        assert any("initial_status" in v.field for v in report.violations)

    @pytest.mark.parametrize(
        "gen, demand, reserve, field, rule",
        [
            ({"p_max": math.inf}, 50.0, 0.0, "generators[0].p_max", "finite"),
            ({"b": math.nan}, 50.0, 0.0, "generators[0].b", "finite"),
            ({}, math.nan, 0.0, "profile.demand[0]", "finite"),
            ({}, 50.0, math.inf, "profile.reserve[0]", "finite"),
            ({"t_up": 2.5}, 50.0, 0.0, "generators[0].t_up", "whole number"),
            ({"initial_status": 3.0}, 50.0, 0.0, "generators[0].initial_status",
             "whole number"),
        ],
    )
    def test_non_finite_and_fractional_numbers(self, gen, demand, reserve, field, rule):
        inst = make_instance((make_gen(id=0, **gen),), demand=[demand], reserve=[reserve])
        report = validate_instance(inst)
        assert (field, rule) in [(v.field, v.rule) for v in report.violations]

    def test_fractional_horizon(self):
        profile = DemandProfile(1.5, (50.0,), (0.0,))
        report = validate_instance(ProblemInstance((make_gen(id=0),), profile))
        assert ("profile.horizon", "whole number") in [
            (v.field, v.rule) for v in report.violations
        ]

    def test_gapped_ids(self):
        gens = (make_gen(id=0), make_gen(id=2))
        inst = make_instance(gens, demand=[50.0])
        report = validate_instance(inst)
        assert any("id" in v.field for v in report.violations)
