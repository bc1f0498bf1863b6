import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ucplan
from ucplan import (
    InstanceParseError,
    InstanceValidationError,
    UnitCommitmentMDP,
    exhaustive_optimum,
    gen_instance,
    kkt_violation,
    load_instance,
    run,
    save_instance,
    validate_instance,
)
from ucplan import harness, mdp
from ucplan.cli import main as uc_main
from ucplan.harness import (
    instance_to_dict,
    render_report,
    report_csv_text,
    schedule_csv_text,
    write_run,
)

from conftest import INSTANCES, make_gen, make_instance


class TestGenInstance:
    def test_reproducible(self):
        assert gen_instance(5, 12, 3) == gen_instance(5, 12, 3)

    def test_different_seeds_differ(self):
        assert gen_instance(5, 12, 3) != gen_instance(5, 12, 4)

    def test_generated_instances_validate(self):
        for n, t, seed in [(1, 4, 0), (3, 8, 1), (6, 24, 2), (12, 24, 42)]:
            assert validate_instance(gen_instance(n, t, seed)).ok

    def test_reserve_is_ten_percent_of_demand(self):
        inst = gen_instance(4, 24, 9)
        for d, r in zip(inst.profile.demand, inst.profile.reserve):
            assert r == pytest.approx(0.1 * d, rel=1e-12)

    def test_peak_requirement_is_80_percent_of_capacity(self):
        inst = gen_instance(6, 24, 5)
        cap = sum(g.p_max for g in inst.generators)
        peak = max(d + r for d, r in zip(inst.profile.demand, inst.profile.reserve))
        assert peak == pytest.approx(0.8 * cap, rel=1e-6)

    def test_small_instances_admit_feasible_plans(self):
        for seed in range(20):
            env = UnitCommitmentMDP(gen_instance(3, 6, seed))
            exhaustive_optimum(env)  # raises NoFeasiblePlanError on failure


class TestInstanceFiles:
    def test_round_trip_is_byte_identical(self, tmp_path):
        inst = gen_instance(4, 8, 7)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_instance(inst, first)
        save_instance(load_instance(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bundled_instance_loads(self):
        inst = load_instance(INSTANCES / "n12_t24.json")
        assert inst.n_units == 12 and inst.horizon == 24

    def test_zero_status_rejected_with_field_name(self, tmp_path):
        inst = gen_instance(2, 4, 0)
        data = instance_to_dict(inst)
        data["generators"][1]["initial_status_h"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceValidationError) as err:
            load_instance(path)
        assert "initial_status" in str(err.value)

    def test_malformed_json_reports_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"horizon": 3,')
        with pytest.raises(InstanceParseError):
            load_instance(path)

    @pytest.mark.parametrize(
        "edit, field, rule",
        [
            (lambda d: d["generators"][0].update(p_max_mw=float("inf")),
             "generators[0].p_max", "finite"),
            (lambda d: d["generators"][0].update(b=float("nan")), "generators[0].b", "finite"),
            (lambda d: d.update(horizon=4.7), "profile.horizon", "whole number"),
            (lambda d: d["generators"][2].update(t_down_h=1.5),
             "generators[2].t_down", "whole number"),
        ],
        ids=["p_max Infinity", "b NaN", "horizon 4.7", "t_down 1.5"],
    )
    def test_non_finite_or_fractional_number_is_a_violation(self, tmp_path, edit, field, rule):
        data = instance_to_dict(gen_instance(3, 4, 1))
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))  # Infinity and NaN, as json writes them
        with pytest.raises(InstanceValidationError) as err:
            load_instance(path)
        assert (field, rule) in [(v.field, v.rule) for v in err.value.report.violations]

    def test_whole_floats_load_as_integers(self, tmp_path):
        inst = gen_instance(3, 4, 1)
        data = instance_to_dict(inst)
        data["horizon"] = 4.0
        data["generators"][0]["t_up_h"] = float(data["generators"][0]["t_up_h"])
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(data))
        loaded = load_instance(path)
        assert loaded == inst and type(loaded.horizon) is int
        assert type(loaded.generators[0].t_up) is int

    def test_missing_generator_field_reports_parse_error(self, tmp_path):
        inst = gen_instance(2, 4, 0)
        data = instance_to_dict(inst)
        del data["generators"][0]["p_min_mw"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceParseError):
            load_instance(path)


class TestRun:
    def test_objective_survives_the_self_audit(self):
        inst = gen_instance(3, 6, 1)
        report = run(inst, "tree", lookahead=6)
        assert report.objective == report.solution.cost.objective
        assert report.generation + report.startup == report.objective

    def test_config_records_each_setting_in_summary_order(self):
        inst = gen_instance(3, 6, 1)
        api = run(inst, "api", api_iterations=1, api_episodes=5).config
        assert list(api.items()) == [
            ("algo", "api"), ("seed", 0),
            ("n_pi", 1), ("alpha", 0.01), ("epsilon", 0.1), ("episodes", 5),
        ]
        assert list(run(inst, "tree", lookahead=2).config.items()) == [
            ("algo", "tree"), ("seed", 0), ("H", 2),
        ]

    def test_audit_catches_a_wrong_memoised_dispatch_cost(self, monkeypatch):
        inst = gen_instance(3, 6, 1)
        first = run(inst, "tree").solution.actions[0]

        class InflatedMemo(UnitCommitmentMDP):
            """Serves the committed first action's hour-0 cost 1e-6 too high."""

            def __init__(self, instance):
                super().__init__(instance)
                aint = self._int_of(first)
                self._dispatch_cost_memo[0][aint] = self.dispatch_cost_int(aint, 0) * (1 + 1e-6)

        monkeypatch.setattr(harness, "UnitCommitmentMDP", InflatedMemo)
        with pytest.raises(RuntimeError, match="audit failed"):
            run(inst, "tree")

    def test_audit_passes_a_degenerate_dispatch(self):
        # equal-priced linear twins: 150 MW is split by id order at the tie
        gens = [make_gen(id=i, a=0.0, b=10.0, p_min=0.0, p_max=100.0, t_up=1, t_down=1,
                         initial_status=5) for i in range(2)]
        report = run(make_instance(gens, demand=[150.0, 150.0]), "tree")
        assert all(d.degenerate for d in report.solution.dispatches)
        assert report.objective == 3400.0

    def test_audit_passes_a_price_step_dispatch_at_a_high_price(self):
        # the linear unit is marginal within 1e-9 of a 4e5 $/MWh price
        gens = [
            make_gen(id=0, a=0.0, b=4e5, p_min=0.0, p_max=50.0, t_up=1, t_down=1,
                     initial_status=5),
            make_gen(id=1, a=1e-4, b=4e5 - 1e-4, p_min=0.0, p_max=20.0, t_up=1, t_down=1,
                     initial_status=5),
        ]
        report = run(make_instance(gens, demand=[52.5]), "tree")
        (result,) = report.solution.dispatches
        assert report.solution.actions == ((1, 1),)
        assert 1e-9 * result.lam < kkt_violation(result, gens, (1, 1)) < 2e-9 * result.lam

    def test_audit_passes_a_dear_fixed_output_unit(self):
        # unit 1 is held on at p_min == p_max; its marginal cost is above the price
        gens = [
            make_gen(id=0, a=0.01, b=10.0, p_min=0.0, p_max=200.0, t_up=1, t_down=1,
                     initial_status=5),
            make_gen(id=1, a=0.01, b=50.0, p_min=50.0, p_max=50.0, t_up=3, t_down=1,
                     initial_status=1),
        ]
        report = run(make_instance(gens, demand=[100.0]), "tree")
        (result,) = report.solution.dispatches
        assert report.solution.actions == ((1, 1),)
        assert result.power == (50.0, 50.0) and result.lam == 11.0

    def test_audit_catches_a_dispatch_off_its_optimum(self):
        inst = gen_instance(3, 6, 1)
        env = UnitCommitmentMDP(inst)
        solution = run(inst, "tree").solution
        first = solution.dispatches[0]
        assert solution.actions[0] == (0, 1, 1)  # units 1 and 2 both interior
        power = (0.0, first.power[1] + 1.0, first.power[2] - 1.0)  # balance kept
        moved = (replace(first, power=power), *solution.dispatches[1:])
        harness.audit_objective(env, solution)
        with pytest.raises(RuntimeError, match="audit failed: hour 0 dispatch"):
            harness.audit_objective(env, replace(solution, dispatches=moved))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run(gen_instance(2, 4, 0), "annealing")

    def test_report_rows_sorted_by_objective(self):
        inst = gen_instance(3, 6, 1)
        a = run(inst, "tree", lookahead=6)
        b = run(inst, "tree", lookahead=1)
        text = render_report(
            [
                {"algorithm": "tree-deep", "config": {"H": 6}, "objective_usd": a.objective,
                 "runtime_s": a.runtime_s},
                {"algorithm": "tree-shallow", "config": {"H": 1}, "objective_usd": b.objective,
                 "runtime_s": b.runtime_s},
            ]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[2].startswith("tree-deep")  # cheaper plan listed first

    def test_backsweep_accepts_warm_start_spec(self):
        inst = gen_instance(3, 6, 1)
        report = run(inst, "backsweep", n_samples=20, seed=1, warm_start="tree:H=6")
        assert report.config["warm_start"] == "tree:H=6"

    def test_schedule_csv_has_expected_columns(self):
        inst = gen_instance(2, 4, 5)
        report = run(inst, "tree", lookahead=4)
        text = schedule_csv_text(report.solution, inst)
        header = text.splitlines()[0]
        assert header == "hour,unit_id,committed,power_mw,gen_cost_usd,startup_cost_usd"
        assert len(text.splitlines()) == 1 + inst.n_units * inst.horizon

    def test_write_run_refuses_a_tampered_schedule_row(self, tmp_path, monkeypatch):
        inst = gen_instance(3, 6, 1)
        report = run(inst, "tree")
        harness.write_run(report, tmp_path / "clean", inst)
        assert (tmp_path / "clean" / "schedule.csv").exists()

        lines = schedule_csv_text(report.solution, inst).splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[4] = repr(float(fields[4]) + 0.01)  # gen_cost_usd of hour 0, unit 0
        lines[1] = ",".join(fields)
        monkeypatch.setattr(harness, "schedule_csv_text", lambda *_: "".join(lines))
        with pytest.raises(RuntimeError, match="audit failed: schedule.csv"):
            harness.write_run(report, tmp_path / "tampered", inst)
        assert not (tmp_path / "tampered").exists()


class TestDispatchCounters:
    """The MDP's dispatch counters, as ``run`` reports them, on ``n8_t24``."""

    # want: the counters, and the sha256 of ``schedule.csv`` recorded before
    # the counters came in
    @pytest.mark.parametrize("algorithm,options,want,digest", [
        # the back sweep prices the day in one batch before its warm start;
        # the scalar calls are the warm start's and the plan's replays
        ("backsweep", {}, (1, 2494, 48),
         "31bbec78965df04b4ad1acb17c6f6d2b97e592b2ec710dcc6cda41a4ded55d11"),
        ("tree", {"lookahead": 3}, (1, 2494, 24),
         "2ef8a7fd674d96eee086b41c7f959ec40ebdb3605d585086c60f141ab6569248"),
        # hour by hour: 89 memo misses below the batch size plus the replay
        ("tree", {"lookahead": 1}, (17, 1371, 113),
         "39bf2ea746c4319e0118af1e5a7d469e849ac1da57a3241b262436177121885e"),
    ], ids=["backsweep", "tree-h3", "tree-h1"])
    def test_counts_equal_the_wrapped_calls_and_repeat(
        self, monkeypatch, tmp_path, algorithm, options, want, digest
    ):
        calls = [0, 0, 0]
        batched, scalar = mdp.dispatch_costs, mdp.economic_dispatch

        def counted_batch(bits, *args):
            calls[0] += 1
            calls[1] += len(bits)
            return batched(bits, *args)

        def counted_scalar(*args):
            calls[2] += 1
            return scalar(*args)

        monkeypatch.setattr(mdp, "dispatch_costs", counted_batch)
        monkeypatch.setattr(mdp, "economic_dispatch", counted_scalar)
        inst = load_instance(INSTANCES / "n8_t24.json")
        stats = []
        for k in range(2):
            calls[:] = [0, 0, 0]
            report = run(inst, algorithm, **options)
            assert tuple(calls) == want
            stats.append(report.stats)
            write_run(report, tmp_path / str(k), inst)
        assert stats[0] == stats[1] == dict(
            zip(["dispatch_batches", "batched_rows", "scalar_dispatches"], want)
        )
        summary = json.loads((tmp_path / "0" / "summary.json").read_text())
        assert summary["stats"] == stats[0]
        for k in range(2):
            text = (tmp_path / str(k) / "schedule.csv").read_bytes()
            assert hashlib.sha256(text).hexdigest() == digest


class TestCli:
    def test_gen_solve_report_round_trip(self, tmp_path, capsys):
        inst_path = tmp_path / "tiny.json"
        assert uc_main(["gen", "-N", "3", "-T", "6", "--seed", "1", "-o", str(inst_path)]) == 0
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert uc_main([
            "solve", "-i", str(inst_path), "--algo", "tree", "-H", "6", "-o", str(out1)
        ]) == 0
        assert uc_main([
            "solve", "-i", str(inst_path), "--algo", "tree", "-H", "1", "-o", str(out2)
        ]) == 0
        assert (out1 / "schedule.csv").exists()
        summary = json.loads((out1 / "summary.json").read_text())
        assert set(summary) == {
            "algorithm", "config", "objective_usd", "generation_usd",
            "startup_usd", "runtime_s", "seed", "stats",
        }
        assert uc_main(["report", str(out1), str(out2), "-o", str(tmp_path / "roll.csv")]) == 0
        roll = (tmp_path / "roll.csv").read_text().splitlines()
        assert roll[0].startswith("algorithm,hour,demand_mw")
        assert len(roll) == 1 + 2 * 6
        captured = capsys.readouterr().out
        assert "Objective" in captured

    def test_report_with_a_malformed_schedule_prints_only_the_error(self, tmp_path, capsys):
        inst_path = tmp_path / "tiny.json"
        assert uc_main(["gen", "-N", "3", "-T", "6", "--seed", "1", "-o", str(inst_path)]) == 0
        good, bad = tmp_path / "good", tmp_path / "bad"
        for out in (good, bad):
            assert uc_main([
                "solve", "-i", str(inst_path), "--algo", "tree", "-H", "1", "-o", str(out)
            ]) == 0
        (bad / "schedule.csv").write_text("hour,unit_id,committed\n0,0,1\n")
        capsys.readouterr()
        roll = tmp_path / "roll.csv"
        assert uc_main(["report", str(good), str(bad), "-o", str(roll)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "malformed schedule" in err[0]
        assert not roll.exists()

    def test_verify_passes_on_small_instance(self, tmp_path, capsys):
        inst_path = tmp_path / "tiny.json"
        uc_main(["gen", "-N", "2", "-T", "4", "--seed", "3", "-o", str(inst_path)])
        assert uc_main(["verify", "-i", str(inst_path)]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_verify_refuses_large_instances(self, capsys):
        assert uc_main(["verify", "-i", str(INSTANCES / "n12_t24.json")]) == 2

    def test_solver_failure_exits_nonzero(self, tmp_path, capsys):
        # H=1 walks into the hour-2 trap on this crafted instance: switching
        # unit 1 off at hour 0 locks it off through the hour-2 peak
        data = {
            "horizon": 3,
            "demand_mw": [40.0, 40.0, 150.0],
            "reserve_mw": [0.0, 0.0, 0.0],
            "generators": [
                {"id": 0, "a": 0.0, "b": 1.0, "c": 0.0, "e": 0.0, "f": 0.0,
                 "g": 0.1, "h": 0.1, "p_min_mw": 0.0, "p_max_mw": 100.0,
                 "t_up_h": 1, "t_down_h": 3, "initial_status_h": 5},
                {"id": 1, "a": 0.0, "b": 50.0, "c": 10.0, "e": 100000.0, "f": 0.0,
                 "g": 0.0, "h": 0.0, "p_min_mw": 0.0, "p_max_mw": 100.0,
                 "t_up_h": 1, "t_down_h": 3, "initial_status_h": 5},
            ],
        }
        path = tmp_path / "trap.json"
        path.write_text(json.dumps(data))
        assert uc_main([
            "solve", "-i", str(path), "--algo", "tree", "-H", "1", "-o", str(tmp_path / "out")
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "hour 2" in err[0]

    @staticmethod
    def solve_boundary_instance(tmp_path, p_min, demand, reserve):
        """``uc solve --algo tree -H 1`` on one hour of free units whose
        committed minimum outputs, summed left to right, land next to demand;
        unit i has p_max = 10 p_min and b = 10 + i."""
        gens = [
            {"id": i, "a": 0.01, "b": 10.0 + i, "c": 1.0, "e": 1.0, "f": 1.0,
             "g": 0.1, "h": 0.1, "p_min_mw": p, "p_max_mw": 10 * p,
             "t_up_h": 1, "t_down_h": 1, "initial_status_h": 1}
            for i, p in enumerate(p_min)
        ]
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(
            {"horizon": 1, "demand_mw": [demand], "reserve_mw": [reserve], "generators": gens}
        ))
        out = tmp_path / "out"
        code = uc_main(["solve", "-i", str(path), "--algo", "tree", "-H", "1", "-o", str(out)])
        return code, out

    def test_all_on_solves_at_a_left_to_right_minimum_sum(self, tmp_path):
        # a dot product of these minimum outputs rounds above demand
        code, out = self.solve_boundary_instance(
            tmp_path, [1.93, 1.66, 1.5, 2.62, 1.42, 2.73, 2.7], 14.559999999999999, 123.94
        )
        assert code == 0
        rows = (out / "schedule.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["1"] * 7
        assert round(json.loads((out / "summary.json").read_text())["objective_usd"], 2) == 200.97

    def test_all_on_refused_above_a_left_to_right_minimum_sum(self, tmp_path, capsys):
        # a dot product of these minimum outputs rounds down to demand
        code, out = self.solve_boundary_instance(
            tmp_path, [1.8, 2.3, 2.6, 2.5, 1.3, 0.22], 10.719999999999999, 95.38
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: no feasible action at hour 0"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "algo, bad",
        [
            ("tree", ["-H", "0"]),
            ("tree-sub", ["-K", "0"]),
            ("tree-sub", ["--rho", "1.5"]),
            ("backsweep", ["--ns", "0"]),
            ("tree", ["--threads", "0"]),
            ("tree", ["--threads", "2"]),
            ("backsweep", ["--warm-start", "foo"]),
            ("tree-sub", ["--seed", "-1"]),
            ("tree", ["-i", "missing.json"]),
            ("gen", ["-N", "0"]),
            ("gen", ["-T", "0"]),
            ("gen", ["--seed", "-1"]),
            ("tree", ["-i", "latin1.json"]),
            ("tree", ["-i", "negative_e.json"]),
            ("verify", ["-i", "latin1.json"]),
            ("report", ["truncated"]),
            ("report", ["partial"]),
            ("report", ["unscheduled"]),
            ("report", ["unconfigured"]),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else x,
    )
    def test_bad_solve_input_gives_one_error_line(
        self, tmp_path, capsys, monkeypatch, algo, bad
    ):
        """``algo`` "gen" checks ``uc gen -N 1 -T 6`` instead of a solve,
        "verify" ``uc verify`` and "report" ``uc report -o out``;
        negative_e.json gives unit 0 a negative start-up price; the run
        directory "truncated" holds a summary.json of ``{``, "partial" one
        without ``objective_usd``, "unscheduled" a valid summary next to
        a schedule.csv without ``power_mw``, and "unconfigured" one whose
        ``config`` is a string next to a valid schedule.csv."""
        monkeypatch.chdir(tmp_path)
        save_instance(gen_instance(3, 6, 1), tmp_path / "tiny.json")
        (tmp_path / "latin1.json").write_bytes('{"horizon": 6, "name": "Sälen"}'.encode("latin-1"))
        data = instance_to_dict(gen_instance(3, 6, 1))
        data["generators"][0]["e"] = -1.0
        (tmp_path / "negative_e.json").write_text(json.dumps(data))
        partial = {"algorithm": "tree", "runtime_s": 1.0}
        for name, text in (
            ("truncated", "{"),
            ("partial", json.dumps(partial)),
            ("unscheduled", json.dumps({**partial, "objective_usd": 1.0})),
            ("unconfigured", json.dumps({**partial, "objective_usd": 1.0, "config": "H"})),
        ):
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text(text)
        (tmp_path / "unscheduled" / "schedule.csv").write_text("hour,unit_id,committed\n0,0,1\n")
        (tmp_path / "unconfigured" / "schedule.csv").write_text(
            "hour,unit_id,committed,power_mw,gen_cost_usd,startup_cost_usd\n0,0,1,1.0,1.0,0.0\n"
        )
        command = {
            "gen": ["gen", "-N", "1", "-T", "6", "-o", "out"],
            "verify": ["verify", "-i", "tiny.json"],
            "report": ["report", "-o", "out"],
        }.get(algo, ["solve", "-i", "tiny.json", "--algo", algo, "-o", "out"])
        assert uc_main([*command, *bad]) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert any(word in err[0] for word in bad)
        assert not (tmp_path / "out").exists()

    def test_a_vanishing_rho_solves(self, tmp_path, capsys):
        """rho**d would underflow to 0.0 at rho 1e-300; the sampler's keys
        are logarithms, so every weight keeps its order."""
        out = tmp_path / "out"
        assert uc_main([
            "solve", "-i", str(INSTANCES / "n8_t24.json"), "--algo", "tree-sub",
            "-H", "1", "-K", "16", "--rho", "1e-300", "-o", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "schedule.csv").exists()

    def test_a_fleet_too_large_for_the_action_table_gives_one_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        inst_path = tmp_path / "n40.json"
        assert uc_main(["gen", "-N", "40", "-T", "4", "--seed", "1", "-o", str(inst_path)]) == 0

        def out_of_memory(*args):
            raise MemoryError  # as numpy does for the 2**40-entry table

        monkeypatch.setattr(ucplan.mdp, "_set_limit_sums", out_of_memory)
        capsys.readouterr()
        out = tmp_path / "out"
        assert uc_main([
            "solve", "-i", str(inst_path), "--algo", "tree", "-H", "1", "-o", str(out),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: N = 40 units: the table of 2**40 = 1099511627776 actions "
            "does not fit in memory"
        ]
        assert not out.exists()

    def test_a_fleet_numpy_cannot_index_gives_one_error_line(self, tmp_path, capsys):
        # 63 units: the 2**63-entry table once came out empty, and the solve
        # reported a false "no feasible action at hour 0"
        inst_path = tmp_path / "n63.json"
        assert uc_main(["gen", "-N", "63", "-T", "2", "--seed", "1", "-o", str(inst_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert uc_main([
            "solve", "-i", str(inst_path), "--algo", "tree", "-H", "1", "-o", str(out),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: N = 63 units: the table of 2**63 = 9223372036854775808 actions "
            "does not fit in memory"
        ]
        assert not out.exists()

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        inst_path = tmp_path / "tiny.json"
        uc_main(["gen", "-N", "3", "-T", "6", "--seed", "1", "-o", str(inst_path)])
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            uc_main([
                "solve", "-i", str(inst_path), "--algo", "tree-sub", "-H", "2",
                "-K", "4", "--rho", "0.5", "--seed", "9", "-o", str(out),
            ])
            outputs.append((out / "schedule.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_cli_import_loads_no_thread_pool(self):
        """Every solve runs in one thread, so importing the CLI must not pull
        in ``concurrent.futures`` (and the ``logging`` it imports)."""
        src = Path(ucplan.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, ucplan.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.split() == ["False"]
