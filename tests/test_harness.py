import json
from pathlib import Path

import pytest

from ucplan import (
    InstanceParseError,
    InstanceValidationError,
    UnitCommitmentMDP,
    exhaustive_optimum,
    gen_instance,
    load_instance,
    run,
    save_instance,
    validate_instance,
)
from ucplan import harness
from ucplan.cli import main as uc_main
from ucplan.harness import (
    instance_to_dict,
    render_report,
    report_csv_text,
    schedule_csv_text,
)

from conftest import INSTANCES


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
            "startup_usd", "runtime_s", "seed",
        }
        assert uc_main(["report", str(out1), str(out2), "-o", str(tmp_path / "roll.csv")]) == 0
        roll = (tmp_path / "roll.csv").read_text().splitlines()
        assert roll[0].startswith("algorithm,hour,demand_mw")
        assert len(roll) == 1 + 2 * 6
        captured = capsys.readouterr().out
        assert "Objective" in captured

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

    @pytest.mark.parametrize(
        "algo, bad",
        [
            ("tree", ["-H", "0"]),
            ("tree-sub", ["-K", "0"]),
            ("tree-sub", ["--rho", "1.5"]),
            ("backsweep", ["--ns", "0"]),
            ("tree", ["--threads", "0"]),
            ("backsweep", ["--warm-start", "foo"]),
            ("tree-sub", ["--seed", "-1"]),
            ("tree", ["-i", "missing.json"]),
            ("gen", ["-N", "0"]),
            ("gen", ["-T", "0"]),
            ("gen", ["--seed", "-1"]),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else x,
    )
    def test_bad_solve_input_gives_one_error_line(
        self, tmp_path, capsys, monkeypatch, algo, bad
    ):
        """``algo`` "gen" checks ``uc gen -N 1 -T 6`` instead of a solve."""
        monkeypatch.chdir(tmp_path)
        save_instance(gen_instance(3, 6, 1), tmp_path / "tiny.json")
        command = ["gen", "-N", "1", "-T", "6"] if algo == "gen" else [
            "solve", "-i", "tiny.json", "--algo", algo]
        argv = [*command, "-o", "out", *bad]
        assert uc_main(argv) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert bad[0] in err[0] or bad[1] in err[0]
        assert not (tmp_path / "out").exists()

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
