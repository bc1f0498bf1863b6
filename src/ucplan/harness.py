"""Instance files, seeded instance generation, solver runs, reporting.

Instance JSON schema::

    {"horizon": T, "demand_mw": [...], "reserve_mw": [...],
     "generators": [{"id", "a", "b", "c", "e", "f", "g", "h",
                     "p_min_mw", "p_max_mw", "t_up_h", "t_down_h",
                     "initial_status_h"}, ...]}

A solve writes ``schedule.csv`` (hour, unit_id, committed, power_mw,
gen_cost_usd, startup_cost_usd) and ``summary.json`` into the output
directory.  Before anything is written, every plan is audited: its
dispatches must meet the optimality conditions, its hourly rewards must
sum to minus the objective replay re-derives from fresh dispatches, and
the cost columns of the schedule must sum to that objective.
"""

import csv
import io
import json
import time
from dataclasses import dataclass
from math import fsum
from pathlib import Path

import numpy as np

from .api_baseline import approximate_policy_iteration
from .backsweep import evaluate_states, greedy_policy
from .core import (
    DemandProfile,
    GeneratorSpec,
    ProblemInstance,
    generation_cost,
    startup_cost,
    validate_instance,
)
from .dispatch import kkt_violation
from .errors import InstanceParseError, InstanceValidationError, UnitCommitmentError
from .mdp import ScheduleSolution, UnitCommitmentMDP
from .treesearch import subsampled_tree_search, tree_search_policy

ALGORITHMS = ("tree", "tree-sub", "backsweep", "api")

# settings of the API baseline that no caller varies; its summary still
# records them
API_ALPHA = 0.01
API_EPSILON = 0.1


# -- instance files -------------------------------------------------------

def _count(value):
    """A whole-number field as int; a fractional or non-finite float is kept
    as read, for ``validate_instance`` to report."""
    if isinstance(value, float) and not value.is_integer():
        return value
    return int(value)


# one generator entry: (JSON key, GeneratorSpec field, reader), in file order
_GEN_FIELDS = (
    ("id", "id", _count),
    ("a", "a", float),
    ("b", "b", float),
    ("c", "c", float),
    ("e", "e", float),
    ("f", "f", float),
    ("g", "g", float),
    ("h", "h", float),
    ("p_min_mw", "p_min", float),
    ("p_max_mw", "p_max", float),
    ("t_up_h", "t_up", _count),
    ("t_down_h", "t_down", _count),
    ("initial_status_h", "initial_status", _count),
)


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "horizon": instance.horizon,
        "demand_mw": list(instance.profile.demand),
        "reserve_mw": list(instance.profile.reserve),
        "generators": [
            {key: getattr(g, field) for key, field, _ in _GEN_FIELDS}
            for g in instance.generators
        ],
    }


def instance_from_dict(data: dict) -> ProblemInstance:
    try:
        horizon = _count(data["horizon"])
        demand = tuple(float(x) for x in data["demand_mw"])
        reserve = tuple(float(x) for x in data["reserve_mw"])
        gens = []
        for row in data["generators"]:
            missing = [key for key, _, _ in _GEN_FIELDS if key not in row]
            if missing:
                raise InstanceParseError(f"generator entry missing fields {missing}")
            gens.append(
                GeneratorSpec(**{field: read(row[key]) for key, field, read in _GEN_FIELDS})
            )
    except InstanceParseError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise InstanceParseError(f"malformed instance data: {err}") from None
    return ProblemInstance(tuple(gens), DemandProfile(horizon, demand, reserve))


def save_instance(instance: ProblemInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def load_instance(path) -> ProblemInstance:
    """Parse and validate an instance file.

    Raises InstanceParseError on structural problems and
    InstanceValidationError (carrying the report) on invariant breaks.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise InstanceParseError(f"{path}: not UTF-8 text at byte {err.start}") from None
    except json.JSONDecodeError as err:
        raise InstanceParseError(f"{path}: invalid JSON at line {err.lineno}") from None
    instance = instance_from_dict(data)
    report = validate_instance(instance)
    if not report.ok:
        raise InstanceValidationError(report, path)
    return instance


# -- seeded instance generation -------------------------------------------

def _demand_shape(horizon: int) -> np.ndarray:
    """Double-peaked daily curve (morning and evening peaks), unit peak."""
    x = (np.arange(horizon) + 0.5) / horizon
    curve = (
        0.42
        + 0.33 * np.exp(-(((x - 0.375) / 0.11) ** 2))
        + 0.38 * np.exp(-(((x - 0.79) / 0.10) ** 2))
    )
    return curve / curve.max()


def _min_coverable_demand(gens, reserve_ratio: float) -> float:
    """Lowest demand for which some commitment passes both set limits,
    scanning downward from full commitment along overlapping intervals."""
    order = sorted(gens, key=lambda g: (g.p_min, g.id))
    lo_ok = None
    hi = sum(g.p_max for g in order) / (1.0 + reserve_ratio)
    for k in range(len(order), 0, -1):
        lo = sum(g.p_min for g in order[:k])
        cap = sum(g.p_max for g in order[:k]) / (1.0 + reserve_ratio)
        if cap < (lo_ok if lo_ok is not None else hi):
            break  # interval no longer reaches the covered band
        lo_ok = lo
    return lo_ok if lo_ok is not None else hi


def gen_instance(n_units: int, horizon: int, seed: int) -> ProblemInstance:
    """Reproducible random instance at the requested scale.

    Demand follows a double-peaked daily curve scaled so that peak demand
    plus reserve equals 80% of fleet capacity; reserve is 10% of demand.
    The curve's floor is lifted to the lowest hourly-coverable demand so
    every hour admits at least one feasible commitment.  All units start
    on, just past their minimum up time.
    """
    if n_units < 1 or horizon < 1:
        raise ValueError("n_units and horizon must be >= 1")
    rng = np.random.default_rng(seed)
    gens = []
    for i in range(n_units):
        a = rng.uniform(0.001, 0.05)
        b = rng.uniform(5.0, 30.0)
        c = rng.uniform(50.0, 500.0)
        g = rng.uniform(0.05, 0.5)
        h = rng.uniform(0.05, 0.5)
        p_max = rng.uniform(50.0, 400.0)
        p_min = p_max * rng.uniform(0.2, 0.5)
        t_up = int(rng.integers(1, 5))
        t_down = int(rng.integers(1, 5))
        mid = 0.5 * (p_min + p_max)
        typical = a * mid * mid + b * mid + c
        total_startup = typical * rng.uniform(1.0, 4.0)
        split = rng.uniform(0.3, 0.7)
        gens.append(
            GeneratorSpec(
                id=i, a=a, b=b, c=c,
                e=total_startup * split, f=total_startup * (1.0 - split),
                g=g, h=h, p_min=p_min, p_max=p_max,
                t_up=t_up, t_down=t_down, initial_status=t_up,
            )
        )

    reserve_ratio = 0.10
    peak = 0.8 * sum(gen.p_max for gen in gens) / (1.0 + reserve_ratio)
    demand = _demand_shape(horizon) * peak
    floor = _min_coverable_demand(gens, reserve_ratio) * 1.0001
    demand = np.maximum(demand, floor)
    reserve = reserve_ratio * demand
    profile = DemandProfile(horizon, tuple(demand.tolist()), tuple(reserve.tolist()))
    return ProblemInstance(tuple(gens), profile)


# -- solver runs ------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    algorithm: str
    config: dict
    objective: float
    generation: float
    startup: float
    runtime_s: float
    seed: int
    solution: ScheduleSolution
    stats: dict  # the MDP's dispatch counters over the solve and its audit


def parse_warm_start(spec_text: str) -> int:
    """Lookahead of a back-sweep warm start written ``tree:H=<int>``."""
    head, _, hours = spec_text.partition("tree:H=")
    if head or not hours.isdigit() or int(hours) < 1:
        raise ValueError(f"warm start must look like tree:H=<int >= 1>, got {spec_text!r}")
    return int(hours)


def audit_objective(env: UnitCommitmentMDP, solution: ScheduleSolution) -> None:
    """Check the emitted dispatches and the solvers' scoring path.

    Each dispatch's ``kkt_violation`` must be at most max(1e-6, 2e-9 |lam|)
    $/MWh: a price-step fallback takes a linear unit within 1e-9 |lam| of
    the price as marginal.  Minus the summed ``env.rewards`` of the plan
    must equal replay's objective, within 1e-9 relative.  Raises
    RuntimeError otherwise.
    """
    for state, action, result in zip(solution.states, solution.actions, solution.dispatches):
        violation = kkt_violation(result, env.instance.generators, action)
        if violation > max(1e-6, 2e-9 * abs(result.lam)):
            raise RuntimeError(
                f"audit failed: hour {state.hour} dispatch violates KKT by {violation} $/MWh"
            )
    scored = -fsum(
        env.rewards(state.status, state.hour, [env._int_of(action)])[0]
        for state, action in zip(solution.states, solution.actions)
    )
    replayed = solution.cost.objective
    if abs(scored - replayed) > 1e-9 * abs(replayed):
        raise RuntimeError(
            f"audit failed: solver rewards give objective {scored}, replay gives {replayed}"
        )


def run(
    instance: ProblemInstance,
    algorithm: str,
    *,
    lookahead: int = 1,
    sample_count: int = 64,
    rho: float = 0.5,
    n_samples: int = 50,
    seed: int = 0,
    warm_start: str = "tree:H=1",
    api_iterations: int = 10,
    api_episodes: int = 500,
) -> RunReport:
    """Execute one solver and audit the reported objective."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    env = UnitCommitmentMDP(instance)
    config: dict = {"algo": algorithm, "seed": seed}
    started = time.perf_counter()

    if algorithm == "tree":
        config["H"] = lookahead
        solution = tree_search_policy(lookahead, env)
    elif algorithm == "tree-sub":
        config.update({"H": lookahead, "K": sample_count, "rho": rho})
        solution = subsampled_tree_search(lookahead, sample_count, rho, seed, env)
    elif algorithm == "backsweep":
        warm_h = parse_warm_start(warm_start)
        config.update({"ns": n_samples, "warm_start": f"tree:H={warm_h}"})
        # the sweep scores (nearly) every set-limit-feasible action of the
        # day: price them all in a few batches, before the warm start
        env.price_day()
        warm = tree_search_policy(warm_h, env)
        rng = np.random.default_rng(seed)
        slices = evaluate_states(n_samples, warm.terminal_state, env, rng)
        solution = greedy_policy(slices, env)
    else:
        config.update(
            {
                "n_pi": api_iterations,
                "alpha": API_ALPHA,
                "epsilon": API_EPSILON,
                "episodes": api_episodes,
            }
        )
        rng = np.random.default_rng(seed)
        _, solution = approximate_policy_iteration(
            api_iterations, API_ALPHA, API_EPSILON, api_episodes, rng, env
        )
    runtime = time.perf_counter() - started

    audit_objective(env, solution)
    return RunReport(
        algorithm=algorithm,
        config=config,
        objective=solution.cost.objective,
        generation=solution.cost.generation_total,
        startup=solution.cost.startup_total,
        runtime_s=runtime,
        seed=seed,
        solution=solution,
        stats={
            "dispatch_batches": env.dispatch_batches,
            "batched_rows": env.batched_rows,
            "scalar_dispatches": env.scalar_dispatches,
        },
    )


# -- outputs ----------------------------------------------------------------

def schedule_rows(solution: ScheduleSolution, instance: ProblemInstance):
    """Per-hour, per-unit rows: commitment, output, and cost split."""
    for hour, (action, state, result) in enumerate(
        zip(solution.actions, solution.states, solution.dispatches)
    ):
        for i, g in enumerate(instance.generators):
            committed = int(action[i])
            power = result.power[i] if committed else 0.0
            gen_cost = generation_cost(g, power) if committed else 0.0
            start = (
                startup_cost(g, -state.status[i])
                if committed and state.status[i] < 0
                else 0.0
            )
            yield (hour, g.id, committed, power, gen_cost, start)


def schedule_csv_text(solution: ScheduleSolution, instance: ProblemInstance) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["hour", "unit_id", "committed", "power_mw", "gen_cost_usd", "startup_cost_usd"]
    )
    for row in schedule_rows(solution, instance):
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def write_run(report: RunReport, out_dir, instance: ProblemInstance) -> None:
    """Write ``schedule.csv`` and ``summary.json`` into ``out_dir``.

    Refuses with RuntimeError, writing nothing, when the fsum of the CSV's
    ``gen_cost_usd`` and ``startup_cost_usd`` columns, read back from the
    text about to be written, differs from ``report.objective`` by more than
    1e-9 relative.
    """
    text = schedule_csv_text(report.solution, instance)
    csv_total = fsum(
        float(row[column])
        for row in csv.DictReader(io.StringIO(text))
        for column in ("gen_cost_usd", "startup_cost_usd")
    )
    if abs(csv_total - report.objective) > 1e-9 * abs(report.objective):
        raise RuntimeError(
            f"audit failed: schedule.csv costs sum to {csv_total!r}, "
            f"the objective is {report.objective!r}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "schedule.csv").write_text(text)
    summary = {
        "algorithm": report.algorithm,
        "config": report.config,
        "objective_usd": report.objective,
        "generation_usd": report.generation,
        "startup_usd": report.startup,
        "runtime_s": report.runtime_s,
        "seed": report.seed,
        "stats": report.stats,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def read_summary(run_dir) -> dict:
    """A run's ``summary.json``; UnitCommitmentError naming the file unless
    it is a JSON object with the fields the report reads and any
    ``config`` is a JSON object too."""
    path = Path(run_dir) / "summary.json"
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise UnitCommitmentError(f"{path}: not a JSON run summary ({err})") from None
    fields = {"algorithm": str, "objective_usd": (int, float), "runtime_s": (int, float)}
    bad = [k for k, kind in fields.items()
           if not isinstance(summary, dict) or not isinstance(summary.get(k), kind)]
    if isinstance(summary, dict) and not isinstance(summary.get("config", {}), dict):
        bad.append("config")
    if bad:
        raise UnitCommitmentError(f"{path}: summary has no valid {', '.join(bad)}")
    return summary


def render_report(summaries: list[dict]) -> str:
    """Comparison table in ascending objective order."""
    rows = sorted(summaries, key=lambda s: s["objective_usd"])
    lines = [f"{'Algorithm':<28} {'Objective [$]':>16} {'Run-time [s]':>14}"]
    lines.append("-" * len(lines[0]))
    for s in rows:
        name = s["algorithm"]
        cfg = s.get("config", {})
        if "H" in cfg:
            name += f" (H={cfg['H']}"
            if "K" in cfg:
                name += f", K={cfg['K']}"
            name += ")"
        lines.append(f"{name:<28} {s['objective_usd']:>16,.2f} {s['runtime_s']:>14.2f}")
    return "\n".join(lines)


def report_csv_text(run_dirs) -> str:
    """Per-hour roll-up across runs: committed units, served demand (equal
    to total output by the balance constraint), and cumulative cost."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["algorithm", "hour", "demand_mw", "units_on", "hour_cost_usd", "cumulative_cost_usd"]
    )
    for run_dir in run_dirs:
        summary = read_summary(run_dir)
        path = Path(run_dir) / "schedule.csv"
        by_hour: dict[int, list] = {}  # (power, committed, cost) per unit row
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    by_hour.setdefault(int(row["hour"]), []).append((
                        float(row["power_mw"]),
                        int(row["committed"]),
                        float(row["gen_cost_usd"]) + float(row["startup_cost_usd"]),
                    ))
        except (KeyError, TypeError, ValueError) as err:
            raise UnitCommitmentError(
                f"{path}: malformed schedule ({type(err).__name__}: {err})"
            ) from None
        cumulative = 0.0
        for hour in sorted(by_hour):
            rows = by_hour[hour]
            demand = sum(power for power, _, _ in rows)
            units_on = sum(committed for _, committed, _ in rows)
            cost = sum(row_cost for _, _, row_cost in rows)
            cumulative += cost
            writer.writerow(
                [summary["algorithm"], hour, repr(demand), units_on, repr(cost), repr(cumulative)]
            )
    return buf.getvalue()
