"""``uc`` command line: generate, solve, verify, and compare."""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness, oracle
from .dispatch import economic_dispatch
from .errors import UnitCommitmentError
from .mdp import SystemState, UnitCommitmentMDP
from .treesearch import SearchConfig, tree_search_policy


class UsageError(UnitCommitmentError):
    """A command-line argument is out of range."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded random instance")
    gen.add_argument("-N", type=int, required=True, help="number of units")
    gen.add_argument("-T", type=int, required=True, help="horizon in hours")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", required=True, help="output JSON file")

    solve = sub.add_parser("solve", help="run one solver on an instance")
    solve.add_argument("-i", "--instance", required=True)
    solve.add_argument("--algo", choices=harness.ALGORITHMS, required=True)
    solve.add_argument("-H", type=int, default=1, help="lookahead hours")
    solve.add_argument("-K", type=int, default=64, help="sampled actions per node")
    solve.add_argument("--rho", type=float, default=0.5, help="sampling decay")
    solve.add_argument("--ns", type=int, default=50, help="states sampled per hour")
    solve.add_argument("--seed", type=int, default=0)
    # benchmark/run.py passes ``--threads 1`` on every solve, and is the only
    # reason this flag exists; it goes when the benchmark stops passing it
    # (ROADMAP item 1(a)).  Every other value is refused.
    solve.add_argument("--threads", type=int, default=1, help="must be 1")
    solve.add_argument(
        "--warm-start", default="tree:H=1", help="back sweep anchor, e.g. tree:H=1"
    )
    solve.add_argument("-o", "--out", required=True, help="output directory")

    verify = sub.add_parser("verify", help="oracle cross-checks (small instances)")
    verify.add_argument("-i", "--instance", required=True)
    verify.add_argument("--seed", type=int, default=0)

    report = sub.add_parser("report", help="compare finished runs")
    report.add_argument("dirs", nargs="+", help="run directories")
    report.add_argument("-o", "--out", help="write a per-hour CSV roll-up here")
    return parser


def _cmd_gen(args) -> int:
    for flag, value in (("-N", args.N), ("-T", args.T)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    instance = harness.gen_instance(args.N, args.T, args.seed)
    harness.save_instance(instance, args.out)
    print(f"wrote N={args.N}, T={args.T}, seed={args.seed} instance to {args.out}")
    return 0


def _check_solve_args(args) -> None:
    for flag, value in (("-H", args.H), ("-K", args.K), ("--ns", args.ns)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    if args.threads != 1:
        raise UsageError(f"--threads must be 1, got {args.threads}")
    if not 0.0 < args.rho < 1.0:
        raise UsageError(f"--rho must lie in (0, 1), got {args.rho}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    try:
        harness.parse_warm_start(args.warm_start)
    except ValueError as err:
        raise UsageError(f"--warm-start: {err}") from None


def _cmd_solve(args) -> int:
    _check_solve_args(args)
    instance = harness.load_instance(args.instance)
    report = harness.run(
        instance,
        args.algo,
        lookahead=args.H,
        sample_count=args.K,
        rho=args.rho,
        n_samples=args.ns,
        seed=args.seed,
        warm_start=args.warm_start,
    )
    report.config["instance"] = str(args.instance)
    harness.write_run(report, args.out, instance)
    print(
        f"{report.algorithm}: objective ${report.objective:,.2f} "
        f"(generation ${report.generation:,.2f}, startup ${report.startup:,.2f}) "
        f"in {report.runtime_s:.1f}s -> {args.out}"
    )
    return 0


def _cmd_verify(args) -> int:
    instance = harness.load_instance(args.instance)
    env = UnitCommitmentMDP(instance)
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
        failures += 0 if ok else 1

    if env.n_units * env.horizon > 20:
        print(f"instance too large for oracle checks (N*T = {env.n_units * env.horizon} > 20)")
        return 2

    best = oracle.exhaustive_optimum(env)
    tree = tree_search_policy(env.initial_state(), SearchConfig(env.horizon), env)
    check(
        "full-depth tree search matches exhaustive optimum",
        tree.objective == best.objective,
        f"{tree.objective} vs {best.objective}",
    )

    if env.n_units <= 2:
        values = oracle.exact_dp(env)
        readout = oracle.dp_greedy_solution(env, values)
        check(
            "exact DP greedy readout matches exhaustive optimum",
            readout.objective == best.objective,
            f"{readout.objective} vs {best.objective}",
        )

    rng = np.random.default_rng(args.seed)
    gens = instance.generators
    worst = 0.0
    for _ in range(100):
        action = tuple(int(b) for b in rng.integers(0, 2, size=len(gens)))
        lo = sum(g.p_min for g, b in zip(gens, action) if b)
        hi = sum(g.p_max for g, b in zip(gens, action) if b)
        if hi <= lo:
            continue
        demand = float(rng.uniform(lo, hi))
        result = economic_dispatch(action, demand, gens)
        worst = max(worst, abs(sum(result.power) - demand) / max(demand, 1e-9))
    check("dispatch balance residual <= 1e-9 relative", worst <= 1e-9, f"worst {worst:.2e}")

    print("verify:", "ok" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def _cmd_report(args) -> int:
    summaries = [harness.read_summary(d) for d in args.dirs]
    # read every schedule.csv before printing, so a bad one prints no table
    rollup = harness.report_csv_text(args.dirs) if args.out else None
    print(harness.render_report(summaries))
    if rollup is not None:
        Path(args.out).write_text(rollup)
        print(f"per-hour roll-up written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }[args.command]
    try:
        return handler(args)
    except (UnitCommitmentError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
