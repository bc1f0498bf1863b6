"""ucplan benchmark: time ``uc solve`` on a fixed instance pool and check every plan.

Run from the repository root::

    python3 benchmark/run.py --workload tree-h3-n8 --seed 1 --seconds 25 --trace 0

One process, one client, ``--threads 1``: each solve starts after the
previous one ends.  A solve is exactly what ``uc solve`` does, driven
in-process through ``ucplan.cli.main``.  Every plan is checked from the
files it wrote (``gate.py``).  With ``--trace 0`` the run repeats passes
over the pool for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it makes one pass, solving each instance untraced and then
traced (``spans.py``), and reports the per-layer metrics.  The last line
of standard output is the result as one JSON object; the full record,
with provenance and every solve, goes to ``.bench_out/``.  See README.md.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from io import StringIO
from math import fsum
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HORIZON = 24
POOL_SIZE = 3  # instances per workload, generator seeds first .. first + 2
SETUP_PROBES = 10  # set-up samples per timed run
BUNDLED_SEED = 42  # gen_instance(N, 24, 42) is instances/n8_t24.json and n12_t24.json
# reference_loop() seconds and numpy import seconds at the machine speed the
# bounds were set at; times are reported at this speed (see README.md)
REFERENCE_LOOP_S = 0.0135
REFERENCE_NUMPY_IMPORT_S = 0.09
# across the machine's speed phases, set-up time moved as numpy's import time
# to this power (fitted on 40 runs of ten probes each, see README.md)
SETUP_SPEED_EXPONENT = 0.6


@dataclass(frozen=True)
class Workload:
    n_units: int
    solve_args: tuple[str, ...]
    pinned: bool  # exact search: plans must match pinned_plans.json

    @property
    def algorithm(self) -> str:
        return self.solve_args[1]


WORKLOADS = {
    "tree-h1-n12": Workload(12, ("--algo", "tree", "-H", "1"), True),
    "tree-h3-n8": Workload(8, ("--algo", "tree", "-H", "3"), True),
    "treesub-h3-n8": Workload(
        8, ("--algo", "tree-sub", "-H", "3", "-K", "64", "--rho", "0.5"), False
    ),
    "backsweep-n8": Workload(
        8, ("--algo", "backsweep", "--ns", "50", "--warm-start", "tree:H=1"), False
    ),
}

# run in a fresh interpreter to time set-up: argv = benchmark dir, N, first seed,
# dir; prints the set-up seconds and the part of them spent importing numpy
_SETUP_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "sys.path.insert(0, sys.argv[1]); import run; "
    "run.setup(int(sys.argv[2]), int(sys.argv[3]), run.Path(sys.argv[4])); "
    "print(time.perf_counter() - t0, t1 - t0)"
)


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work that runs
    no ucplan code: the yardstick for the machine's speed at this moment.

    On a shared 2-core virtual machine the CPU speed drifts by a third over
    minutes, far more than the solves' own variation, so every solve is
    timed between two of these and rescaled to ``REFERENCE_LOOP_S``.  A
    change to ucplan does not change the loop, so it shows in the rescaled
    time in full.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(20000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += min(table[key], 1e9)
    a = np.arange(4096, dtype=float).reshape(64, 64)
    for _ in range(40):
        a = np.abs(a - a.mean(axis=0)) + 1.0
    return time.perf_counter() - start


def machine_speed(loop_before: float, loop_after: float) -> float:
    """Slowdown against the reference speed, from loops run before and after."""
    return 0.5 * (loop_before + loop_after) / REFERENCE_LOOP_S


def setup(n_units: int, first_seed: int, inst_dir: Path):
    """Everything before the first solve can begin: import ucplan, write the
    pool's instance files, build the first UnitCommitmentMDP.

    Returns the pool as (generator seed, instance file, instance) triples.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ucplan.cli  # noqa: F401  (the solve path)
    from ucplan import harness
    from ucplan.mdp import UnitCommitmentMDP

    inst_dir.mkdir(parents=True, exist_ok=True)
    pool = []
    for seed in range(first_seed, first_seed + POOL_SIZE):
        instance = harness.gen_instance(n_units, HORIZON, seed)
        path = inst_dir / f"n{n_units}_t{HORIZON}_seed{seed}.json"
        harness.save_instance(instance, path)
        pool.append((seed, path, instance))
    UnitCommitmentMDP(pool[0][2])
    return pool


def time_setup(n_units: int, first_seed: int, inst_dir: Path) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter: wall seconds, and seconds at
    the reference speed.

    Set-up is mostly imports, whose speed ``reference_loop`` does not track,
    so the yardstick here is the probe's own ``import numpy``: fixed work
    that ucplan's set-up pays first and that no change to ucplan alters.
    """
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(BENCH), str(n_units), str(first_seed),
         str(inst_dir)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, numpy_import = map(float, done.stdout.split()[-2:])
    return seconds, seconds * (REFERENCE_NUMPY_IMPORT_S / numpy_import) ** SETUP_SPEED_EXPONENT


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, pool) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "instance_seeds": [seed for seed, _, _ in pool],
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs solves of one workload, checks each one and keeps the tally."""

    def __init__(self, work: Workload, out: Path, pins: dict):
        import gate
        from ucplan import cli

        self.gate, self.cli = gate, cli
        self.work, self.out, self.pins = work, out, pins
        self.solves = []  # one dict per solve, in order
        self.first_digest = {}

    def solve(self, inst_seed: int, path: Path, instance, call=None) -> dict:
        """One timed ``uc solve``; ``call(fn, argv)`` may wrap the call."""
        out = self.out / str(inst_seed)
        shutil.rmtree(out, ignore_errors=True)
        argv = ["solve", "-i", str(path), *self.work.solve_args, "--threads", "1",
                "-o", str(out)]
        problems = []
        loop_before = reference_loop()
        start = time.perf_counter()
        try:
            with redirect_stdout(StringIO()):
                code = call(self.cli.main, argv) if call else self.cli.main(argv)
        except Exception as err:  # a crashed solve is a failed solve, not a crashed run
            code = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - start
        speed = machine_speed(loop_before, reference_loop())
        if code != 0:
            problems.append(f"uc solve did not succeed ({code})")
        pin = self.pins.get(str(inst_seed)) if self.work.pinned else None
        found, digest, objective = self.gate.check_run(out, instance, pin)
        problems += found
        first = self.first_digest.setdefault(inst_seed, digest)
        if digest != first:
            problems.append(f"plan {digest} differs from this run's earlier plan {first}")
        record = {
            "instance_seed": inst_seed, "seconds": seconds, "ref_seconds": seconds / speed,
            "objective_usd": objective,
            "digest": digest, "pinned": pin is not None, "problems": problems,
            "schedule": (out / "schedule.csv").read_bytes() if not problems else None,
        }
        self.solves.append(record)
        return record

    @property
    def failed(self) -> int:
        return sum(1 for s in self.solves if s["problems"])


def timed_passes(runner: Runner, pool, seconds: float, seed: int, probe):
    """Passes over the pool in seed-shuffled order until the solves add up to
    ``seconds`` and every instance has been solved.  Set-up probes are spread
    over the run, so that solves and set-up sample the same machine states.

    Returns the end-to-end metrics, and the wall-time medians and set-up
    samples for the record.
    """
    order = list(pool)
    shuffle = random.Random(seed).shuffle
    per_instance = {s: [] for s, _, _ in pool}
    wall = {s: [] for s, _, _ in pool}
    objectives = {}
    setup_times = []  # (wall, reference-speed) seconds
    solving = 0.0
    while solving < seconds or not all(per_instance.values()):
        shuffle(order)
        for inst_seed, path, instance in order:
            done = runner.solve(inst_seed, path, instance)
            per_instance[inst_seed].append(done["ref_seconds"])
            wall[inst_seed].append(done["seconds"])
            solving += done["seconds"]
            if done["objective_usd"] is not None:
                objectives.setdefault(inst_seed, done["objective_usd"])
            if solving >= len(setup_times) * seconds / SETUP_PROBES:
                setup_times.append(probe())
            if solving >= seconds and all(per_instance.values()):
                break
    medians = [statistics.median(v) for v in per_instance.values()]
    wall_medians = [statistics.median(v) for v in wall.values()]
    return {
        "solve_s": (statistics.geometric_mean(medians), "s"),
        "solve_s_max": (max(medians), "s"),
        "objective_usd": (fsum(objectives.values()) / max(1, len(objectives)), "usd"),
        "setup_s": (statistics.median(ref for _, ref in setup_times), "s"),
    }, {
        "solve_wall_s": statistics.geometric_mean(wall_medians),
        "solve_wall_s_max": max(wall_medians),
        "setup_wall_s": statistics.median(wall for wall, _ in setup_times),
        "setup_samples_s": setup_times,
    }


def traced_pass(runner: Runner, pool) -> tuple[dict, dict]:
    """Each instance once untraced, then once traced; per-layer metrics."""
    from spans import Tracer

    tracer = Tracer()
    algorithm = runner.work.algorithm
    plain = traced = 0.0
    for inst_seed, path, instance in pool:
        a = runner.solve(inst_seed, path, instance)
        b = runner.solve(inst_seed, path, instance, call=partial(tracer.solve, algorithm))
        plain += a["ref_seconds"]
        traced += b["ref_seconds"]
        if a["schedule"] is not None and a["schedule"] != b["schedule"]:
            b["problems"].append("traced schedule.csv differs from the untraced one")
    return layer_metrics(tracer, traced / plain - 1.0), layer_table(tracer)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, overhead: float) -> dict:
    calls = {name: entry[0] for name, entry in tracer.totals.items()}
    self_s = {name: entry[1] for name, entry in tracer.totals.items()}
    c = tracer.counters
    count = lambda v: (v, "count")  # noqa: E731
    secs = lambda name: (self_s.get(name, 0.0), "s")  # noqa: E731
    lookups = calls.get("mdp.cost_lookups", 0)
    nodes = c["nodes"]
    return {
        "dispatch.calls": count(calls.get("dispatch", 0)),
        "dispatch.self_s": secs("dispatch"),
        "dispatch.us_per_call": (
            1e6 * _ratio(self_s.get("dispatch", 0.0), calls.get("dispatch", 0)), "us"),
        "mdp.cost_lookups": count(lookups),
        "mdp.memo_hit_ratio": (_ratio(lookups - c["dispatch.from_lookup"], lookups), "ratio"),
        "mdp.cost_lookups.self_s": secs("mdp.cost_lookups"),
        "mdp.feasible.calls": count(calls.get("mdp.feasible", 0)),
        "mdp.feasible.self_s": secs("mdp.feasible"),
        "mdp.feasible.mean_size": (
            _ratio(c["feasible.size"], calls.get("mdp.feasible", 0)), "count"),
        "mdp.init.self_s": secs("mdp.init"),
        "mdp.replay.calls": count(calls.get("mdp.replay", 0)),
        "mdp.replay.self_s": secs("mdp.replay"),
        "treesearch.nodes": count(nodes),
        "treesearch.leaves": count(c["leaves"]),
        "treesearch.useful_node_ratio": (_ratio(nodes - c["leaves"], nodes), "ratio"),
        "treesearch.search.self_s": secs("treesearch.search"),
        "treesearch.nodes_per_s": (
            _ratio(nodes, self_s.get("treesearch.search", 0.0)), "1/s"),
        "treesearch.sample.calls": count(calls.get("treesearch.sample", 0)),
        "treesearch.sample.self_s": secs("treesearch.sample"),
        "treesearch.sample.kept_ratio": (
            _ratio(c["sample.kept"], c["sample.feasible"]), "ratio"),
        "backsweep.sample.states": count(c["backsweep.states"]),
        "backsweep.sample.self_s": secs("backsweep.sample"),
        "backsweep.score.calls": count(calls.get("backsweep.score", 0)),
        "backsweep.score.actions": count(c["backsweep.actions"]),
        "backsweep.score.self_s": secs("backsweep.score"),
        "backsweep.exact_hit_ratio": (_ratio(c["exact.hits"], c["exact.calls"]), "ratio"),
        "backsweep.warm_start.self_s": secs("backsweep.warm_start"),
        "backsweep.evaluate.self_s": secs("backsweep.evaluate"),
        "backsweep.greedy.self_s": secs("backsweep.greedy"),
        "harness.audit.self_s": secs("harness.audit"),
        "harness.write.self_s": secs("harness.write"),
        "harness.run.self_s": secs("harness.run"),
        "trace.overhead": (overhead, "ratio"),
    }


def layer_table(tracer) -> dict:
    """Calls, self seconds and share of traced solve time, per span name."""
    total = sum(entry[1] for entry in tracer.totals.values())
    table = {
        name: {"calls": calls, "self_s": secs, "share": _ratio(secs, total)}
        for name, (calls, secs) in tracer.totals.items()
        if calls
    }
    return {"by_span": dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"])),
            "spans": tracer.records}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BUNDLED_SEED,
                        help="run seed: the order of each pass over the pool")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="solve until the solve times add up to this (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced pass, per-layer metrics")
    parser.add_argument("--instances", type=int, default=BUNDLED_SEED,
                        help="generator seed of the pool's first instance (hold-out runs)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ucplan" / "__init__.py").is_file():
        print(f"error: no ucplan sources under {SRC}; run from a ucplan checkout",
              file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"{tag}-{os.getpid()}"
    try:
        pool = setup(work.n_units, args.instances, scratch / "instances")
        pins = json.loads((BENCH / "pinned_plans.json").read_text()).get(args.workload, {})
        runner = Runner(work, scratch / "solves", pins)
        untimed = layers = None
        if args.trace:
            metrics, layers = traced_pass(runner, pool)
        else:
            probe = partial(time_setup, work.n_units, args.instances, scratch / "probe")
            metrics, untimed = timed_passes(runner, pool, args.seconds, args.seed, probe)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed = len(runner.solves), runner.failed
    record = {
        "provenance": provenance(args, pool),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fail_share": failed / attempted,
        "wall": untimed,
        "solves": [{k: v for k, v in s.items() if k != "schedule"} for s in runner.solves],
        "layers": layers,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(record["provenance"]))
    for s in runner.solves:
        for problem in s["problems"]:
            print(f"FAIL instance {s['instance_seed']}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:14.6g} {unit}")
    if untimed:
        print(f"{'(solve_s samples)':30s} {attempted:14d} solves")
        print(f"{'(solve_s as wall time)':30s} {untimed['solve_wall_s']:14.6g} s")
        print(f"{'(solve_s_max as wall time)':30s} {untimed['solve_wall_s_max']:14.6g} s")
        print(f"{'(setup_s as wall time)':30s} {untimed['setup_wall_s']:14.6g} s")
    print(f"{'fail_share':30s} {failed / attempted:14.6g} ({failed} of {attempted} solves)")
    if layers:
        top = next(iter(layers["by_span"].items()))
        print(f"largest self-time span: {top[0]} ({100 * top[1]['share']:.1f}%)")
    print(f"record written to {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
