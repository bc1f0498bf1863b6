"""Spans around calls into ucplan's layers, recorded from outside the program.

``Tracer.installed`` replaces the bindings that callers look up at call time
with timing wrappers and restores them on exit.  Modules import functions by
name, so the wrapper goes on the binding the caller uses: for example
``ucplan.mdp.economic_dispatch`` (looked up by the MDP's cost methods) and
``ucplan.treesearch._search`` (looked up by the recursion itself, so every
node is a span).

Every span adds its duration minus its children's to its name's self time.
The per-node spans (search nodes, cost lookups, feasible sets, dispatches,
neighbourhood samples, back-sweep scoring) are only aggregated, as there
are millions of them per run.  All other spans are kept as records (id,
parent id, solve id, name, start, end) and written out with the run's
results.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

import ucplan.backsweep as backsweep
import ucplan.harness as harness
import ucplan.mdp as mdp
import ucplan.treesearch as treesearch

LOOKUP = "mdp.cost_lookups"
SCORE = "backsweep.score"


class Tracer:
    """Span totals, counters and kept span records of one benchmark run."""

    def __init__(self):
        self.stack = []  # open spans: [name, child seconds, record id or None]
        self.totals = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counters = defaultdict(int)
        self.records = []
        self.solve_id = 0

    def _wrap(self, name, fn, observe=None, keep=False):
        stack, records, clock = self.stack, self.records, time.perf_counter
        push, pop = stack.append, stack.pop
        entry = self.totals[name]

        def traced(*args, **kwargs):
            rid = None
            if keep:
                rid = len(records)
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                records.append([rid, parent, self.solve_id, name, 0.0, 0.0])
            frame = [name, 0.0, rid]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    records[rid][4:] = [start, end]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def solve(self, algorithm: str, fn, *args):
        """Call ``fn(*args)`` traced, as the root span of a new solve id."""
        self.solve_id += 1
        with self.installed(algorithm):
            return self._wrap("cli.solve", fn, keep=True)(*args)

    @contextmanager
    def installed(self, algorithm: str):
        """Patch every layer entry point for the duration of the block."""
        c = self.counters
        stack = self.stack

        def dispatch_seen(args, result):
            if stack and stack[-1][0] == LOOKUP:
                c["dispatch.from_lookup"] += 1

        def feasible_seen(args, result):
            c["feasible.size"] += len(result)
            c["feasible.last"] = len(result)

        def node_seen(args, result):
            env, _, hour, depth = args[:4]
            c["nodes"] += 1
            if depth == 0 or hour == env.horizon:
                c["leaves"] += 1

        def sample_seen(args, result):
            c["sample.kept"] += len(result)
            c["sample.feasible"] += c["feasible.last"]

        def states_seen(args, result):
            c["backsweep.states"] += len(result)

        def score_seen(args, result):
            c["backsweep.actions"] += len(result[0])

        exact_index = backsweep.ValueSlice.exact_index

        def counted_exact_index(slice_, status):
            found = exact_index(slice_, status)
            if stack and stack[-1][0] == SCORE:
                c["exact.calls"] += 1
                c["exact.hits"] += found is not None
            return found

        warm = "backsweep.warm_start" if algorithm == "backsweep" else "treesearch.policy"
        env = mdp.UnitCommitmentMDP
        w = self._wrap
        patches = [
            (mdp, "economic_dispatch", w("dispatch", mdp.economic_dispatch, dispatch_seen)),
            (env, "dispatch_cost_int", w(LOOKUP, env.dispatch_cost_int)),
            (env, "dispatch_cost", w(LOOKUP, env.dispatch_cost)),
            (env, "_feasible_ints", w("mdp.feasible", env._feasible_ints, feasible_seen)),
            (env, "__init__", w("mdp.init", env.__init__, keep=True)),
            (env, "replay", w("mdp.replay", env.replay, keep=True)),
            (env, "schedule_cost", w("harness.audit", env.schedule_cost, keep=True)),
            (treesearch, "_search", w("treesearch.search", treesearch._search, node_seen)),
            (treesearch, "_search_sub",
             w("treesearch.search", treesearch._search_sub, node_seen)),
            (treesearch, "find_best_action",
             w("treesearch.search", treesearch.find_best_action)),
            (treesearch, "sample_action_neighborhood",
             w("treesearch.sample", treesearch.sample_action_neighborhood, sample_seen)),
            (harness, "tree_search_policy", w(warm, harness.tree_search_policy, keep=True)),
            (harness, "subsampled_tree_search",
             w("treesearch.policy", harness.subsampled_tree_search, keep=True)),
            (harness, "evaluate_states",
             w("backsweep.evaluate", harness.evaluate_states, keep=True)),
            (harness, "greedy_policy", w("backsweep.greedy", harness.greedy_policy, keep=True)),
            (backsweep, "sample_environment",
             w("backsweep.sample", backsweep.sample_environment, states_seen, keep=True)),
            (backsweep, "_score_actions", w(SCORE, backsweep._score_actions, score_seen)),
            (backsweep.ValueSlice, "exact_index", counted_exact_index),
            (harness, "run", w("harness.run", harness.run, keep=True)),
            (harness, "write_run", w("harness.write", harness.write_run, keep=True)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
