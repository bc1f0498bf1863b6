"""Day-ahead unit commitment planning over a deterministic MDP.

The hourly scheduling problem (which units run, at what output) is cast
as a finite-horizon decision process and solved three ways: lookahead
tree search with optional action sub-sampling, a backward value sweep
with nearest-neighbor lookups, and an approximate-policy-iteration
baseline.  Brute-force oracles cross-check everything at small scale.
"""

from .api_baseline import (
    PerceptronTreePolicy,
    approximate_policy_iteration,
    feature_dim,
    features,
    greedy_action_from_q,
    sarsa_evaluate,
)
from .backsweep import (
    ValueSlice,
    evaluate_states,
    greedy_policy,
    nearest_neighbor,
    sample_environment,
    state_distance,
)
from .core import (
    STATUS_CAP,
    CostBreakdown,
    DemandProfile,
    GeneratorSpec,
    ProblemInstance,
    ValidationReport,
    generation_cost,
    startup_cost,
    validate_instance,
)
from .dispatch import (
    DispatchResult,
    check_set_limits,
    dispatch_costs,
    economic_dispatch,
    kkt_violation,
)
from .errors import (
    EmptySliceError,
    HourMismatchError,
    InfeasibleActionError,
    InfeasibleDispatchError,
    InstanceParseError,
    InstanceValidationError,
    NoFeasibleActionError,
    NoFeasiblePlanError,
    OutOfBoundsError,
    TooLargeError,
    UnitCommitmentError,
)
from .harness import RunReport, gen_instance, load_instance, run, save_instance
from .mdp import (
    BIG,
    CommitmentAction,
    ScheduleSolution,
    SystemState,
    UnitCommitmentMDP,
)
from .oracle import dp_greedy_solution, exact_dp, exhaustive_optimum, grid_dispatch
from .treesearch import (
    SearchConfig,
    SubsampleConfig,
    find_best_action,
    sample_action_neighborhood,
    subsampled_tree_search,
    tree_search_policy,
)

__version__ = "0.1.0"
