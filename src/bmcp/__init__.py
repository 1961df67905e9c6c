"""Budgeted maximum coverage: instances, tabu search with probability
learning, exact oracle, LP export, and batch statistics."""

from .errors import BuildError, ConfigError, FormatError, InfeasibleError
from .exact import exact_optimum
from .instance import (
    GeneratorSpec,
    Instance,
    InstanceWarning,
    coverage_counts,
    full_objective,
    generate_instance,
    instance_name,
    load_instance,
    parse_instance,
    save_instance,
    selection_from_items,
    total_weight,
    write_instance,
)
from .learning import (
    ProbabilityVector,
    probability_perturbation,
    random_perturbation,
)
from .lpexport import export_lp
from .solver import (
    BatchSummary,
    RunResult,
    SolverConfig,
    batch,
    solve,
    summarize,
)
from .state import Flip, Move, SearchState, Swap
from .stats import wilcoxon_signed_rank
from .tabu import (
    descent_local_search,
    initial_solution,
    random_fill,
    select_move,
    tabu_depth,
    tabu_search,
    tabu_tenure,
)

__version__ = "0.1.0"
