"""Cross-learning contextual bandits with graph feedback: library and simulator."""

from .baselines import GraphExp3Baseline, UniformBaseline, baseline_rates
from .environment import (
    AdversarialShiftOracle,
    AuctionOracle,
    LossOracle,
    Play,
    Reveal,
    StochasticGapOracle,
    TableOracle,
    gap_means,
    reveal,
    sample_context,
)
from .graph import (
    FeedbackGraph,
    GraphSpec,
    IndependenceBudgetError,
    build_graph,
    independence_number,
    independence_number_bruteforce,
    is_strongly_observable,
)
from .harness import (
    OracleSpec,
    RunConfig,
    RunResult,
    ScalingFit,
    Trace,
    fit_scaling,
    run,
    run_sweep,
)
from .known import KnownDistLearner, default_learning_rate
from .simplex import check_simplex, exp_weights, sample_arm, tilt
from .unknown import (
    EpochLearner,
    ParamSchedule,
    accept_probability,
    nearest_compatible_horizon,
    rejection_distribution,
    schedule_params,
    tuned_schedule,
)
from .diagnostics import graph_inverse_bound

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
