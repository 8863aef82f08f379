"""Node-level analysis of pull-based blockchain synchronization.

Quantifies a full node's response failure rate (Monte Carlo queue walks and
their closed-form exponential tail) and computes a partial node's best
request strategy as the utility-maximizing correlated equilibrium of the
node-synchronization linear program.
"""

from .ldp_analytics import (
    DecayPoint,
    ToleranceSpec,
    decay_surface,
    effective_capacity,
    effective_rate,
    failure_rate_approx,
    rate_function,
)
from .lp_solver import Constraint, LpProblem, LpSolution, LpStatus, Relation
from .queue_model import (
    RateParams,
    SlopeFit,
    TailEstimate,
    WalkResult,
    estimate_tail,
    fit_decay_slope,
    poisson_counts,
    simulate_walk,
)
from .seeding import derive_seed, make_rng, splitmix64
from .sim_harness import (
    CautiousAll,
    Equilibrium,
    FullNode,
    NetRunDetail,
    NetSimConfig,
    SyncReport,
    run_network_sim,
    simulate_detail,
)
from .sync_game import (
    CeCheck,
    CorrelatedDistribution,
    DecisionReport,
    GameSpec,
    Profile,
    best_pure_profile,
    build_ns_lp,
    cautious_failure,
    is_correlated_equilibrium,
    solve_ns,
)

__all__ = [
    "CautiousAll",
    "CeCheck",
    "Constraint",
    "CorrelatedDistribution",
    "DecayPoint",
    "DecisionReport",
    "Equilibrium",
    "FullNode",
    "GameSpec",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "NetRunDetail",
    "NetSimConfig",
    "Profile",
    "RateParams",
    "Relation",
    "SlopeFit",
    "SyncReport",
    "TailEstimate",
    "ToleranceSpec",
    "WalkResult",
    "best_pure_profile",
    "build_ns_lp",
    "cautious_failure",
    "decay_surface",
    "derive_seed",
    "effective_capacity",
    "effective_rate",
    "estimate_tail",
    "failure_rate_approx",
    "fit_decay_slope",
    "is_correlated_equilibrium",
    "make_rng",
    "poisson_counts",
    "rate_function",
    "run_network_sim",
    "simulate_detail",
    "simulate_walk",
    "solve_ns",
    "splitmix64",
]
