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
from .lp_solver import LpProblem, LpSolution, LpStatus, Relation
from .queue_model import (
    RateParams,
    SlopeFit,
    TailEstimate,
    estimate_tail,
    fit_decay_slope,
)
from .seeding import derive_seed, make_rng, splitmix64
from .sim_harness import (
    CautiousAll,
    FullNode,
    NetSimConfig,
    SyncReport,
    run_network_sim,
    simulate,
)
from .sync_game import (
    CeCheck,
    CorrelatedDistribution,
    DecisionReport,
    GameSpec,
    Profile,
    best_pure_profile,
    is_correlated_equilibrium,
    solve_ns,
)

__all__ = [
    "CautiousAll",
    "CeCheck",
    "CorrelatedDistribution",
    "DecayPoint",
    "DecisionReport",
    "FullNode",
    "GameSpec",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "NetSimConfig",
    "Profile",
    "RateParams",
    "Relation",
    "SlopeFit",
    "SyncReport",
    "TailEstimate",
    "ToleranceSpec",
    "best_pure_profile",
    "decay_surface",
    "derive_seed",
    "effective_capacity",
    "effective_rate",
    "estimate_tail",
    "failure_rate_approx",
    "fit_decay_slope",
    "is_correlated_equilibrium",
    "make_rng",
    "rate_function",
    "run_network_sim",
    "simulate",
    "solve_ns",
    "splitmix64",
]
