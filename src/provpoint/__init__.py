"""Provision-point civic crowdfunding mechanisms with negative valuations
and asymmetric beliefs: market engines, belief-phase rewards, closed-form
equilibrium bounds, and exact best-response deviation certification."""

from .model import (
    AgentProfile,
    BeliefSide,
    CampaignConfig,
    ContributionRecord,
    CostParams,
    Market,
    Mechanism,
    Outcome,
    Payout,
    Verdict,
    aggregate_valuations,
    derive_preference,
)
from .costfn import CostFunction
from .mechanisms import (
    Action,
    DualMarketState,
    ppr_utility,
    pprn_utility,
    pprx_utility,
    pps_utility,
    ppsn_utility,
    ppsx_utility,
    run_campaign,
    settle,
)
from .beliefs import (
    BeliefLedger,
    BeliefReport,
    bbr_rewards,
    conditional_rewards,
    quadratic_score,
    rbts_scores,
    score_reports,
)
from .equilibrium import (
    ConditionCheck,
    Deviation,
    EquilibriumProfile,
    EquilibriumReport,
    bound_pprn,
    bound_pprx,
    certify_ne,
    certify_spe,
    check_conditions,
    combined_mechanism_gap,
    construct_profile,
    contribution_bound,
    contribution_ordering_gap,
)
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioTemplate,
    generate_scenario,
    parse_scenario,
    save_scenario,
)
from .runner import run_scenario

__version__ = "0.1.0"
