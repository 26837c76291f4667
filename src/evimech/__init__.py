"""Verification and synthesis toolkit for full implementation with uncertain
hard evidence: evidence environments, deception feasibility, separating bets,
implementability conditions, implementing mechanisms, and equilibrium audits."""

# The one version string (pyproject.toml reads it too); set before the
# submodule imports so any of them may import it.
__version__ = "0.1.0"

from .scenario import (
    Distribution,
    Scenario,
    article_nomenclature,
    check_deterministic_equivalence,
    classify_lie,
    most_informative_projection,
    parse_scenario,
    refutes,
    scenario_to_json,
    validate_scenario,
)
from .deception import (
    Bet,
    PurePlan,
    TransportPlan,
    certify_bet,
    find_perfect_deception,
    find_pure_perfect_deception,
    induced_distribution,
    synthesize_bet,
    synthesize_gamma_delta,
)
from .conditions import check_npd, check_nppd, check_stochastic_measurability
from .mechanism import (
    Mechanism,
    Message,
    build_bne_mechanism,
    build_pure_mechanism,
    compute_scaling,
    consistency,
    outcome,
    transfers,
)
from .game import (
    BayesianGame,
    DirectMechanism,
    SearchBudget,
    claim_audits,
    deception_closure_audit,
    expected_utility,
    search_equilibria,
    truthful_profile,
    verify_bne,
)
from .hierarchy import (
    TypeSpaceModel,
    build_hierarchy,
    check_evidence_ic,
    check_higher_order_measurability,
    embed_flat_scenario,
    model_to_json,
    report_values,
    separating_level,
    stabilization_depth,
)
from .smalltransfers import build_small_transfer_mechanism, eliminate_rationalizable

