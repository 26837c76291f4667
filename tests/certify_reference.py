"""Reference for the differential tests: the product-enumeration bet
certificate.

This is `evimech.deception.certify_bet` as it stood before the worst case
over pure mimicry plans became a sum of per-source minima, with the
`sourcewise_worst_case`, `CertReport` and `CombinatorialBlowup` of that time,
copied verbatim apart from the absolute imports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from evimech.deception import Bet
from evimech.scenario import Scenario, subsets


class CombinatorialBlowup(RuntimeError):
    pass


@dataclass
class CertReport:
    value_at_lie: Fraction
    worst_case_at_truth: Fraction
    passed: bool
    plan_count: int
    robust_worst_case: Fraction


def certify_bet(scenario: Scenario, bet: Bet, plan_cap: int = 10**6) -> CertReport:
    """Independent oracle for a bet.

    `value_at_lie` is the exact expectation against truthful play at the lie
    state. `worst_case_at_truth` enumerates pure mimicry plans at the truth
    state: each source presents a maximal sub-collection that occurs at the
    lie state (withholding below that is dominated by the evidence incentive;
    a source with no such sub-collection presents itself). `robust_worst_case`
    is the min over the full withholding polytope (every subset); synthesized
    bets clear that stronger bar by construction.
    """
    weights = bet.weight_map()
    value_at_lie = scenario.dist(bet.agent, bet.lie_state).dot(weights)

    sources = scenario.support(bet.agent, bet.truth_state)
    truth_dist = scenario.dist(bet.agent, bet.truth_state)
    lie_support = scenario.support(bet.agent, bet.lie_state)
    option_lists = []
    count = 1
    for src in sources:
        fitting = [c for c in lie_support if c <= src]
        options = [c for c in fitting if not any(c < other for other in fitting)]
        if not options:
            options = [src]
        option_lists.append(options)
        count *= len(options)
        if count > plan_cap:
            raise CombinatorialBlowup(f"{count} pure plans exceed cap {plan_cap}")
    worst = None
    for choice in itertools.product(*option_lists):
        value = sum(
            (truth_dist.prob(src) * weights.get(dst, Fraction(0)) for src, dst in zip(sources, choice)),
            Fraction(0),
        )
        if worst is None or value < worst:
            worst = value
    robust = sourcewise_worst_case(scenario, bet)
    passed = value_at_lie < 0 and worst is not None and worst > 0
    return CertReport(value_at_lie, worst, passed, count, robust)


def sourcewise_worst_case(scenario: Scenario, bet: Bet) -> Fraction:
    """Fallback for certify_bet's enumeration: per-source cheapest targets."""
    weights = bet.weight_map()
    total = Fraction(0)
    dist = scenario.dist(bet.agent, bet.truth_state)
    for src, prob in dist.items():
        best = min(weights.get(sub, Fraction(0)) for sub in subsets(src))
        total += prob * best
    return total
