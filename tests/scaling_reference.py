"""Oracle for the scaling differential test: `compute_scaling` as it stood
before its `tau2_max` pass became linear in the alphabet.

`compute_scaling`, `_quadratic_score` and `refutes` are copied verbatim from
`evimech.mechanism` and `evimech.scenario`: the score gap is maximized over
every alphabet pair (p, q), `|p|^2` is recomputed in every score, and
`refutes` rebuilds the article set on every call.
"""

from __future__ import annotations

import math
from fractions import Fraction

from evimech.conditions import check_stochastic_measurability
from evimech.mechanism import DegenerateGap, ScalingParams
from evimech.scenario import Distribution, Scenario, ScenarioError


def refutes(scenario: Scenario, collection, state, agent) -> bool:
    """True iff no support collection of `agent` at `state` contains `collection`."""
    collection = frozenset(collection)
    unknown = collection - set(scenario.articles)
    if unknown:
        raise ScenarioError(f"unknown article ids {sorted(unknown)}")
    if state not in scenario.states:
        raise ScenarioError(f"unknown state {state!r}")
    if agent not in scenario.agents:
        raise ScenarioError(f"unknown agent {agent!r}")
    return not any(collection <= sup for sup in scenario.support(agent, state))


def _quadratic_score(report: Distribution, evidence) -> Fraction:
    self_dot = sum((p * p for _, p in report.items()), Fraction(0))
    return 2 * report.prob(evidence) - self_dot


def compute_scaling(scenario: Scenario, bet_values) -> ScalingParams:
    """Canonical parameters satisfying the score-gap and refutation inequalities.

    bet_values: iterable of absolute bet entries that the whistle slot can pay.
    """
    sm = check_stochastic_measurability(scenario)
    if not sm.passed:
        raise DegenerateGap("identical distribution profiles with distinct outcomes")

    gap_min = None
    for agent in scenario.agents:
        alphabet = scenario.alphabet(agent)
        if len(alphabet) < 2:
            continue
        for state in scenario.states:
            here = scenario.dist(agent, state)
            for other in alphabet:
                if other == here:
                    continue
                gap = here.squared_distance(other)
                if gap_min is None or gap < gap_min:
                    gap_min = gap

    collection_max = scenario.max_collection_size()
    bet_max = Fraction(0)
    for value in bet_values:
        bet_max = max(bet_max, abs(Fraction(value)))
    span = scenario.utility_span()

    if gap_min is None:
        return ScalingParams(
            eps=Fraction(1, 100),
            tau_low=Fraction(2),
            tau_high=Fraction(1),
            tau2_max=Fraction(0),
            gap_min=None,
            rho_min=None,
            collection_max=collection_max,
            bet_max=bet_max,
            span=span,
        )

    tau_low = Fraction(max(2, math.floor(1 / gap_min) + 1))

    tau2_max = Fraction(0)
    for agent in scenario.agents:
        right = scenario.right_neighbor(agent)
        alphabet = scenario.alphabet(right)
        for evidence in scenario.presentable(right):
            for p in alphabet:
                for q in alphabet:
                    swing = tau_low * (
                        _quadratic_score(p, evidence) - _quadratic_score(q, evidence)
                    )
                    tau2_max = max(tau2_max, swing)

    rho_min = None
    for agent in scenario.agents:
        for state in scenario.states:
            for target in scenario.states:
                if target == state:
                    continue
                for coll, prob in scenario.dist(agent, state).items():
                    if refutes(scenario, coll, target, agent):
                        if rho_min is None or prob < rho_min:
                            rho_min = prob

    tau_high = Fraction(1) if rho_min is None else Fraction(math.ceil((1 + tau2_max) / rho_min))

    denom = collection_max + bet_max
    candidates = []
    if denom > 0:
        candidates.append((tau_low - 1) / (2 * denom))
    if span < 1 and collection_max + 2 * bet_max > 0:
        candidates.append((1 - span) / (2 * (collection_max + 2 * bet_max)))
    eps = min(candidates) if candidates else Fraction(1, 100)

    return ScalingParams(
        eps=eps,
        tau_low=tau_low,
        tau_high=tau_high,
        tau2_max=tau2_max,
        gap_min=gap_min,
        rho_min=rho_min,
        collection_max=collection_max,
        bet_max=bet_max,
        span=span,
    )
