"""Flat-environment implementability conditions with certificates."""

from __future__ import annotations

from dataclasses import dataclass, field

from .deception import find_perfect_deception, find_pure_perfect_deception, perfect_deception
from .scenario import Scenario, classify_lie, contested_lies


@dataclass
class PairFailure:
    source_state: str
    target_state: str
    certificates: dict  # agent -> TransportPlan | PurePlan
    note: str = ""


@dataclass
class Verdict:
    condition: str
    passed: bool
    failures: list = field(default_factory=list)


def check_stochastic_measurability(scenario: Scenario) -> Verdict:
    """Distinct outcomes require some agent's evidence distribution to differ."""
    verdict = Verdict("sm", True)
    states = scenario.states
    for i, s in enumerate(states):
        for s_prime in states[i + 1 :]:
            if scenario.scf[s] == scenario.scf[s_prime]:
                continue
            if all(scenario.dist(a, s) == scenario.dist(a, s_prime) for a in scenario.agents):
                verdict.passed = False
                verdict.failures.append(PairFailure(s, s_prime, {}, "identical distribution profiles"))
    return verdict


def canonical_perfect_plans(scenario: Scenario, source_state, target_state, finder=find_perfect_deception):
    """Per-agent plans by `finder` (max-flow plans by default) when every
    agent can deceive, else None."""
    plans = {}
    for agent in scenario.agents:
        plan = finder(scenario, agent, source_state, target_state)
        if plan is None:
            return None
        plans[agent] = plan
    return plans


def _deception_condition(scenario: Scenario, finder, condition_name) -> Verdict:
    verdict = Verdict(condition_name, True)
    for s, s_prime, _ in contested_lies(scenario):
        certificates = canonical_perfect_plans(scenario, s, s_prime, finder)
        if certificates is not None:
            verdict.passed = False
            verdict.failures.append(PairFailure(s, s_prime, certificates, "outcome differs across a deceivable pair"))
    return verdict


def check_npd(scenario: Scenario) -> Verdict:
    """No Perfect Deceptions: every nonrefutable, fully deceivable ordered pair
    must share its outcome; failures carry per-agent transport certificates."""
    return _deception_condition(scenario, find_perfect_deception, "npd")


def check_nppd(scenario: Scenario) -> Verdict:
    """No Pure-Perfect Deceptions: as NPD but with degenerate plans only."""
    return _deception_condition(scenario, find_pure_perfect_deception, "nppd")


def pair_blocking_report(scenario: Scenario, s, s_prime) -> dict:
    """Why a single ordered pair does not violate NPD (for reports)."""
    lie = classify_lie(scenario, s, s_prime)
    info = {"source_state": s, "target_state": s_prime, "lie": lie.verdict}
    if lie.verdict == "refutable":
        info["refuters"] = list(lie.refuters)
        info["witness_mass"] = {a: lie.witness_mass(a) for a in lie.refuters}
    blocked = []
    for agent in scenario.agents:
        result = perfect_deception(scenario, agent, s, s_prime)
        if not result.exists:
            witness = result.witness
            blocked.append(
                {
                    "agent": agent,
                    "max_flow": result.flow_value,
                    "witness": {
                        "targets": [sorted(target) for target in witness.targets],
                        "demand": witness.demand,
                        "sources": [sorted(source) for source in witness.sources],
                        "supply": witness.supply,
                    },
                }
            )
    info["agents_without_deception"] = blocked
    return info
