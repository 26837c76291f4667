"""Oracle for the evidence differential test: the readers of an agent's
evidence as they stood before they shared one compiled table per scenario
(`Scenario.evidence`).

`presentable`, `refutes`, `_classify`, `_bet_domain` and
`max_collection_size` are copied verbatim from `evimech.scenario` and
`evimech.deception`; `kernel_evidence` is the mask build of
`evimech.mechanism.Kernel.__init__`. Each enumerates the subsets or scans the
supports itself, and `refutes` validates the ids on every call.
"""

from __future__ import annotations

from types import MappingProxyType

from evimech.scenario import LieClass, Scenario, ScenarioError, collection_key, subsets


def presentable(scenario: Scenario, agent) -> tuple:
    """All collections the agent may ever present: subsets of support collections."""
    seen = set()
    for state in scenario.states:
        for coll in scenario.support(agent, state):
            seen.update(subsets(coll))
    return tuple(sorted(seen, key=collection_key))


def refutes(scenario: Scenario, collection, state, agent) -> bool:
    """True iff no support collection of `agent` at `state` contains `collection`."""
    collection = frozenset(collection)
    unknown = collection - scenario.article_set()
    if unknown:
        raise ScenarioError(f"unknown article ids {sorted(unknown)}")
    if state not in scenario.states:
        raise ScenarioError(f"unknown state {state!r}")
    if agent not in scenario.agents:
        raise ScenarioError(f"unknown agent {agent!r}")
    return not any(collection <= sup for sup in scenario.support(agent, state))


def _classify(scenario: Scenario, true_state, target_state) -> LieClass:
    """One lie's class, with each refuting agent's witness collections."""
    if true_state == target_state:
        return LieClass(true_state, target_state, "self_identical")
    witnesses = {}
    for agent in scenario.agents:
        found = tuple(
            (coll, prob)
            for coll, prob in scenario.dist(agent, true_state).items()
            if refutes(scenario, coll, target_state, agent)
        )
        if found:
            witnesses[agent] = found
    if witnesses:
        return LieClass(
            true_state,
            target_state,
            "refutable",
            refuters=tuple(a for a in scenario.agents if a in witnesses),
            witnesses=MappingProxyType(witnesses),
        )
    return LieClass(true_state, target_state, "nonrefutable")


def kernel_evidence(scenario: Scenario) -> tuple:
    """(per agent: presentable collection -> code, per agent: the refuted-state
    mask of each code), as the kernel built them for every mechanism."""
    evidence = [presentable(scenario, agent) for agent in scenario.agents]
    evidence_codes = [{e: c for c, e in enumerate(row)} for row in evidence]
    refuted = []
    for j, agent in enumerate(scenario.agents):
        refuted.append(
            [
                sum(1 << k for k, state in enumerate(scenario.states) if refutes(scenario, e, state, agent))
                for e in evidence[j]
            ]
        )
    return evidence_codes, refuted


def _bet_domain(scenario: Scenario, agent, truth_state, lie_state):
    domain = set()
    for coll in scenario.support(agent, truth_state):
        domain.update(subsets(coll))
    domain.update(scenario.support(agent, lie_state))
    return sorted(domain, key=collection_key)


def max_collection_size(scenario: Scenario) -> int:
    best = 0
    for agent in scenario.agents:
        for state in scenario.states:
            for coll in scenario.support(agent, state):
                best = max(best, len(coll))
    return best
