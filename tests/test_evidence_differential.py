"""Differential test: every reader of `Scenario.evidence`, the one compiled
evidence table per agent, against `evidence_reference`, the per-reader
enumerations it replaced.

The corpus is the fixtures, `random_scenario(0..299)` and 100 degenerate
draws. On each scenario the presentable collections, `refutes` at every
state, every bet domain, the lie table with its witnesses and
`max_collection_size` must be equal; so must the refuted-state masks every
bne kernel codes its messages with. On the fixtures and the random draws
`refutes` must also agree on every subset of the articles and raise the same
`ScenarioError` text for unknown ids."""

import itertools

import pytest

import evidence_reference as ref
from evimech import fixtures, generators
from evimech.deception import _bet_domain
from evimech.mechanism import DegenerateGap, Message, NpdViolation, SlackViolation, build_bne_mechanism
from evimech.scenario import ScenarioError, refutes, subsets

UNKNOWN = "zz_unknown"


def _scenarios():
    out = [(name, build(), True) for name, build in fixtures.ALL_FIXTURES.items()]
    out.extend((f"seed {seed}", generators.random_scenario(seed), True) for seed in range(300))
    out.extend(
        (f"degenerate seed {seed}", generators.random_scenario(seed, degenerate=True), False) for seed in range(100)
    )
    return out


def _error(call, *args):
    try:
        return call(*args)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


def test_evidence_readers_match_the_reference():
    counts = dict.fromkeys(("scenarios", "refutes", "domains", "kernels"), 0)
    for name, scn, every_subset in _scenarios():
        for agent in scn.agents:
            presentable = ref.presentable(scn, agent)
            assert scn.presentable(agent) == presentable, name
            collections = subsets(scn.articles) if every_subset else presentable
            for coll, state in itertools.product(collections, scn.states):
                assert refutes(scn, coll, state, agent) == ref.refutes(scn, coll, state, agent), (name, coll)
                counts["refutes"] += 1
            for truth, lie in itertools.product(scn.states, repeat=2):
                assert _bet_domain(scn, agent, truth, lie) == ref._bet_domain(scn, agent, truth, lie), name
                counts["domains"] += 1
        table = {(s, t): ref._classify(scn, s, t) for s in scn.states for t in scn.states}
        assert dict(scn.lie_table()) == table, name
        assert scn.max_collection_size() == ref.max_collection_size(scn), name
        counts["scenarios"] += 1
        try:
            mech = build_bne_mechanism(scn)
        except (NpdViolation, DegenerateGap, SlackViolation):
            continue
        kernel = mech.kernel()
        codes, refuted = ref.kernel_evidence(scn)
        for j, agent in enumerate(scn.agents):
            p_own, p_right = scn.alphabet(agent)[0], scn.alphabet(scn.right_neighbor(agent))[0]
            for coll, code in codes[j].items():
                # the record of a message presenting `coll` carries its code and mask
                record = kernel._records[j][kernel.code(j, Message(p_own, p_right, coll, scn.states[0]))]
                assert (record[2], record[5]) == (code, refuted[j][code]), (name, agent, coll)
        counts["kernels"] += 1
    assert counts == {"scenarios": 406, "refutes": 13883, "domains": 9908, "kernels": 373}


@pytest.mark.parametrize(
    "args",
    [
        (frozenset({UNKNOWN}), "s0", "A0"),
        (frozenset({UNKNOWN}), UNKNOWN, UNKNOWN),
        (frozenset(), UNKNOWN, "A0"),
        (frozenset(), UNKNOWN, UNKNOWN),
        (frozenset(), "s0", UNKNOWN),
    ],
    ids=["article", "article first", "state", "state first", "agent"],
)
def test_refutes_rejects_unknown_ids_as_the_reference(args):
    scenarios = [(name, scn) for name, scn, every_subset in _scenarios() if every_subset]
    for name, scn in scenarios:
        coll, state, agent = args
        state = scn.states[0] if state == "s0" else state
        agent = scn.agents[0] if agent == "A0" else agent
        coll = coll | {scn.articles[0]}
        expected = _error(ref.refutes, scn, coll, state, agent)
        assert expected.startswith("ScenarioError: unknown "), (name, expected)
        assert _error(refutes, scn, coll, state, agent) == expected, name
