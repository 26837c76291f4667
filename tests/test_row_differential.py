"""Differential test: the kernels' per-agent row evaluator against
`game_reference.outcome` and `transfers` (and `direct_outcome` for the
direct mechanism).

For each agent, its whole message space (every message of every type's menu
at every state) is valued in one row, `evaluate_row`, against random packed
codes of the other agents' messages. Every entry's outcome and five transfer
components must equal the reference's on the whole transcript, the cached
`row` entry must hold that outcome and the components' total, and `itemized`
must give every agent's transfers on the transcript. Under the pure variant
the row is also taken with a claim that names no bet, which must act as no
challenge.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import game_reference as ref
from evimech import fixtures, game, generators, mechanism
from evimech.conditions import check_stochastic_measurability
from evimech.mechanism import KEY_BITS, TRANSFER_KEYS, Challenge

SCENARIOS = [(name, fixtures.ALL_FIXTURES[name]()) for name in ("micro", "appended_article", "perturbed", "leading")]
# three agents: two states with a small pure variant, three and four states
# (the stress seed 5) without one
SCENARIOS += [
    ("seed 44, two states", generators.random_scenario(44, max_states=2)),
    ("seed 0", generators.random_scenario(0)),
    ("seed 5", generators.random_scenario(5)),
]
PURE_CAP = 20000
OPPONENTS = 16  # random opponents' codes per agent


def _mechanisms(scn):
    mechs = [("direct", game.DirectMechanism(scn))]
    if check_stochastic_measurability(scn).passed:
        mechs.append(("bne", mechanism.assemble_bne_mechanism(scn)))
        if mechanism.pure_profile_count(scn) <= PURE_CAP:
            mechs.append(("pure", mechanism.assemble_pure_mechanism(scn, z_cap=PURE_CAP)))
    return mechs


def _message_space(kernel, scn, i):
    """Code -> message over every type's menu of agent i at every state."""
    agent = scn.agents[i]
    space = {}
    for state in scn.states:
        for coll in scn.support(agent, state):
            menu = kernel.actions(i, coll)
            space.update(zip(menu.codes, menu))
    return space


def _reference(mech, transcript, agent):
    """(outcome, agent's five components) by the reference rules."""
    if isinstance(mech, game.DirectMechanism):
        return ref.direct_outcome(mech, transcript), [Fraction(0)] * len(TRANSFER_KEYS)
    items = ref.transfers(mech, transcript)[agent]
    return ref.outcome(mech, transcript), [items[key] for key in TRANSFER_KEYS]


def _check_row(mech, kernel, i, space, picks, others):
    """Compare agent i's row over `space` against the reference; the count of
    entries checked."""
    scn = mech.scenario
    agent = scn.agents[i]
    codes = list(space)
    row = kernel.evaluate_row(i, codes, others)
    assert len(row) == len(codes)
    for (code, msg), (outcome, items) in zip(space.items(), row):
        expected = _reference(mech, {**picks, agent: msg}, agent)
        assert (scn.outcomes[outcome], [Fraction(v, kernel.D) for v in items]) == expected, (agent, msg)
    assert kernel.row(i, codes, others) == [(outcome, sum(items)) for outcome, items in row]
    return len(codes)


@pytest.mark.parametrize("name, scn", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_rows_match_reference_rules(name, scn):
    rng = random.Random(name)
    checked = {}
    for kind, mech in _mechanisms(scn):
        kernel = mech.kernel()
        spaces = [_message_space(kernel, scn, i) for i in range(len(scn.agents))]
        for i, agent in enumerate(scn.agents):
            for _ in range(OPPONENTS):
                picks, others = {}, 0
                for j, other in enumerate(scn.agents):
                    if j != i:
                        code = rng.choice(list(spaces[j]))
                        picks[other] = spaces[j][code]
                        others |= code << (KEY_BITS * j)
                checked[kind] = checked.get(kind, 0) + _check_row(mech, kernel, i, spaces[i], picks, others)
                # a whole transcript, assembled from one row per agent
                transcript = {**picks, agent: rng.choice(list(spaces[i].values()))}
                outcome, table = kernel.itemized(transcript)
                expected = ref.transfers(mech, transcript) if kind != "direct" else ref._zero_transfers(scn)
                assert outcome == _reference(mech, transcript, agent)[0]
                assert table == expected
                if kind == "pure":
                    # a challenge the bet table does not name acts like no challenge
                    unnamed = Challenge(target_state=scn.states[-1], source_state=scn.states[0], assignments=())
                    assert not any(claim == unnamed for claim, _ in mech.bets)
                    plain = {code: msg for code, msg in spaces[i].items() if msg.claim is None}
                    bogus = [replace(msg, claim=unnamed) for msg in plain.values()]
                    bogus = {kernel.code(i, msg): msg for msg in bogus}
                    checked[kind] += _check_row(mech, kernel, i, bogus, picks, others)
                    assert kernel.evaluate_row(i, list(bogus), others) == kernel.evaluate_row(i, list(plain), others)
    assert set(checked) == {kind for kind, _ in _mechanisms(scn)} and min(checked.values()) > 0


def test_row_corpus_covers_every_kernel_at_two_and_three_agents():
    kinds = {(kind, len(scn.agents)) for _, scn in SCENARIOS for kind, _ in _mechanisms(scn)}
    assert kinds == {(kind, agents) for kind in ("direct", "bne", "pure") for agents in (2, 3)}
