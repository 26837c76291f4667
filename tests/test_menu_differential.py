"""Differential test: menus, truthful profiles and audit cases built from
index codes against the `Message`s they stand for.

For every kernel (`Kernel` under bne and, where z fits, pure; `DirectKernel`)
over the fixtures and `random_scenario(0..199, max_states=3)`:

- every type's menu decodes to `game_reference`'s enumeration of its
  messages, in the same order, and `code` of each decoded message gives back
  the menu's code;
- every truthful code, at every state, is the code of the mechanism's
  `truthful_message`, and a reported play is the coded reported profile;
- every deviation audit case's better and worse codes are the codes of the
  messages the proof step names: the truthful message with its right-claim,
  own claim or claim slot replaced.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

import game_reference as ref
from evimech import fixtures, game, generators, mechanism
from evimech.mechanism import Challenge, DegenerateGap, MessageOutsideSpace, SlackViolation

SCENARIOS = [(name, build()) for name, build in fixtures.ALL_FIXTURES.items()]
SCENARIOS += [(f"seed {seed}", generators.random_scenario(seed, max_states=3)) for seed in range(200)]
PURE_CAP = 20000


def _mechanisms(scn):
    mechs = [("direct", game.DirectMechanism(scn))]
    try:
        mechs.append(("bne", mechanism.assemble_bne_mechanism(scn)))
        if mechanism.pure_profile_count(scn) <= PURE_CAP:
            mechs.append(("pure", mechanism.assemble_pure_mechanism(scn, z_cap=PURE_CAP)))
    except (DegenerateGap, SlackViolation):
        pass
    return mechs


def _check_menus(scn, mech, kernel):
    """Each type's menu against the reference enumeration; the menus checked."""
    checked = 0
    for state in scn.states:
        expected = ref.BayesianGame(scn, mech, state, 0).actions
        for i, agent in enumerate(scn.agents):
            for coll in scn.support(agent, state):
                menu = kernel.actions(i, coll)
                codes, positions = menu.codes, menu.positions
                assert list(menu) == list(expected[(agent, coll)]), (agent, coll)
                assert len(menu) == len(codes) and menu[1:3] == tuple(expected[(agent, coll)][1:3])
                assert [kernel.code(i, msg) for msg in menu] == list(codes)
                assert positions == {code: pos for pos, code in enumerate(codes)}
                checked += 1
    return checked


def _coded_reported_profile(g, state):
    """The rows of the reported profile at `state`, built from the
    mechanism's `truthful_message` and coded by `coded_play`."""
    profile = {
        agent: {coll: {g.mech.truthful_message(agent, state, coll): Fraction(1)} for coll in g.types[agent]}
        for agent in g.scenario.agents
    }
    return game.coded_play(g, profile).rows


def _check_truthful(scn, mech, kernel):
    for state in scn.states:
        g = game.BayesianGame(scn, mech, state, 0)
        for lie in scn.states:
            assert game.truthful_play(g, lie).rows == _coded_reported_profile(g, lie), (state, lie)
        for i, agent in enumerate(scn.agents):
            for coll, position in kernel.positions[i].items():
                for lie in scn.states:
                    msg = mech.truthful_message(agent, lie, coll)
                    assert kernel.truthful_code(i, lie, position) == kernel.code(i, msg), (agent, coll, lie)


def _named_messages(scn, mech, name, state, agent, coll, label):
    """(better, worse): the messages a case of audit `name` compares, built as
    the proof step names them."""
    if name == "scoring":
        truth = mech.truthful_message(agent, state, coll)
        wrong = next(d for d in scn.alphabet(scn.right_neighbor(agent)) if repr(d) == label[2])
        return truth, replace(truth, p_right=wrong)
    if name == "crosscheck":
        truth = mech.truthful_message(agent, state, coll)
        wrong = [d for d in scn.alphabet(agent) if d != scn.dist(agent, state)][0]
        return truth, replace(truth, p_own=wrong)
    true_state, lie = label[0], label[1]
    base = mech.truthful_message(agent, lie, coll)
    if name == "refutation":
        return replace(base, p_right=scn.dist(scn.right_neighbor(agent), true_state)), base
    claim, _ = mech.whistle(true_state, lie)
    return replace(base, claim=claim), base


def _check_audit_cases(scn, mech, kernel):
    """Every audit case's codes against the named messages; the cases checked."""
    games = {state: game.BayesianGame(scn, mech, state, 0) for state in scn.states}
    checked = 0
    for name, cases in (
        ("scoring", game._scoring_cases),
        ("crosscheck", game._crosscheck_cases),
        ("refutation", game._refutation_cases),
        ("whistle", game._whistle_cases),
    ):
        for g, agent, play, state, better, worse, label in cases(scn, mech, games):
            assert play.rows == _coded_reported_profile(g, state)
            i = scn.agents.index(agent)
            for coll in g.types[agent]:
                position = kernel.positions[i][coll]
                codes = tuple(kernel.truthful_code(i, state, position, **changes) for changes in (better, worse))
                messages = _named_messages(scn, mech, name, state, agent, coll, label)
                assert codes == tuple(kernel.code(i, msg) for msg in messages), (name, label, coll)
                assert tuple(kernel.message(i, code) for code in codes) == messages
                checked += 1
    return checked


def test_menus_truthful_codes_and_audit_cases_match_their_messages():
    counts = {"direct": 0, "bne": 0, "pure": 0, "cases": 0}
    for name, scn in SCENARIOS:
        for kind, mech in _mechanisms(scn):
            kernel = mech.kernel()
            counts[kind] += _check_menus(scn, mech, kernel)
            _check_truthful(scn, mech, kernel)
            if kind != "direct":
                counts["cases"] += _check_audit_cases(scn, mech, kernel)
    assert min(counts.values()) > 100, counts


@pytest.mark.parametrize("kind", ["direct", "bne", "pure"])
def test_decoded_messages_round_trip_off_the_menus(kind):
    # a code off every menu (another type's evidence, a challenge the bet
    # table does not name) still decodes to the message it was coded from
    scn = fixtures.appended_article_example()
    mech = dict(_mechanisms(scn))[kind]
    kernel = mech.kernel()
    unnamed = Challenge(scn.states[0], scn.states[0], ())
    for i, agent in enumerate(scn.agents):
        for coll in kernel.positions[i]:
            msg = mech.truthful_message(agent, scn.states[-1], coll)
            if kind == "pure":
                msg = replace(msg, claim=unnamed)
                with pytest.raises(MessageOutsideSpace):  # no claim of the slot
                    kernel.code(i, replace(msg, claim=("not", "a", "challenge")))
            assert kernel.message(i, kernel.code(i, msg)) == msg
