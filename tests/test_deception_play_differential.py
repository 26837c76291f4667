"""Differential test: `game.deception_play`, the one builder of composed
deceptions, against the `Message` profile the reference composes
(`game_reference.compose_with_truthful`) and codes with `coded_play`; and
the best-response table's verdict on every pure canonical plan against
`_verify_play` on the same play.

The corpus is every state of the fixtures and of
`random_scenario(seed, max_states=3)` for seeds 0-199, under the direct
mechanism, the bne mechanism (built where NPD holds, assembled without the
gate where it fails but SM holds) and the pure mechanism (where SM holds and
z is at most 20,000), at utility profile 0. Every canonical plan of every
target is compared, and the pure deception profiles of a seeded sample of at
most `PURE_SAMPLE` (assignment, target) pairs per game.
"""

import itertools
import random
from fractions import Fraction

import pytest

import game_reference as ref
from evimech import fixtures, game, generators, mechanism
from evimech.conditions import check_npd, check_stochastic_measurability
from evimech.deception import TransportPlan
from test_game_differential import report_fields

PURE_SAMPLE = 12

SCENARIOS = [(name, build()) for name, build in fixtures.ALL_FIXTURES.items()]
SCENARIOS.extend((f"seed {seed}", generators.random_scenario(seed, max_states=3)) for seed in range(200))


def _mechanisms(scn):
    mechs = [game.DirectMechanism(scn)]
    if check_stochastic_measurability(scn).passed:
        build = mechanism.build_bne_mechanism if check_npd(scn).passed else mechanism.assemble_bne_mechanism
        mechs.append(build(scn))
        if mechanism.pure_profile_count(scn) <= 20000:
            mechs.append(mechanism.assemble_pure_mechanism(scn, z_cap=20000))
    return mechs


def _flows(plans):
    return {agent: plan.flows for agent, plan in plans.items()}


def _reference_play(g, old, plans):
    """The play of the reference's composed profile."""
    return game.coded_play(g, ref.compose_with_truthful(old, plans))


def _pure_plans(scn, state, rng):
    """A seeded sample of pure deception profiles: (target, plans) pairs,
    each agent's plan routing every source's whole mass to one subset."""
    lists = [mechanism.pure_assignments(scn, agent, state) for agent in scn.agents]
    pairs = [(combo, target) for combo in itertools.product(*lists) for target in scn.states if target != state]
    for combo, target in rng.sample(pairs, min(PURE_SAMPLE, len(pairs))):
        plans = {}
        for agent, rows in zip(scn.agents, combo):
            dist = scn.dist(agent, state)
            plans[agent] = TransportPlan(agent, state, target, tuple((src, dst, dist.prob(src)) for src, dst in rows))
        yield target, plans


def _check(scn, mech, state, rng, counts):
    g = game.BayesianGame(scn, mech, state, 0)
    old = ref.BayesianGame(scn, mech, state, 0)
    table = game._best_response_table(g)
    results, flags = game.search_equilibria(g, game.SearchBudget(pure_cap=0, seeds=()))
    found = [item["profile"] for item in results]
    for target in scn.states:
        plans = game.canonical_perfect_plans(scn, state, target)
        if plans is None:
            continue
        play = game.deception_play(g, target, _flows(plans))
        reference = _reference_play(g, old, plans)
        assert play == reference and hash(play) == hash(reference), (mech, state, target)
        counts["canonical"] += 1
        strategies = play.strategies
        if strategies is None:
            counts["mixed"] += 1
            continue
        # a pure canonical plan: the table's verdict and its all-zero report
        # are `_verify_play`'s, and the search lists it iff it is a hit
        verified = game._verify_play(g, play)
        admitted = all(
            all(pos in best for pos, best in zip(strategy, table(i, strategies)))
            for i, strategy in enumerate(strategies)
        )
        assert admitted == verified.is_bne, (mech, state, target)
        counts["admitted" if admitted else "rejected"] += 1
        if admitted:
            certified = game._equilibrium_report(g, play, dict.fromkeys(g.actions, Fraction(0)), None)
            assert report_fields(certified) == report_fields(verified), (mech, state, target)
        if flags["closure_family"] == "EXHAUSTIVE":
            assert (game.decode_play(g, play) in found) == admitted, (mech, state, target)
    for target, plans in _pure_plans(scn, state, rng):
        play = game.deception_play(g, target, _flows(plans))
        assert play.strategies is not None and play == _reference_play(g, old, plans), (mech, state, target)
        counts["pure"] += 1


@pytest.mark.parametrize("name, scn", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_deception_play_matches_reference(name, scn):
    rng = random.Random(name)
    counts = dict.fromkeys(("canonical", "mixed", "admitted", "rejected", "pure"), 0)
    for mech in _mechanisms(scn):
        for state in scn.states:
            _check(scn, mech, state, rng, counts)


def test_deception_play_corpus_is_not_vacuous():
    counts = dict.fromkeys(("canonical", "mixed", "admitted", "rejected", "pure"), 0)
    for name, scn in SCENARIOS[:40]:
        rng = random.Random(name)
        for mech in _mechanisms(scn):
            for state in scn.states:
                _check(scn, mech, state, rng, counts)
    assert counts["mixed"] >= 10 and counts["admitted"] >= 10 and counts["rejected"] >= 10, counts
    assert counts["pure"] >= 500, counts
