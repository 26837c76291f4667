"""Seeded property suites for the package invariants (small sizes, exact checks)."""

import random
from fractions import Fraction

import pytest

import game_reference
from evimech import fixtures
from evimech.conditions import check_npd, check_nppd, check_stochastic_measurability
from evimech.deception import (
    InfeasibleSeparation,
    certify_bet,
    find_perfect_deception,
    find_pure_perfect_deception,
    induced_distribution,
    perfect_deception,
    synthesize_bet,
)
from evimech.generators import random_scenario
from evimech.mechanism import (
    TRANSFER_KEYS,
    Challenge,
    Message,
    build_bne_mechanism,
    build_pure_mechanism,
    challenge_key,
    transfers,
)
from evimech.scenario import (
    check_deterministic_equivalence,
    classify_lie,
    refutes,
    validate_scenario,
)

F = Fraction


def ordered_pairs(scn):
    for s in scn.states:
        for sp in scn.states:
            if s != sp:
                yield s, sp


def test_generator_is_deterministic_and_valid():
    for seed in range(40):
        first = random_scenario(seed)
        second = random_scenario(seed)
        assert first.dists == second.dists
        assert first.scf == second.scf
        report = validate_scenario(first)
        assert report.valid, report.violations
        assert len(first.agents) <= 3 and len(first.states) <= 4 and len(first.articles) <= 3
        for dist in first.dists.values():
            assert dist.total() == 1
            for _, prob in dist.items():
                assert prob.denominator <= 12


def test_duality_perfect_deception_xor_bet(seed_count=60):
    for seed in range(seed_count):
        scn = random_scenario(seed)
        for agent in scn.agents:
            for s, sp in ordered_pairs(scn):
                plan = find_perfect_deception(scn, agent, s, sp)
                if plan is None:
                    bet = synthesize_bet(scn, agent, s, sp)
                    assert bet.margin > 0
                else:
                    assert induced_distribution(plan) == scn.dist(agent, sp)
                    with pytest.raises(InfeasibleSeparation):
                        synthesize_bet(scn, agent, s, sp)


def test_hall_witness_certifies_infeasibility():
    for seed in range(60):
        scn = random_scenario(seed)
        for agent in scn.agents:
            for s, sp in ordered_pairs(scn):
                result = perfect_deception(scn, agent, s, sp)
                if result.exists:
                    continue
                witness = result.witness
                assert witness is not None and witness.verify()
                support = set(scn.support(agent, sp))
                scarce = set(witness.targets)
                # closed under supersets within the target support
                for coll in scarce:
                    for other in support:
                        if coll <= other:
                            assert other in scarce
                # the serving sources are exactly those containing a scarce target
                for src in scn.support(agent, s):
                    should_serve = any(t <= src for t in scarce)
                    assert should_serve == (src in set(witness.sources))


def test_pure_perfect_implies_perfect():
    for seed in range(60):
        scn = random_scenario(seed)
        for agent in scn.agents:
            for s, sp in ordered_pairs(scn):
                pure = find_pure_perfect_deception(scn, agent, s, sp)
                if pure is not None:
                    assert find_perfect_deception(scn, agent, s, sp) is not None
                    assert induced_distribution(pure.as_transport(scn)) == scn.dist(agent, sp)


def test_implication_chain_random():
    for seed in range(120):
        scn = random_scenario(seed)
        npd = check_npd(scn).passed
        nppd = check_nppd(scn).passed
        sm = check_stochastic_measurability(scn).passed
        assert (not npd) or nppd
        assert (not nppd) or sm


def test_refutes_antitone_random():
    for seed in range(30):
        scn = random_scenario(seed)
        for agent in scn.agents:
            colls = scn.presentable(agent)
            for state in scn.states:
                refuting = [c for c in colls if refutes(scn, c, state, agent)]
                for small in refuting:
                    for big in colls:
                        if small <= big:
                            assert refutes(scn, big, state, agent)


def test_nonrefutable_superset_claim_random():
    for seed in range(60):
        scn = random_scenario(seed)
        for s, sp in ordered_pairs(scn):
            if classify_lie(scn, s, sp).verdict != "nonrefutable":
                continue
            for agent in scn.agents:
                for coll in scn.support(agent, s):
                    assert any(coll <= sup for sup in scn.support(agent, sp))


def test_deterministic_equivalence_random_degenerate():
    for seed in range(80):
        scn = random_scenario(seed, degenerate=True)
        report = check_deterministic_equivalence(scn)
        assert report.equivalent
        assert report.relation_agreement


def test_bet_scaling_invariance_random():
    checked = 0
    for seed in range(20):
        scn = random_scenario(seed)
        for agent in scn.agents:
            for s, sp in ordered_pairs(scn):
                if find_perfect_deception(scn, agent, s, sp) is not None:
                    continue
                bet = synthesize_bet(scn, agent, s, sp)
                for factor in (F(1, 2), F(3)):
                    assert certify_bet(scn, bet.scaled(factor)).passed == certify_bet(scn, bet).passed
                checked += 1
                break
    assert checked > 0


def test_truthful_equilibrium_on_random_built_mechanisms():
    # end-to-end: whenever the builder accepts a random scenario, truthful
    # maximal-evidence play verifies as a clean equilibrium at every state
    from evimech.game import BayesianGame, truthful_profile, verify_bne

    built = 0
    for seed in range(40):
        scn = random_scenario(seed)
        if len(scn.agents) > 2 or not check_npd(scn).passed:
            continue
        mech = build_bne_mechanism(scn)
        built += 1
        for state in scn.states:
            game = BayesianGame(scn, mech, state, 0)
            report = verify_bne(game, truthful_profile(game))
            assert report.is_bne, (seed, state, report.witness)
            assert report.transfers_zero
            assert report.on_path_outcomes == {scn.scf[state]: F(1)}
    assert built >= 10


def _fuzz_pools(mech):
    """Per agent: own and right-neighbour alphabets, presentable evidence and
    claim-slot values (every state, or no challenge, every valid challenge
    and an invalid one)."""
    scn = mech.scenario
    if mech.variant == "bne":
        claims = list(scn.states)
    else:
        valid = sorted((challenge for challenge, _ in mech.bets), key=challenge_key)
        stray = Challenge(scn.states[0], scn.states[0], valid[0].assignments)
        claims = [None, stray] + valid
    return {
        agent: (
            list(scn.alphabet(agent)),
            list(scn.alphabet(scn.right_neighbor(agent))),
            list(scn.presentable(agent)),
            claims,
        )
        for agent in scn.agents
    }


def test_transfer_case_split_totality_fuzz():
    # every component of every agent's transfers equals the reference's, on
    # bne transcripts (perturbed) and pure-variant ones (leading)
    keys = (*TRANSFER_KEYS, "total")
    rng = random.Random(20260810)
    for mech in (
        build_bne_mechanism(fixtures.perturbed_example()),
        build_pure_mechanism(fixtures.leading_example()),
    ):
        pools = _fuzz_pools(mech)
        for _ in range(50_000):
            transcript = {}
            for agent, (own, rights, evidence, claims) in pools.items():
                transcript[agent] = Message(
                    rng.choice(own), rng.choice(rights), rng.choice(evidence), claim=rng.choice(claims)
                )
            table = transfers(mech, transcript)
            expected = game_reference.transfers(mech, transcript)
            for agent, items in table.items():
                assert [(k, type(items[k]), items[k]) for k in keys] == [
                    (k, Fraction, expected[agent][k]) for k in keys
                ]
