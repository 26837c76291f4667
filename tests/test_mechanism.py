import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import game_reference
from evimech import fixtures, mechanism
from evimech.game import (
    BayesianGame,
    DirectKernel,
    DirectMechanism,
    DirectMessage,
    claim_audits,
    expected_utility,
    truthful_profile,
)
from evimech.mechanism import (
    Challenge,
    DegenerateGap,
    Message,
    MessageOutsideSpace,
    NpdViolation,
    NppdViolation,
    SlackViolation,
    ZOverflow,
    assemble_bne_mechanism,
    build_bne_mechanism,
    build_pure_mechanism,
    consistency,
    mechanism_report,
    outcome,
    pure_profile_count,
    transfers,
)
from evimech.scenario import Distribution, ScenarioError, parse_scenario

F = Fraction
RICH = frozenset({"h", "mh", "lmh"})
TOP = frozenset({"mh", "lmh"})
LOW = frozenset({"lmh"})
EMPTY = frozenset()


@pytest.fixture(scope="module")
def perturbed_mech():
    return build_bne_mechanism(fixtures.perturbed_example())


@pytest.fixture(scope="module")
def leading_mech():
    # leading example fails NPD; the assembled mechanism is used for transfer
    # arithmetic only (the public builder refuses it, see below)
    return assemble_bne_mechanism(fixtures.leading_example())


@pytest.fixture(scope="module")
def leading_pure_mech():
    return build_pure_mechanism(fixtures.leading_example())


def claims_message(mech, agent, claimed_state, evidence, claim=None):
    scn = mech.scenario
    right = scn.right_neighbor(agent)
    return Message(
        scn.dist(agent, claimed_state),
        scn.dist(right, claimed_state),
        frozenset(evidence),
        claim=claim,
    )


def truthful_transcript(mech, state):
    scn = mech.scenario
    out = {}
    for agent in scn.agents:
        endowment = max(scn.support(agent, state), key=len)
        out[agent] = mech.truthful_message(agent, state, endowment)
    return out


def test_builder_refuses_leading():
    with pytest.raises(NpdViolation) as exc:
        build_bne_mechanism(fixtures.leading_example())
    failures = exc.value.verdict.failures
    assert [(f.source_state, f.target_state) for f in failures] == [("H", "M")]


def test_pure_builder_refuses_pure_deception_fixture():
    with pytest.raises(NppdViolation):
        build_pure_mechanism(fixtures.pure_deception_example())


def test_pure_builder_z_cap():
    with pytest.raises(ZOverflow):
        build_pure_mechanism(fixtures.leading_example(), z_cap=10)


def test_bet_tables(perturbed_mech, leading_mech):
    assert set(perturbed_mech.bets) == {("M", "H"), ("L", "H"), ("L", "M")}
    assert all(bet.agent == "A" for bet in perturbed_mech.bets.values())
    assert set(leading_mech.bets) == {("M", "H"), ("L", "H"), ("L", "M")}
    assert leading_mech.bets[("M", "H")].margin == F(1, 5)


def test_scaling_values(perturbed_mech, leading_mech):
    assert leading_mech.scaling.gap_min == F(2, 25)
    assert leading_mech.scaling.tau_low == 13
    assert leading_mech.scaling.rho_min == F(2, 5)
    assert leading_mech.scaling.tau_high == 58

    assert perturbed_mech.scaling.gap_min == F(3, 50)
    assert perturbed_mech.scaling.tau_low == 17
    assert perturbed_mech.scaling.rho_min == F(1, 10)
    assert perturbed_mech.scaling.tau2_max == F(1343, 50)
    assert perturbed_mech.scaling.tau_high == 279

    for mech in (perturbed_mech, leading_mech):
        slacks = mech.scaling.slacks()
        assert slacks["score_gap"] > 0
        assert slacks["refutation"] >= 0
        assert slacks["eps_dominance"] > 0
        assert slacks["one_dollar"] > 0


# fixtures with one more utility profile, of span 99/50 (99/100 for the first
# outcome, -99/100 for the other): the one-dollar slack of each bne build
WIDE_ONE_DOLLAR = {"perturbed_wide": F(-549, 50), "appended_article_wide": F(-247, 150), "micro_wide": F(-173, 100)}


@pytest.mark.parametrize("name", sorted(WIDE_ONE_DOLLAR))
def test_builders_refuse_a_scaling_whose_slack_fails(name):
    scn = parse_scenario(json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text()))
    assert scn.utility_span() == F(99, 50)
    with pytest.raises(SlackViolation, match="one_dollar") as raised:
        build_bne_mechanism(scn)
    assert raised.value.slacks == {"one_dollar": WIDE_ONE_DOLLAR[name]}
    # the pure build refuses too: on its own slack, or first on its z cap
    with pytest.raises((SlackViolation, ZOverflow)):
        build_pure_mechanism(scn)


def test_failed_slacks_apply_the_tests_of_the_audits(perturbed_mech):
    scaling = perturbed_mech.scaling
    assert scaling.failed_slacks() == {}
    # a refutation fine that exactly covers the loss passes; a zero slack
    # elsewhere fails, as does a negative one
    tight = dataclasses.replace(scaling, tau_high=(1 + scaling.tau2_max) / scaling.rho_min)
    assert tight.slacks()["refutation"] == 0 and tight.failed_slacks() == {}
    even = dataclasses.replace(scaling, span=1 - scaling.eps * (scaling.collection_max + 2 * scaling.bet_max))
    assert even.failed_slacks() == {"one_dollar": 0}
    lowered = dataclasses.replace(scaling, tau_high=F(0), tau_low=F(1))
    assert set(lowered.failed_slacks()) == {"refutation", "score_gap", "eps_dominance"}
    suite = claim_audits(perturbed_mech.scenario, dataclasses.replace(perturbed_mech, scaling=lowered), [0])
    passed = {r.name: r.passed for r in suite.results}
    assert not (passed["scoring_dominance"] or passed["crosscheck_consistency"] or passed["refutation_escape"])


def test_single_state_scaling_defaults():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s",),
        articles=(),
        dists={("A", "s"): {EMPTY: F(1)}, ("B", "s"): {EMPTY: F(1)}},
        scf={"s": "o"},
        outcomes=("o",),
    )
    mech = build_bne_mechanism(scn)
    assert (mech.scaling.eps, mech.scaling.tau_low, mech.scaling.tau_high) == (F(1, 100), 2, 1)


def test_degenerate_gap_raises():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s1", "s2"),
        articles=(),
        dists={(a, s): {EMPTY: F(1)} for a in ("A", "B") for s in ("s1", "s2")},
        scf={"s1": "o1", "s2": "o2"},
        outcomes=("o1", "o2"),
    )
    with pytest.raises(DegenerateGap):
        assemble_bne_mechanism(scn)


def test_consistency(leading_mech):
    truthful = truthful_transcript(leading_mech, "M")
    assert consistency(leading_mech, truthful) == "M"
    broken = dict(truthful)
    scn = leading_mech.scenario
    broken["A"] = Message(truthful["A"].p_own, scn.dist("B", "M"), truthful["A"].evidence, "M")
    # B's distribution is constant so the perturbed neighbour report changes nothing;
    # perturb A's self-claim instead
    broken["A"] = Message(scn.dist("A", "H"), truthful["A"].p_right, truthful["A"].evidence, "M")
    assert consistency(leading_mech, broken) is None
    # claims decide consistency, not the true state
    all_h = {a: claims_message(leading_mech, a, "H", t.evidence, claim="H") for a, t in truthful.items()}
    assert consistency(leading_mech, all_h) == "H"
    assert outcome(leading_mech, all_h) == "grant_a"


def test_truthful_transfers_all_zero(perturbed_mech, leading_mech, leading_pure_mech):
    for mech in (perturbed_mech, leading_mech, leading_pure_mech):
        for state in mech.scenario.states:
            table = transfers(mech, truthful_transcript(mech, state))
            for agent, items in table.items():
                assert items["total"] == 0
                assert all(items[k] == 0 for k in ("evidence_incentive", "scoring", "crosscheck", "refutation_fine", "bet"))


def test_bet_transfer_expectation_is_minus_eps_fifth(leading_mech):
    # consensus on H with B claiming M activates the (M, H) bet on A's evidence
    scn = leading_mech.scenario
    eps = leading_mech.scaling.eps
    bet = leading_mech.bets[("M", "H")]
    expectation = F(0)
    for coll, prob in scn.dist("A", "H").items():
        transcript = {
            "A": claims_message(leading_mech, "A", "H", coll, claim="H"),
            "B": claims_message(leading_mech, "B", "H", EMPTY, claim="M"),
        }
        table = transfers(leading_mech, transcript)
        assert table["B"]["bet"] == eps * bet.value(coll)
        expectation += prob * table["B"]["bet"]
    assert expectation == -eps / 5


def test_inconsistent_transcript_evidence_incentive(leading_mech):
    scn = leading_mech.scenario
    transcript = {
        "A": claims_message(leading_mech, "A", "H", TOP, claim="H"),
        "B": claims_message(leading_mech, "B", "M", EMPTY, claim="M"),
    }
    # B's claims about A differ from A's self-claims: no consistent state
    assert consistency(leading_mech, transcript) is None
    table = transfers(leading_mech, transcript)
    assert table["A"]["evidence_incentive"] == leading_mech.scaling.eps * 2
    assert table["B"]["evidence_incentive"] == 0  # empty collection


def test_own_bet_gives_no_evidence_windfall(leading_mech):
    transcript = {
        "A": claims_message(leading_mech, "A", "H", TOP, claim="H"),
        "B": claims_message(leading_mech, "B", "H", EMPTY, claim="M"),
    }
    table = transfers(leading_mech, transcript)
    # B's own bet is active: A collects the evidence incentive, B does not
    assert table["A"]["evidence_incentive"] == leading_mech.scaling.eps * 2
    assert table["B"]["evidence_incentive"] == 0
    assert table["B"]["bet"] != 0


def test_self_bet_is_void(leading_mech):
    transcript = {
        "A": claims_message(leading_mech, "A", "H", LOW, claim="M"),
        "B": claims_message(leading_mech, "B", "H", EMPTY, claim="H"),
    }
    table = transfers(leading_mech, transcript)
    assert table["A"]["bet"] == 0
    assert all(items["evidence_incentive"] == 0 for items in table.values())


def test_crosscheck_fine(leading_mech):
    scn = leading_mech.scenario
    transcript = {
        "A": Message(scn.dist("A", "M"), scn.dist("B", "H"), TOP, "H"),
        "B": Message(scn.dist("B", "H"), scn.dist("A", "H"), EMPTY, "H"),
    }
    table = transfers(leading_mech, transcript)
    assert table["A"]["crosscheck"] == -leading_mech.scaling.tau_low
    assert table["B"]["crosscheck"] == 0


def test_refutation_fine_on_perturbed(perturbed_mech):
    # consensus on M while A presents the witness collection that refutes M
    transcript = {
        "A": claims_message(perturbed_mech, "A", "M", RICH, claim="M"),
        "B": claims_message(perturbed_mech, "B", "M", EMPTY, claim="M"),
    }
    table = transfers(perturbed_mech, transcript)
    assert table["B"]["refutation_fine"] == -perturbed_mech.scaling.tau_high
    assert table["A"]["refutation_fine"] == 0
    # the refuter's own evidence reward is on
    assert table["A"]["evidence_incentive"] == perturbed_mech.scaling.eps * 3


def test_scoring_propriety(perturbed_mech):
    scn = perturbed_mech.scenario
    tau_low = perturbed_mech.scaling.tau_low
    for state in scn.states:
        for agent in scn.agents:
            subject = scn.right_neighbor(agent)
            truth = scn.dist(subject, state)

            def expected_score(report):
                total = F(0)
                for coll, prob in truth.items():
                    total += prob * (2 * report.prob(coll) - sum((p * p for _, p in report.items()), F(0)))
                return tau_low * total

            scores = {report: expected_score(report) for report in scn.alphabet(subject)}
            best = max(scores.values())
            winners = [r for r, v in scores.items() if v == best]
            assert winners == [truth]


def test_pure_challenge_payment(leading_pure_mech):
    scn = leading_pure_mech.scenario
    # assignment rows follow canonical support order (smaller collections first)
    identity = Challenge(
        target_state="H",
        source_state="M",
        assignments=(
            ("A", ((LOW, LOW), (TOP, TOP))),
            ("B", ((EMPTY, EMPTY),)),
        ),
    )
    two_point = leading_pure_mech.bets[(identity, "H")]
    assert two_point.agent == "A"
    eps = leading_pure_mech.scaling.eps
    # consensus on H, B challenges with the identity plan at M
    expectation = F(0)
    for coll, prob in scn.dist("A", "M").items():
        transcript = {
            "A": claims_message(leading_pure_mech, "A", "H", coll),
            "B": claims_message(leading_pure_mech, "B", "H", EMPTY, claim=identity),
        }
        table = transfers(leading_pure_mech, transcript)
        assert table["B"]["bet"] == eps * two_point.value(coll)
        expectation += prob * table["B"]["bet"]
    # profitable when the deception is real (played at true state M)
    assert expectation > 0
    # and loss-making against truthful play at H
    against_truth = sum(
        (prob * two_point.value(coll) for coll, prob in scn.dist("A", "H").items()), F(0)
    )
    assert against_truth < 0


def test_pure_profile_count_leading():
    assert pure_profile_count(fixtures.leading_example()) == 839808


def test_mechanism_report_shape(perturbed_mech, leading_pure_mech):
    report = mechanism_report(perturbed_mech)
    assert report["variant"] == "bne"
    assert report["challenger_table"] == {"L->H": "A", "L->M": "A", "M->H": "A"}
    assert set(report["scaling"]["slack"]) >= {"score_gap", "eps_dominance", "one_dollar"}
    pure_report = mechanism_report(leading_pure_mech)
    assert pure_report["identifier_count"] == 839808
    assert pure_report["valid_challenges"] == len(leading_pure_mech.bets)


# -- compiled kernel ----------------------------------------------------------


def _random_transcripts(mech, count, seed=0):
    scn = mech.scenario
    rng = random.Random(seed)
    games = [BayesianGame(scn, mech, state, 0) for state in scn.states]
    for _ in range(count):
        g = rng.choice(games)
        yield {a: rng.choice(g.actions[(a, rng.choice(g.types[a]))]) for a in scn.agents}


def test_rescaled_copy_gets_its_own_kernel():
    scn = fixtures.perturbed_example()
    mech = build_bne_mechanism(scn)
    assert claim_audits(scn, mech, profile_indices=[0]).passed  # compiles mech's kernel
    lowered = mech.with_scaling(tau_high=0)
    suite = claim_audits(scn, lowered, profile_indices=[0])
    assert not {r.name: r for r in suite.results}["refutation_escape"].passed
    refuted = {
        "A": claims_message(lowered, "A", "M", RICH, claim="M"),
        "B": claims_message(lowered, "B", "M", EMPTY, claim="M"),
    }
    for transcript in [refuted, *_random_transcripts(lowered, 300)]:
        assert transfers(lowered, transcript) == game_reference.transfers(lowered, transcript)
    assert transfers(lowered, refuted)["B"]["refutation_fine"] == 0
    assert transfers(mech, refuted)["B"]["refutation_fine"] == -mech.scaling.tau_high
    # fields cannot be reassigned under a compiled kernel
    with pytest.raises(dataclasses.FrozenInstanceError):
        mech.scaling = lowered.scaling


def test_bet_table_is_read_only_and_a_copy_with_other_bets_gets_its_own_kernel():
    scn = fixtures.perturbed_example()
    mech = build_bne_mechanism(scn)
    mech.kernel()
    with pytest.raises(TypeError):
        del mech.bets[("L", "H")]
    with pytest.raises(TypeError):
        mech.bets[("L", "H")] = mech.bets[("M", "H")]
    fewer = dataclasses.replace(mech, bets={key: bet for key, bet in mech.bets.items() if key != ("L", "H")})
    assert ("L", "H") in mech.bets and fewer.claim_bet("L", "H") is None
    # B whistles L against a consensus on H: the bet on A's evidence pays only in mech
    whistle = {"A": claims_message(mech, "A", "H", LOW), "B": claims_message(mech, "B", "H", EMPTY, claim="L")}
    assert transfers(mech, whistle)["B"] != transfers(fewer, whistle)["B"]
    for transcript in [whistle, *_random_transcripts(fewer, 300)]:
        assert transfers(fewer, transcript) == game_reference.transfers(fewer, transcript)


def test_messages_outside_the_space_raise_and_leave_the_tables_alone():
    scn = fixtures.perturbed_example()
    mech = build_bne_mechanism(scn)
    kernel = mech.kernel()

    def tables():
        return kernel.D, kernel.tau_low, kernel.tau_high, repr(kernel.score), repr(kernel.incentive), repr(kernel._claims)

    before = tables()
    # a claim about A outside A's alphabet, with a denominator (7) no table
    # entry has, on either claim; B presenting an article it never holds
    odd = Distribution({TOP: F(1, 7), LOW: F(6, 7)})
    truthful = truthful_transcript(mech, "M")
    outside = [
        ("A", dataclasses.replace(truthful["A"], p_own=odd)),
        ("B", dataclasses.replace(truthful["B"], p_right=odd)),
        ("B", dataclasses.replace(truthful["B"], evidence=frozenset({"mh"}))),
    ]
    games = [BayesianGame(scn, mech, state, idx) for state in scn.states for idx in range(len(scn.utility_profiles))]
    for agent, msg in outside:
        for rules in (transfers, outcome, consistency):
            with pytest.raises(MessageOutsideSpace):
                rules(mech, {**truthful, agent: msg})
        for g in games:
            with pytest.raises(MessageOutsideSpace):
                expected_utility(g, agent, g.types[agent][0], msg, truthful_profile(g))
    assert mech.kernel() is kernel
    assert tables() == before
    # the direct mechanism's space holds declared states only
    g = BayesianGame(scn, DirectMechanism(scn), "M", 0)
    with pytest.raises(MessageOutsideSpace, match="'nowhere'"):
        expected_utility(g, "A", g.types["A"][0], DirectMessage("nowhere", frozenset()), truthful_profile(g))


def test_unhashable_message_parts_are_outside_the_space():
    # set evidence, a list claim or a list state report: no message of either
    # kernel's space, refused as such rather than with a TypeError
    scn = fixtures.perturbed_example()
    mech = build_bne_mechanism(scn)
    truthful = truthful_transcript(mech, "M")
    direct = DirectMechanism(scn)
    cases = [
        (mech, "A", dataclasses.replace(truthful["A"], evidence=set(truthful["A"].evidence))),
        (mech, "B", dataclasses.replace(truthful["B"], claim=["M"])),
        (direct, "A", DirectMessage(["M"], frozenset())),
        (direct, "A", DirectMessage("M", set())),
    ]
    for mech_, agent, msg in cases:
        i = scn.agents.index(agent)
        with pytest.raises(MessageOutsideSpace, match=f"outside the message space of agent '{agent}'"):
            mech_.kernel().code(i, msg)
        if mech_ is mech:
            with pytest.raises(MessageOutsideSpace):
                transfers(mech, {**truthful, agent: msg})
        g = BayesianGame(scn, mech_, "M", 0)
        with pytest.raises(MessageOutsideSpace):
            expected_utility(g, agent, g.types[agent][0], msg, truthful_profile(g))


def test_claims_outside_the_claim_slot_raise_and_take_no_slot():
    # the slot holds a state or no claim (bne), no challenge or a challenge
    # (pure); any other claim is refused, by the kernel and by the transfer
    # rules, and gets no slot of its own
    cases = [
        (build_pure_mechanism(fixtures.leading_example()), ("zz", "M", 7)),
        (build_bne_mechanism(fixtures.perturbed_example()), ("zz", 42, ("x",))),
    ]
    for mech, refused in cases:
        kernel = mech.kernel()
        truthful = truthful_transcript(mech, mech.scenario.states[0])
        slots = list(kernel._slot_claims)
        for claim in refused:
            for i, agent in enumerate(mech.scenario.agents):
                msg = dataclasses.replace(truthful[agent], claim=claim)
                with pytest.raises(MessageOutsideSpace, match=f"outside the message space of agent '{agent}'"):
                    kernel.code(i, msg)
                with pytest.raises(MessageOutsideSpace):
                    transfers(mech, {**truthful, agent: msg})
        assert kernel._slot_claims == slots == list(mech.claims())


def test_the_claim_menu_is_built_once_and_each_kernel_copies_it():
    mech = build_pure_mechanism(fixtures.leading_example())
    menu = mech.claims()
    assert mech.claims() is menu and len(menu) == 35
    assert menu == (None, *sorted((claim for claim, _ in mech.bets), key=mechanism.challenge_key))
    # an invalid challenge acts like no challenge: the kernel gives it a slot
    # of its own list, and the mechanism's menu stays as it was
    stray = Challenge(mech.scenario.states[0], mech.scenario.states[0], menu[1].assignments)
    truthful = truthful_transcript(mech, "M")
    with_stray = {**truthful, "A": dataclasses.replace(truthful["A"], claim=stray)}
    assert transfers(mech, with_stray) == transfers(mech, truthful)
    assert mech.kernel()._slot_claims == [*menu, stray]
    assert mech.claims() is menu and len(menu) == 35
    # under bne the menu is the states, and no claim is the one inert claim
    bne = build_bne_mechanism(fixtures.perturbed_example())
    assert bne.claims() is bne.scenario.states
    kernel = bne.kernel()
    kernel.code(0, bne.truthful_message(bne.scenario.agents[0], "M", EMPTY))
    kernel.code(0, dataclasses.replace(bne.truthful_message(bne.scenario.agents[0], "M", EMPTY), claim=None))
    assert kernel._slot_claims == [*bne.scenario.states, None]


@pytest.mark.parametrize("bits", [4, 6])
def test_codes_beyond_the_key_field_raise_instead_of_aliasing(bits, monkeypatch):
    # with a small KEY_BITS, exactly the codes at or above 2**bits are refused:
    # menus holding one, messages coded to one (the slot of no claim, which
    # the bne menu does not list, lies past every menu's), and a direct kernel
    # whose space holds one
    scn = fixtures.perturbed_example()
    mech = build_bne_mechanism(scn)
    wide = mechanism.Kernel(mech)
    messages = [
        (i, dataclasses.replace(mech.truthful_message(agent, state, coll), claim=claim))
        for i, agent in enumerate(scn.agents)
        for coll in scn.presentable(agent)
        for state in scn.states
        for claim in (state, None)
    ]
    codes = [wide.code(i, msg) for i, msg in messages]
    types = [
        (i, coll) for i, agent in enumerate(scn.agents) for state in scn.states for coll in scn.support(agent, state)
    ]
    tops = [max(wide.actions(i, coll).codes) for i, coll in types]
    monkeypatch.setattr(mechanism, "KEY_BITS", bits)
    narrow = mechanism.Kernel(mech)
    refused = 0
    for (i, coll), top in zip(types, tops):
        if top >= 1 << bits:
            refused += 1
            with pytest.raises(OverflowError, match=f"does not fit in {bits} bits"):
                narrow.actions(i, coll)
        else:
            assert narrow.actions(i, coll).codes == wide.actions(i, coll).codes
    for (i, msg), code in zip(messages, codes):
        if code >= 1 << bits:
            refused += 1
            with pytest.raises(OverflowError):
                narrow.code(i, msg)
        else:
            assert narrow.code(i, msg) == code
    assert 0 < refused < len(types) + len(messages)
    direct_codes = max(len(scn.states) * len(scn.presentable(agent)) for agent in scn.agents)
    if direct_codes > 1 << bits:
        with pytest.raises(OverflowError):
            DirectKernel(scn)
    else:
        DirectKernel(scn)


def test_unknown_article_raises():
    scn = fixtures.perturbed_example()
    mech = build_bne_mechanism(scn)
    transcript = truthful_transcript(mech, "M")
    transcript["A"] = claims_message(mech, "A", "M", {"lmh", "zz"}, claim="M")
    for rules in (transfers, game_reference.transfers):
        with pytest.raises(ScenarioError, match="unknown article ids"):
            rules(mech, transcript)
