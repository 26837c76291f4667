import math
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from evimech import fixtures, generators, mechanism
from evimech import game as game_mod
from evimech.conditions import check_stochastic_measurability
from evimech.deception import TransportPlan
from evimech.game import (
    BayesianGame,
    DirectMechanism,
    DirectMessage,
    InvalidProfile,
    NotPerfect,
    SearchBudget,
    canonical_perfect_plans,
    claim_audits,
    deception_closure_audit,
    expected_utility,
    search_equilibria,
    truthful_profile,
    verify_bne,
)
from evimech.mechanism import (
    Message,
    MessageOutsideSpace,
    assemble_bne_mechanism,
    build_bne_mechanism,
    build_pure_mechanism,
)
from evimech.scenario import ScenarioError

F = Fraction
RICH = frozenset({"h", "mh", "lmh"})
TOP = frozenset({"mh", "lmh"})
LOW = frozenset({"lmh"})
EMPTY = frozenset()

PREF = 1  # index of the grant-preference utility profile


@pytest.fixture(scope="module")
def perturbed():
    return fixtures.perturbed_example()


@pytest.fixture(scope="module")
def perturbed_mech(perturbed):
    return build_bne_mechanism(perturbed)


@pytest.fixture(scope="module")
def leading():
    return fixtures.leading_example()


@pytest.fixture(scope="module")
def leading_mech(leading):
    return assemble_bne_mechanism(leading)


def test_truthful_expected_utility(perturbed, perturbed_mech):
    game = BayesianGame(perturbed, perturbed_mech, "H", PREF)
    profile = truthful_profile(game)
    for coll in game.types["A"]:
        msg = perturbed_mech.truthful_message("A", "H", coll)
        value = expected_utility(game, "A", coll, msg, profile)
        assert value == perturbed.utility(PREF, "A", "grant_a", "H")


def test_bet_deviation_costs_eps_fifth(leading, leading_mech):
    game = BayesianGame(leading, leading_mech, "H", 0)
    profile = truthful_profile(game)
    eps = leading_mech.scaling.eps
    base = leading_mech.truthful_message("B", "H", EMPTY)
    deviant = Message(base.p_own, base.p_right, base.evidence, claim="M")
    truthful_value = expected_utility(game, "B", EMPTY, base, profile)
    deviant_value = expected_utility(game, "B", EMPTY, deviant, profile)
    assert deviant_value - truthful_value == -eps / 5


def test_refutation_term_in_expected_utility(perturbed, perturbed_mech):
    # consensus on the refutable lie M at true state H: B's utility carries the
    # tau_high fine with probability 1/10
    game = BayesianGame(perturbed, perturbed_mech, "H", 0)
    scn = perturbed
    profile = {"A": {}, "B": {}}
    for coll in game.types["A"]:
        msg = Message(scn.dist("A", "M"), scn.dist("B", "M"), coll, claim="M")
        profile["A"][coll] = {msg: F(1)}
    b_msg = Message(scn.dist("B", "M"), scn.dist("A", "M"), EMPTY, claim="M")
    profile["B"][EMPTY] = {b_msg: F(1)}
    value = expected_utility(game, "B", EMPTY, b_msg, profile)
    tau_high = perturbed_mech.scaling.tau_high
    assert value == perturbed.utility(0, "B", "grant_b", "H") - tau_high * F(1, 10)


def test_truthful_is_bne_on_perturbed(perturbed, perturbed_mech):
    for profile_idx in range(len(perturbed.utility_profiles)):
        for state in perturbed.states:
            game = BayesianGame(perturbed, perturbed_mech, state, profile_idx)
            report = verify_bne(game, truthful_profile(game))
            assert report.is_bne, (state, profile_idx, report.witness)
            assert report.on_path_outcomes == {perturbed.scf[state]: F(1)}
            assert report.transfers_zero


def test_truthful_is_bne_on_leading_pure(leading):
    mech = build_pure_mechanism(leading)
    for profile_idx in range(len(leading.utility_profiles)):
        for state in leading.states:
            game = BayesianGame(leading, mech, state, profile_idx)
            report = verify_bne(game, truthful_profile(game))
            assert report.is_bne, (state, profile_idx, report.witness)
            assert report.on_path_outcomes == {leading.scf[state]: F(1)}
            assert report.transfers_zero


def test_refutable_lie_consensus_is_not_bne(perturbed, perturbed_mech):
    scn = perturbed
    game = BayesianGame(scn, perturbed_mech, "H", PREF)
    profile = {"A": {}, "B": {}}
    for coll in game.types["A"]:
        profile["A"][coll] = {Message(scn.dist("A", "M"), scn.dist("B", "M"), coll, "M"): F(1)}
    profile["B"][EMPTY] = {Message(scn.dist("B", "M"), scn.dist("A", "M"), EMPTY, "M"): F(1)}
    report = verify_bne(game, profile)
    assert not report.is_bne
    agent, _, _, gain = report.witness
    assert gain > 0


def test_single_action_game_is_trivially_bne():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s",),
        articles=(),
        dists={("A", "s"): {EMPTY: F(1)}, ("B", "s"): {EMPTY: F(1)}},
        scf={"s": "o"},
        outcomes=("o",),
    )
    game = BayesianGame(scn, DirectMechanism(scn), "s", 0)
    report = verify_bne(game, truthful_profile(game))
    assert report.is_bne and report.stamp == "EXHAUSTIVE"


def test_expected_utility_linear_in_mixture(leading, leading_mech):
    game = BayesianGame(leading, leading_mech, "H", 0)
    profile = truthful_profile(game)
    coll = TOP
    actions = game.actions[("A", coll)][:3]
    weights = [F(1, 2), F(1, 3), F(1, 6)]
    mixed_value = sum(
        (w * expected_utility(game, "A", coll, a, profile) for w, a in zip(weights, actions)),
        F(0),
    )
    profile_mixed = {a: dict(p) for a, p in profile.items()}
    profile_mixed["A"] = dict(profile["A"])
    profile_mixed["A"][coll] = dict(zip(actions, weights))
    total = F(0)
    for action, w in profile_mixed["A"][coll].items():
        total += w * expected_utility(game, "A", coll, action, profile_mixed)
    assert total == mixed_value


# -- necessity replay ---------------------------------------------------------


def test_closure_audit_certifies_h_to_m(leading):
    plans = canonical_perfect_plans(leading, "H", "M")
    assert plans is not None
    report = deception_closure_audit(leading, DirectMechanism(leading), "H", plans, profile_idx=0)
    assert report.certified
    assert report.on_path_outcomes == {"grant_b": F(1)}
    assert report.target_state == "M"


def test_closure_audit_identity(leading):
    plans = canonical_perfect_plans(leading, "M", "M")
    report = deception_closure_audit(leading, DirectMechanism(leading), "M", plans, profile_idx=0)
    assert report.certified
    assert report.on_path_outcomes == {"grant_b": F(1)}


def _valid_plans(leading):
    plans = canonical_perfect_plans(leading, "H", "M")
    assert plans is not None and deception_closure_audit(leading, DirectMechanism(leading), "H", plans).certified
    return plans


def test_closure_audit_rejects_plans_that_disagree_on_the_target(leading):
    plans = _valid_plans(leading)
    plans["B"] = replace(plans["B"], target_state="L")
    with pytest.raises(NotPerfect, match="disagree on the target"):
        deception_closure_audit(leading, DirectMechanism(leading), "H", plans)


@pytest.mark.parametrize(
    "broken",
    [
        lambda plans: {"A": plans["A"]},  # no plan for B
        lambda plans: {**plans, "B": replace(plans["A"])},  # A's plan filed under B
        lambda plans: {**plans, "B": replace(plans["B"], source_state="M")},  # another source
    ],
)
def test_closure_audit_rejects_missing_or_mismatched_plans(leading, broken):
    with pytest.raises(NotPerfect, match="missing or mismatched plan for B"):
        deception_closure_audit(leading, DirectMechanism(leading), "H", broken(_valid_plans(leading)))


def test_closure_audit_rejects_a_plan_for_an_agent_the_scenario_lacks(leading):
    # the extra plan was never read, and the audit certified the replay
    plans = {**_valid_plans(leading), "Z": _valid_plans(leading)["A"]}
    with pytest.raises(NotPerfect, match="'Z', which is not an agent"):
        deception_closure_audit(leading, DirectMechanism(leading), "H", plans)


def test_closure_audit_rejects_a_plan_failing_its_checks(leading):
    plans = _valid_plans(leading)
    # the right target marginal, but the mass is routed out of a collection A
    # does not hold at H
    plan = plans["A"]
    bogus = tuple((frozenset({"forged"}), dst, f) for _, dst, f in plan.flows)
    plans["A"] = replace(plan, flows=bogus)
    assert plan.check(leading) == [] and plans["A"].check(leading)
    with pytest.raises(NotPerfect, match="fails its own consistency checks"):
        deception_closure_audit(leading, DirectMechanism(leading), "H", plans)


def test_closure_audit_rejects_imperfect(perturbed):
    # no perfect deception M -> H exists; a hand-made imperfect plan is rejected
    assert canonical_perfect_plans(perturbed, "M", "H") is None
    dist = perturbed.dist("A", "M")
    bogus = {
        "A": TransportPlan("A", "M", "H", tuple((c, c, dist.prob(c)) for c in dist.support())),
        "B": TransportPlan("B", "M", "H", ((EMPTY, EMPTY, F(1)),)),
    }
    with pytest.raises(NotPerfect):
        deception_closure_audit(perturbed, DirectMechanism(perturbed), "M", bogus)


# -- search -------------------------------------------------------------------


def test_search_micro_exhaustive_truth_only():
    scn = fixtures.micro_example()
    mech = build_bne_mechanism(scn)
    for profile_idx in range(len(scn.utility_profiles)):
        for state in scn.states:
            game = BayesianGame(scn, mech, state, profile_idx)
            results, flags = search_equilibria(game, SearchBudget(pure_cap=100000, plan_cap=64, seeds=(0, 1)))
            assert flags["pure_enumeration"] == "EXHAUSTIVE"
            for item in results:
                assert item["report"].on_path_outcomes == {scn.scf[state]: F(1)}
                assert item["report"].transfers_zero


def test_search_family_finds_deception_equilibrium(leading):
    game = BayesianGame(leading, DirectMechanism(leading), "H", 0)
    results, flags = search_equilibria(game, SearchBudget(pure_cap=0, plan_cap=128, seeds=()))
    outcomes = [item["report"].on_path_outcomes for item in results]
    assert {"grant_b": F(1)} in outcomes  # the H -> M deception equilibrium
    assert flags["pure_enumeration"].startswith("BUDGET_EXCEEDED")


def test_search_empty_budget():
    scn = fixtures.micro_example()
    mech = build_bne_mechanism(scn)
    game = BayesianGame(scn, mech, "s1", 0)
    results, flags = search_equilibria(game, SearchBudget(pure_cap=0, plan_cap=0, seeds=()))
    assert results == []
    assert flags["pure_enumeration"].startswith("BUDGET_EXCEEDED")
    assert flags["closure_family"].startswith("BUDGET_EXCEEDED")
    # no dynamics trial ran: no heuristic pass
    assert flags["dynamics"] == "NOT_RUN"


def test_an_exhaustive_enumeration_leaves_the_canonical_plans_under_the_plan_cap():
    # an exhaustive phase (a) skips the 256 pure deception profiles, so only
    # the canonical plans, one per state at most, count against plan_cap
    scn = generators.random_scenario(18)
    game = BayesianGame(scn, DirectMechanism(scn), "s0", 0)
    results, flags = search_equilibria(game)
    assert flags == {"pure_enumeration": "EXHAUSTIVE", "closure_family": "EXHAUSTIVE", "dynamics": "SUBSUMED"}
    # the one canonical plan (s0 -> s0) is pure, a hit phase (a) already has
    unplanned, _ = search_equilibria(game, SearchBudget(plan_cap=0))
    assert len(results) == 4096 and results == unplanned
    _, flags = search_equilibria(game, SearchBudget(plan_cap=len(scn.states) - 1))
    assert flags["closure_family"] == "BUDGET_EXCEEDED(256)"


def _exhaustive_only_games():
    micro = fixtures.micro_example()
    leading = fixtures.leading_example()
    three = generators.random_scenario(13, max_states=3)
    return [
        BayesianGame(micro, build_bne_mechanism(micro), "s1", 1),
        BayesianGame(leading, DirectMechanism(leading), "H", PREF),
        BayesianGame(leading, assemble_bne_mechanism(leading), "M", PREF),
        BayesianGame(three, DirectMechanism(three), three.states[0], len(three.utility_profiles) - 1),
        BayesianGame(three, DirectMechanism(three), three.states[0], 0),
    ]


def test_direct_mechanism_keeps_its_scenario_with_its_kernel():
    leading, perturbed = fixtures.leading_example(), fixtures.perturbed_example()
    direct = DirectMechanism(leading)
    kernel = direct.kernel()
    with pytest.raises(FrozenInstanceError):
        direct.scenario = perturbed
    assert direct.kernel() is kernel and kernel.scenario is leading
    other = replace(direct, scenario=perturbed)
    assert other.kernel() is not kernel and other.kernel().scenario is perturbed


def test_a_game_refuses_a_mechanism_built_for_another_scenario(perturbed, perturbed_mech):
    # leading fails NPD; with perturbed's menus and payoffs, truthful play on
    # leading's types verified as a single-outcome BNE at every state
    leading = fixtures.leading_example()
    for mech in (perturbed_mech, DirectMechanism(perturbed)):
        for state in leading.states:
            with pytest.raises(ScenarioError, match="built for another scenario"):
                BayesianGame(leading, mech, state, 0)
    game = BayesianGame(replace(perturbed), perturbed_mech, "H", PREF)
    assert verify_bne(game, truthful_profile(game)).is_bne


def test_pure_enumeration_values_each_menu_once_per_opponent_strategy(monkeypatch):
    # the enumeration walks best-response tables: at most one opponent sweep
    # per agent and opponents' pure strategy; its hits are certified by those
    # tables, with no verification and one joint-play enumeration each
    verified = []
    swept = []
    joint = []
    real_verify = game_mod._verify_play
    real_sweep = BayesianGame._realizations

    def counting_verify(game, play):
        verified.append(1)
        return real_verify(game, play)

    def counting_sweep(self, agent, profile):
        (swept if agent is not None else joint).append(1)
        return real_sweep(self, agent, profile)

    monkeypatch.setattr(game_mod, "_verify_play", counting_verify)
    monkeypatch.setattr(BayesianGame, "_realizations", counting_sweep)
    budget = SearchBudget(pure_cap=20000, plan_cap=0, seeds=())
    games = _exhaustive_only_games()
    assert any(len(g.scenario.agents) == 3 for g in games)
    for game in games:
        swept.clear()
        joint.clear()
        results, flags = search_equilibria(game, budget)
        assert flags["pure_enumeration"] == "EXHAUSTIVE"
        assert results and all(item["stamp"] == "EXHAUSTIVE" for item in results)
        assert verified == [] and len(joint) == len(results)
        counts = [math.prod(len(game.actions[(a, c)]) for c in game.types[a]) for a in game.scenario.agents]
        bound = sum(math.prod(counts[:i] + counts[i + 1 :]) for i in range(len(counts)))
        assert 0 < len(swept) <= bound < math.prod(counts)
        # the exhaustive enumeration subsumes the dynamics: they sweep nothing
        enumeration = len(swept)
        swept.clear()
        with_dynamics = search_equilibria(game, replace(budget, seeds=(0, 1, 2)))
        assert with_dynamics[1]["dynamics"] == "SUBSUMED"
        assert verified == [] and len(swept) == enumeration
        assert [item["profile"] for item in with_dynamics[0]] == [item["profile"] for item in results]


def test_over_cap_search_verifies_only_the_canonical_plans(monkeypatch):
    # every pure profile, canonical plans included, is judged by the
    # best-response table: the verification (`verify_bne` of a coded play)
    # runs once per distinct mixed canonical plan and on nothing else
    verified = []
    real_verify = game_mod._verify_play

    def counting_verify(game, play):
        verified.append(play)
        return real_verify(game, play)

    monkeypatch.setattr(game_mod, "_verify_play", counting_verify)
    checked = mixed = 0
    hits = []  # the pure ones
    for game in _exhaustive_only_games():
        scn = game.scenario
        verified.clear()
        results, flags = search_equilibria(game, SearchBudget(pure_cap=0))
        assert flags["closure_family"] == "EXHAUSTIVE" and flags["dynamics"] == "HEURISTIC"
        canonical = {}  # play -> whether it is mixed
        for target in scn.states:
            plans = canonical_perfect_plans(scn, game.state, target)
            if plans is not None:
                play = game_mod.deception_play(game, target, {agent: plan.flows for agent, plan in plans.items()})
                canonical.setdefault(play, play.strategies is None)
        assert verified == [play for play, is_mixed in canonical.items() if is_mixed]
        checked += len(canonical)
        mixed += sum(canonical.values())
        hits += [item for item in results if game_mod.coded_play(game, item["profile"]).strategies is not None]
    assert checked >= 5 and len(hits) >= 20 and 1 <= mixed < checked
    assert {item["stamp"] for item in hits} == {"CLOSURE_FAMILY", "HEURISTIC"}


def test_search_lists_each_profile_once():
    # profiles are told apart by their message codes and exact weights, not
    # by repr: equal evidence sets built in different orders can print
    # differently, so a canonical plan's hit could come back as a pure
    # deception profile's (under some hash seeds)
    scn = fixtures.pure_deception_example()
    game = BayesianGame(scn, DirectMechanism(scn), "H", 0)
    results, _ = search_equilibria(game, SearchBudget(pure_cap=0))
    profiles = [item["profile"] for item in results]
    assert len(profiles) > 100
    assert all(profile not in profiles[:k] for k, profile in enumerate(profiles))


def test_a_converged_dynamics_end_point_costs_no_sweep(monkeypatch):
    # the end point's certification looks up the sets its last round looked
    # up, in the memoized table: no opponent sweep
    lookups = []  # (strategies, opponent sweeps the lookup made)
    sweeps = []
    real_table = game_mod._best_response_table
    real_sweep = BayesianGame._realizations

    def counting_sweep(self, agent, play):
        sweeps.append(agent)
        return real_sweep(self, agent, play)

    def recording_table(game):
        best_responses = real_table(game)

        def recorded(i, strategies):
            before = len(sweeps)
            sets = best_responses(i, strategies)
            lookups.append((tuple(strategies), len(sweeps) - before))
            return sets

        return recorded

    monkeypatch.setattr(BayesianGame, "_realizations", counting_sweep)
    monkeypatch.setattr(game_mod, "_best_response_table", recording_table)
    converged = 0
    for game in _exhaustive_only_games():
        for seed in range(4):
            lookups.clear()
            search_equilibria(game, SearchBudget(pure_cap=0, plan_cap=0, seeds=(seed,)))
            n = len(game.scenario.agents)
            # the last round moved no type: its lookups and the end point's
            # are all at the end point
            if len({strategies for strategies, _ in lookups[-2 * n :]}) == 1:
                converged += 1
                assert [swept for _, swept in lookups[-n:]] == [0] * n
    assert converged >= 10


# -- claim audits -------------------------------------------------------------


def test_claim_audits_pass_on_perturbed(perturbed, perturbed_mech):
    suite = claim_audits(perturbed, perturbed_mech)
    assert suite.passed, [(r.name, r.details) for r in suite.results if not r.passed]
    names = {r.name for r in suite.results}
    assert names == {
        "scoring_dominance",
        "crosscheck_consistency",
        "refutation_escape",
        "whistle_profit",
        "zero_on_truth",
    }


def test_claim_audits_negative_control(perturbed, perturbed_mech):
    lowered = perturbed_mech.with_scaling(tau_high=F(0))
    suite = claim_audits(perturbed, lowered, profile_indices=[0])
    by_name = {r.name: r for r in suite.results}
    assert not by_name["refutation_escape"].passed
    assert not suite.passed


def test_zero_on_truth_checks_every_pure_bet():
    scn = fixtures.micro_example()
    mech = build_pure_mechanism(scn)
    zero_on_truth = claim_audits(scn, mech, profile_indices=[0]).results[-1]
    assert zero_on_truth.passed
    assert zero_on_truth.details["losing_bets_checked"] == len(mech.bets) > 0
    # a two-point bet with both entries positive cannot lose against the truth
    (challenge, state), bet = next(iter(mech.bets.items()))
    mech = replace(mech, bets={**mech.bets, (challenge, state): replace(bet, gamma=-bet.gamma)})
    zero_on_truth = claim_audits(scn, mech, profile_indices=[0]).results[-1]
    assert not zero_on_truth.passed
    assert (state, challenge, "bet against truth does not lose") in zero_on_truth.details["failures"]


def test_claim_audits_vacuous_on_single_state():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s",),
        articles=(),
        dists={("A", "s"): {EMPTY: F(1)}, ("B", "s"): {EMPTY: F(1)}},
        scf={"s": "o"},
        outcomes=("o",),
    )
    mech = build_bne_mechanism(scn)
    suite = claim_audits(scn, mech)
    assert suite.passed


def test_compose_with_truthful_weights(leading, leading_mech):
    plans = canonical_perfect_plans(leading, "H", "M")
    game = BayesianGame(leading, leading_mech, "H", 0)
    flows = {agent: plan.flows for agent, plan in plans.items()}
    profile = game_mod.decode_play(game, game_mod.deception_play(game, "M", flows))
    mixture = profile["A"][TOP]
    assert sum(mixture.values(), F(0)) == 1
    weights = sorted(mixture.values())
    assert weights == [F(1, 3), F(2, 3)]


# -- strategy profiles ----------------------------------------------------------


def test_a_profile_naming_an_agent_or_type_the_game_lacks_is_refused(perturbed, perturbed_mech):
    # the extra entry was never read, and the truthful profile around it
    # verified as an equilibrium
    for mech in (perturbed_mech, DirectMechanism(perturbed)):
        game = BayesianGame(perturbed, mech, "M", 0)
        truthful = truthful_profile(game)
        play = next(iter(truthful["A"].values()))
        with pytest.raises(InvalidProfile, match="names agent 'Z', which the game at M does not have"):
            verify_bne(game, {**truthful, "Z": truthful["A"]})
        with pytest.raises(InvalidProfile, match=r"names type frozenset\(\{'zz'\}\) of A, which the game"):
            verify_bne(game, {**truthful, "A": {**truthful["A"], frozenset({"zz"}): play}})
        coll, mixture = next(iter(truthful["A"].items()))
        with pytest.raises(InvalidProfile, match="Z has no type"):
            expected_utility(game, "Z", coll, next(iter(mixture)), truthful)



def test_a_game_refuses_a_utility_profile_index_out_of_range(perturbed, perturbed_mech):
    # -1 would read the last profile, len(...) would raise a bare IndexError
    profiles = len(perturbed.utility_profiles)
    for idx in (-1, profiles, profiles + 1, "0"):
        for mech in (perturbed_mech, DirectMechanism(perturbed)):
            with pytest.raises(ScenarioError, match="utility profile index"):
                BayesianGame(perturbed, mech, "H", idx)
        with pytest.raises(ScenarioError, match="utility profile index"):
            claim_audits(perturbed, perturbed_mech, profile_indices=[0, idx])
    assert BayesianGame(perturbed, perturbed_mech, "H", profiles - 1).profile_idx == profiles - 1


def test_a_foreign_message_is_outside_the_message_space(perturbed, perturbed_mech):
    # each kernel fails closed on a message of the other kind or no message at all
    for mech, foreign in (
        (perturbed_mech, DirectMessage("H", RICH)),
        (DirectMechanism(perturbed), perturbed_mech.truthful_message("A", "H", RICH)),
    ):
        game = BayesianGame(perturbed, mech, "H", 0)
        for msg in (foreign, "junk"):
            profile = truthful_profile(game)
            profile["A"][RICH] = {msg: F(1)}
            with pytest.raises(MessageOutsideSpace, match="outside the message space of agent 'A'$"):
                verify_bne(game, profile)
        # a message valued on its own need not even be hashable
        for msg in (foreign, "junk", ["junk"]):
            with pytest.raises(MessageOutsideSpace, match="outside the message space of agent 'A'$"):
                expected_utility(game, "A", RICH, msg, truthful_profile(game))


def _h_game(perturbed, perturbed_mech):
    game = BayesianGame(perturbed, perturbed_mech, "H", 0)
    return game, truthful_profile(game)


def test_verify_bne_rejects_a_message_off_the_type_menu(perturbed, perturbed_mech):
    # type {lmh} plays the truthful message of type {h,lmh,mh}, whose evidence it does not hold
    game, profile = _h_game(perturbed, perturbed_mech)
    profile["A"][LOW] = dict(profile["A"][RICH])
    with pytest.raises(InvalidProfile, match="not on its menu"):
        verify_bne(game, profile)
    with pytest.raises(InvalidProfile, match="not on its menu"):
        expected_utility(game, "B", EMPTY, profile["B"][EMPTY].popitem()[0], profile)


def test_expected_utility_rejects_a_type_or_message_the_game_does_not_have(perturbed, perturbed_mech):
    # type {lmh} values the truthful message of type {lmh,mh}, whose evidence
    # it does not hold; {zzz} is no type of A at M
    game = BayesianGame(perturbed, perturbed_mech, "M", 0)
    profile = truthful_profile(game)
    msg = perturbed_mech.truthful_message("A", "M", TOP)
    assert expected_utility(game, "A", TOP, msg, profile) == perturbed.utility(0, "A", perturbed.scf["M"], "M")
    with pytest.raises(InvalidProfile, match="A has no type {lmh} at M with "):
        expected_utility(game, "A", LOW, msg, profile)
    with pytest.raises(InvalidProfile, match="A has no type {zzz} at M with "):
        expected_utility(game, "A", frozenset({"zzz"}), msg, profile)


def test_verify_bne_rejects_weights_that_do_not_sum_to_one(perturbed, perturbed_mech):
    # type {h,lmh,mh} plays its message with weight 1/2: half its mass vanishes
    game, profile = _h_game(perturbed, perturbed_mech)
    ((msg, _),) = profile["A"][RICH].items()
    profile["A"][RICH] = {msg: F(1, 2)}
    with pytest.raises(InvalidProfile, match="summing to 1/2, not 1"):
        verify_bne(game, profile)
    with pytest.raises(InvalidProfile, match="summing to 1/2, not 1"):
        expected_utility(game, "B", EMPTY, perturbed_mech.truthful_message("B", "H", EMPTY), profile)


def test_verify_bne_rejects_a_negative_weight(perturbed, perturbed_mech):
    # weights 3/2 and -1/2 sum to 1 but are no mixture
    game, profile = _h_game(perturbed, perturbed_mech)
    ((msg, _),) = profile["A"][RICH].items()
    other = next(m for m in game.actions[("A", RICH)] if m != msg)
    profile["A"][RICH] = {msg: F(3, 2), other: F(-1, 2)}
    with pytest.raises(InvalidProfile, match="with weight -1/2"):
        verify_bne(game, profile)
    with pytest.raises(InvalidProfile, match="with weight -1/2"):
        expected_utility(game, "B", EMPTY, perturbed_mech.truthful_message("B", "H", EMPTY), profile)


def test_verify_bne_rejects_a_type_without_play(perturbed, perturbed_mech):
    game, profile = _h_game(perturbed, perturbed_mech)
    del profile["A"][LOW]
    with pytest.raises(InvalidProfile, match="type {lmh} of A has weights summing to 0, not 1"):
        verify_bne(game, profile)
    with pytest.raises(InvalidProfile, match="type {} of B has weights summing to 0, not 1"):
        verify_bne(game, {"A": truthful_profile(game)["A"]})


def test_implements_requires_an_equilibrium_yielding_the_outcome(perturbed, perturbed_mech):
    game, profile = _h_game(perturbed, perturbed_mech)
    report = verify_bne(game, profile)
    assert report.implements("grant_a") and not report.implements("grant_b")
    # transfers paid on path do not matter; a clean equilibrium also needs `transfers_zero`
    assert replace(report, transfers_zero=False).implements("grant_a")
    assert not replace(report, is_bne=False).implements("grant_a")
    assert not replace(report, on_path_outcomes={"grant_a": F(1, 2), "grant_b": F(1, 2)}).implements("grant_a")


# -- plays ----------------------------------------------------------------------


def _play_games():
    """Every state's game, at utility profile 0, of the fixtures and of
    `random_scenario(seed, max_states=3)` for seeds 0-59, under the direct
    mechanism and, where SM holds, the bne one (assembled without the NPD gate)."""
    scenarios = [build() for build in fixtures.ALL_FIXTURES.values()]
    scenarios += [generators.random_scenario(seed, max_states=3) for seed in range(60)]
    for scn in scenarios:
        mechs = [DirectMechanism(scn)]
        if check_stochastic_measurability(scn).passed:
            mechs.append(assemble_bne_mechanism(scn))
        for mech in mechs:
            for state in scn.states:
                yield BayesianGame(scn, mech, state, 0)


def test_plays_are_equal_when_every_type_plays_the_same_codes_and_weights():
    rng = random.Random(0)
    counts = {"deceptions": 0, "mixed": 0}
    for game in _play_games():
        scn, agents = game.scenario, game.scenario.agents
        # truthful play at every report survives decoding and coding again
        for state in scn.states:
            play = game_mod.truthful_play(game, state)
            again = game_mod.coded_play(game, game_mod.decode_play(game, play))
            assert play == again and hash(play) == hash(again) and play.rows == again.rows
        # a pure deception profile is the pure play of its menu positions,
        # each read off the menu as the position of its truthful message
        for _ in range(3):
            combo = [dict(rng.choice(mechanism.pure_assignments(scn, agent, game.state))) for agent in agents]
            for target in scn.states:
                flows = {
                    agent: tuple((src, dst, scn.dist(agent, game.state).prob(src)) for src, dst in rows.items())
                    for agent, rows in zip(agents, combo)
                }
                strategies = tuple(
                    tuple(
                        game.actions[(agent, coll)].index(game.mech.truthful_message(agent, target, rows[coll]))
                        for coll in game.types[agent]
                    )
                    for agent, rows in zip(agents, combo)
                )
                play = game_mod.deception_play(game, target, flows)
                pure = game_mod.pure_play(game, strategies)
                assert play == pure and hash(play) == hash(pure) and play.strategies == strategies
                counts["deceptions"] += 1
        # a mixture listed in two message orders: equal plays, each keeping
        # its own order; changing a weight tells them apart
        (agent, coll), menu = max(game.actions.items(), key=lambda slot: len(slot[1]))
        if len(menu) < 3:
            continue
        mixture = dict(zip(menu[:3], (F(1, 2), F(1, 3), F(1, 6))))
        plays = []
        for listed in (mixture, dict(reversed(mixture.items())), dict(zip(menu[:3], (F(1, 3), F(1, 2), F(1, 6))))):
            profile = truthful_profile(game)
            profile[agent][coll] = listed
            plays.append(game_mod.coded_play(game, profile))
        forward, backward, changed = plays
        assert forward == backward and hash(forward) == hash(backward) and forward.rows != backward.rows
        assert list(game_mod.decode_play(game, backward)[agent][coll]) == list(reversed(mixture))
        assert forward.strategies is None and changed != forward
        counts["mixed"] += 1
    assert counts["deceptions"] >= 2000 and counts["mixed"] >= 300, counts
