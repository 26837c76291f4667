"""Remaining worked-example coverage that does not fit the per-module files."""

from fractions import Fraction

import pytest

from evimech import fixtures
from evimech.deception import NotSeparating, PurePlan, induced_distribution, synthesize_gamma_delta
from evimech.game import BayesianGame, SearchBudget, search_equilibria
from evimech.hierarchy import TypeSpaceModel, build_hierarchy, embed_flat_scenario
from evimech.mechanism import build_bne_mechanism, build_pure_mechanism
from evimech.scenario import check_deterministic_equivalence
from evimech.smalltransfers import build_small_transfer_mechanism, eliminate_rationalizable

F = Fraction
EMPTY = frozenset()


def test_single_state_single_article_equivalence():
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s",),
        articles=("e",),
        dists={("A", "s"): {frozenset({"e"}): F(1)}, ("B", "s"): {EMPTY: F(1)}},
        scf={"s": "o"},
        outcomes=("o",),
    )
    report = check_deterministic_equivalence(scn)
    assert report.stochastic_pair and report.deterministic_pair and report.equivalent


def test_gamma_delta_on_four_state_example():
    scn = fixtures.pure_deception_example()
    big = frozenset({"lmhu", "mhu", "hu"})
    mid = frozenset({"lmhu", "mhu"})
    low = frozenset({"lmhu"})
    # mismatched plan toward U: everything collapsed to the low collection
    plan = PurePlan("A", "H", "U", ((mid, low), (big, low)))
    bet = synthesize_gamma_delta(scn, plan)
    induced = induced_distribution(plan.as_transport(scn))
    target = scn.dist("A", "U")
    lhs = bet.gamma * induced.prob(bet.short_collection) + bet.delta * induced.prob(bet.long_collection)
    rhs = bet.gamma * target.prob(bet.short_collection) + bet.delta * target.prob(bet.long_collection)
    assert lhs > 0 > rhs


def test_gamma_delta_sign_check_raises_when_it_fails():
    # the check survives `python -O`: on masses validation refuses (negative,
    # summing to 1/2 at S) the midpoint ratio -1/2 leaves the bet (1, 2)
    # worth 0 under the plan, and synthesis refuses to return it
    X, Y = frozenset({"x"}), frozenset({"y"})
    scn = fixtures.make_scenario(
        agents=("A", "B"),
        states=("S", "T"),
        articles=("x", "y"),
        dists={
            ("A", "S"): {X: F(1), Y: F(-1, 2)},
            ("A", "T"): {X: F(2), Y: F(-1)},
            ("B", "S"): {EMPTY: F(1)},
            ("B", "T"): {EMPTY: F(1)},
        },
        scf={"S": "o", "T": "p"},
        outcomes=("o", "p"),
    )
    with pytest.raises(NotSeparating, match=r"\(1, 2\)"):
        synthesize_gamma_delta(scn, PurePlan("A", "S", "T", ((X, X), (Y, Y))))


def test_identical_belief_and_evidence_types_share_hierarchies():
    model = TypeSpaceModel(
        agents=("P1", "P2"),
        types={"P1": ("t1", "t2"), "P2": ("u",)},
        evidence={("P1", "t1"): EMPTY, ("P1", "t2"): EMPTY, ("P2", "u"): EMPTY},
        beliefs={
            ("P1", "t1"): {("u",): F(1)},
            ("P1", "t2"): {("u",): F(1)},
            ("P2", "u"): {("t1",): F(1, 2), ("t2",): F(1, 2)},
        },
        outcomes=("o",),
        scf={(a, "u"): "o" for a in ("t1", "t2")},
        utility_profiles=(
            {
                "P1": {("o", (a, "u")): F(0) for a in ("t1", "t2")},
                "P2": {("o", (a, "u")): F(0) for a in ("t1", "t2")},
            },
        ),
    )
    table = build_hierarchy(model, 4)
    assert table.signatures[("P1", "t1")] == table.signatures[("P1", "t2")]


def test_am_builds_on_embedded_perturbed():
    # the grant-seeking profile violates evidence incentive compatibility in
    # the direct game (claiming H strictly gains), which the flat mechanisms
    # absorb with large transfers; the small-transfer build needs EIC, so the
    # embedding carries the constant profile only
    base = fixtures.perturbed_example()
    neutral = fixtures.make_scenario(
        agents=base.agents,
        states=base.states,
        articles=base.articles,
        dists=base.dists,
        scf=base.scf,
        outcomes=base.outcomes,
    )
    model = embed_flat_scenario(neutral)
    mech = build_small_transfer_mechanism(model, F(1, 100))
    assert mech.transfer_bound() <= F(1, 100)
    chain = mech.first_deviant_fine + mech.rounds * mech.mismatch_fine
    assert chain < mech.min_beta_bar
    assert mech.first_deviant_fine > F(1, mech.rounds)


def test_rationalizable_pass_with_constant_choice_function():
    model = embed_flat_scenario(fixtures.micro_example())
    constant = TypeSpaceModel(
        agents=model.agents,
        types=model.types,
        evidence=model.evidence,
        beliefs=model.beliefs,
        outcomes=model.outcomes,
        scf={t: model.outcomes[0] for t in model.profiles()},
        utility_profiles=model.utility_profiles,
        articles=model.articles,
    )
    mech = build_small_transfer_mechanism(constant, F(1, 100))
    report = eliminate_rationalizable(mech)
    assert report.passed


def _is_pure_profile(profile):
    return all(len(mix) == 1 for per_type in profile.values() for mix in per_type.values())


def test_search_finds_nothing_off_path_on_built_mechanisms():
    # the bne mechanism is clean across all equilibria; the pure-variant
    # mechanism only speaks for pure-strategy equilibria (the leading example
    # fails the mixed condition, so its mixed deception equilibrium survives
    # in any mechanism)
    budget = SearchBudget(pure_cap=0, plan_cap=600, seeds=(0,), max_rounds=12)
    perturbed = fixtures.perturbed_example()
    mech = build_bne_mechanism(perturbed)
    for state in perturbed.states:
        game = BayesianGame(perturbed, mech, state, 0)
        results, _ = search_equilibria(game, budget)
        for item in results:
            assert item["report"].on_path_outcomes == {perturbed.scf[state]: F(1)}
            assert item["report"].transfers_zero

    leading = fixtures.leading_example()
    pure_mech = build_pure_mechanism(leading)
    saw_mixed_deception = False
    for state in leading.states:
        game = BayesianGame(leading, pure_mech, state, 0)
        results, _ = search_equilibria(game, budget)
        for item in results:
            if _is_pure_profile(item["profile"]):
                assert item["report"].on_path_outcomes == {leading.scf[state]: F(1)}
                assert item["report"].transfers_zero
            elif item["report"].on_path_outcomes != {leading.scf[state]: F(1)}:
                saw_mixed_deception = True
    # the H -> M mixed deception is a genuine equilibrium outside the
    # pure-strategy scope; the search surfaces it honestly
    assert saw_mixed_deception
