import json
from fractions import Fraction
from pathlib import Path

import pytest

from evimech import fixtures, mechanism
from evimech.deception import (
    Bet,
    InfeasibleSeparation,
    NoImbalance,
    NotSeparating,
    PerfectDeceptionResult,
    PurePlan,
    certify_bet,
    find_perfect_deception,
    find_pure_perfect_deception,
    identity_plan,
    induced_distribution,
    perfect_deception,
    sourcewise_worst_case,
    synthesize_bet,
    synthesize_gamma_delta,
    witness_bet,
)
from evimech.mechanism import build_bne_mechanism, build_pure_mechanism
from evimech.scenario import Distribution, ScenarioError, parse_scenario
from evimech.transport import HallWitness

F = Fraction
TOP = frozenset({"mh", "lmh"})
LOW = frozenset({"lmh"})
EMPTY = frozenset()


@pytest.fixture
def leading():
    return fixtures.leading_example()


@pytest.fixture
def perturbed():
    return fixtures.perturbed_example()


def test_induced_distribution_of_known_plan(leading):
    plan = find_perfect_deception(leading, "A", "H", "M")
    assert plan is not None
    assert not plan.check(leading)
    induced = induced_distribution(plan)
    assert induced == Distribution({TOP: F(2, 5), LOW: F(3, 5)})
    # the 0.6-mass source splits 2/3 kept, 1/3 collapsed
    flows = plan.flow_map()
    assert flows[(TOP, TOP)] == F(2, 5)
    assert flows[(TOP, LOW)] == F(1, 5)


def test_identity_plan_induces_own_distribution(leading):
    plan = identity_plan(leading, "A", "H")
    assert induced_distribution(plan) == leading.dist("A", "H")


def test_plan_sending_all_mass_to_empty(leading):
    from evimech.deception import TransportPlan

    plan = TransportPlan(
        "A", "H", "H", ((TOP, EMPTY, F(3, 5)), (LOW, EMPTY, F(2, 5)))
    )
    assert induced_distribution(plan) == Distribution({EMPTY: F(1)})


@pytest.mark.parametrize(
    "flows, problem",
    [
        # A holds TOP with 3/5 and LOW with 2/5 at H
        (((TOP, TOP, F(4, 5)), (TOP, LOW, F(-1, 5)), (LOW, LOW, F(2, 5))), "negative flow on {lmh,mh}->{lmh}"),
        (((TOP, TOP, F(3, 5)), (LOW, TOP, F(2, 5))), "target {lmh,mh} not within source {lmh}"),
        (((TOP, TOP, F(3, 5)), (LOW, LOW, F(1, 5))), "out-mass of {lmh} differs from its probability"),
        (
            ((TOP, TOP, F(3, 5)), (LOW, LOW, F(2, 5)), (EMPTY, EMPTY, F(1, 5))),
            "flow out of zero-probability source {}",
        ),
    ],
)
def test_plan_check_names_each_problem(leading, flows, problem):
    from evimech.deception import TransportPlan

    assert TransportPlan("A", "H", "M", flows).check(leading) == [problem]


def test_no_perfect_deception_m_to_h(leading):
    result = perfect_deception(leading, "A", "M", "H")
    assert result.plan is None
    assert result.flow_value < 1
    assert result.witness is not None and result.witness.verify()


def test_self_pair_has_identity(leading):
    plan = find_perfect_deception(leading, "A", "M", "M")
    assert plan is not None
    assert induced_distribution(plan) == leading.dist("A", "M")


def test_perturbed_directions(perturbed):
    # H -> M still deceivable (extra article simply withheld), M -> H is not
    assert find_perfect_deception(perturbed, "A", "H", "M") is not None
    result = perfect_deception(perturbed, "A", "M", "H")
    assert result.plan is None
    assert result.flow_value < 1


def test_pure_perfect_on_four_state_example():
    scn = fixtures.pure_deception_example()
    big = frozenset({"lmhu", "mhu", "hu"})
    mid = frozenset({"lmhu", "mhu"})
    low = frozenset({"lmhu"})
    plan = find_pure_perfect_deception(scn, "A", "H", "U")
    assert plan is not None
    assert plan.assignment_map() == {mid: low, big: big}
    assert induced_distribution(plan.as_transport(scn)) == scn.dist("A", "U")


def test_no_pure_perfect_in_leading(leading):
    assert find_pure_perfect_deception(leading, "A", "H", "M") is None
    # but the mixed one exists
    assert find_perfect_deception(leading, "A", "H", "M") is not None


def test_pure_self_identity(leading):
    plan = find_pure_perfect_deception(leading, "A", "L", "L")
    assert plan is not None
    assert plan.assignment_map() == {LOW: LOW}


def test_hand_bet_certifies(leading):
    hand = Bet("A", "M", "H", ((LOW, F(1)), (TOP, F(-1))), margin=F(1, 5))
    report = certify_bet(leading, hand)
    assert (report.value_at_lie, report.worst_case_at_truth, report.passed) == (F(-1, 5), F(1, 5), True)
    # against unrestricted withholding the hand bet is beatable; the robust
    # value comes from the sourcewise formula
    assert report.robust_worst_case == F(-2, 5)
    assert report.robust_worst_case == sourcewise_worst_case(leading, hand)


def test_zero_and_negated_bets_fail(leading):
    zero = Bet("A", "M", "H", (), margin=F(0))
    report = certify_bet(leading, zero)
    assert (report.value_at_lie, report.worst_case_at_truth, report.passed) == (F(0), F(0), False)
    negated = Bet("A", "M", "H", ((LOW, F(-1)), (TOP, F(1))), margin=F(0))
    report = certify_bet(leading, negated)
    assert (report.value_at_lie, report.worst_case_at_truth, report.passed) == (F(1, 5), F(-1, 5), False)


def test_synthesized_bet_on_known_pair(leading):
    bet = synthesize_bet(leading, "A", "M", "H")
    assert bet.margin == F(1, 5)
    report = certify_bet(leading, bet)
    assert report.passed
    assert report.value_at_lie <= -bet.margin
    assert report.worst_case_at_truth >= bet.margin
    # synthesized bets clear the stronger full-polytope bar
    assert report.robust_worst_case >= bet.margin


def test_bet_synthesis_refuses_deceivable_pair(leading):
    with pytest.raises(InfeasibleSeparation):
        synthesize_bet(leading, "A", "H", "M")


def test_witness_bet_on_known_pair(leading):
    witness = perfect_deception(leading, "A", "M", "H").witness
    assert (witness.targets, witness.demand, witness.supply) == ((TOP,), F(3, 5), F(2, 5))
    bet = witness_bet(leading, "A", "M", "H", witness)
    # a + b = 1: x = y = 1, and the margin is the LP's
    assert bet.margin == synthesize_bet(leading, "A", "M", "H").margin == F(1, 5)
    assert bet.weight_map() == {EMPTY: F(1), LOW: F(1), frozenset({"mh"}): F(1), TOP: F(-1)}
    report = certify_bet(leading, bet)
    assert report.passed
    assert (report.value_at_lie, report.robust_worst_case) == (-bet.margin, bet.margin)


def _unchecked_witness(monkeypatch, targets, demand, supply):
    """A `HallWitness` built past its demand > supply check."""
    monkeypatch.setattr(HallWitness, "__post_init__", lambda self: None)
    return HallWitness(targets, demand, (), supply)


@pytest.mark.parametrize(
    "targets, demand, supply",
    [
        ((TOP,), F(2, 5), F(3, 5)),  # demand and supply swapped
        ((TOP,), F(3, 5), F(3, 5)),  # demand equal to supply
        ((), F(0), F(0)),  # no target at all: nothing is scarce
    ],
)
def test_witness_bet_refuses_a_witness_that_is_not_scarce(leading, monkeypatch, targets, demand, supply):
    witness = _unchecked_witness(monkeypatch, targets, demand, supply)
    with pytest.raises(NotSeparating):
        witness_bet(leading, "A", "M", "H", witness)


def test_witness_bet_refuses_a_witness_the_scenario_does_not_bear_out(leading):
    # scarce as written, but T = {LOW} is demanded 2/5 at H and served by all of M
    witness = HallWitness((LOW,), F(3, 5), (TOP,), F(2, 5))
    with pytest.raises(NotSeparating):
        witness_bet(leading, "A", "M", "H", witness)


def test_bne_builder_refuses_a_bad_witness(monkeypatch):
    scn = fixtures.perturbed_example()
    bad = _unchecked_witness(monkeypatch, (TOP,), F(1, 5), F(1, 5))
    monkeypatch.setattr(
        mechanism, "perfect_deception", lambda *args: PerfectDeceptionResult(None, F(0), bad)
    )
    with pytest.raises(NotSeparating):
        build_bne_mechanism(scn)


def test_bet_scaling_invariance(leading):
    bet = synthesize_bet(leading, "A", "M", "H")
    for factor in (F(1, 3), F(2), F(7, 5)):
        assert certify_bet(leading, bet.scaled(factor)).passed


def test_degenerate_absent_collection_bet():
    scn = fixtures.micro_example()
    bet = synthesize_bet(scn, "A", "s2", "s1")
    report = certify_bet(scn, bet)
    assert report.passed and bet.margin > 0


def test_gamma_delta_construction(leading):
    # pure plan at H claiming M truth-tellingly relabelled: identity assignment
    plan = PurePlan("A", "H", "M", ((TOP, TOP), (LOW, LOW)))
    bet = synthesize_gamma_delta(leading, plan)
    assert bet.gamma < 0 < bet.delta
    induced = induced_distribution(plan.as_transport(leading))
    target = leading.dist("A", "M")
    assert bet.short_collection == LOW and bet.long_collection == TOP
    assert bet.gamma * induced.prob(bet.short_collection) + bet.delta * induced.prob(bet.long_collection) > 0
    assert bet.gamma * target.prob(bet.short_collection) + bet.delta * target.prob(bet.long_collection) < 0


def test_gamma_delta_refuses_a_plan_naming_an_unknown_agent_or_state(leading):
    rows = ((TOP, TOP), (LOW, LOW))
    for agent, source, target in (("Z", "H", "M"), ("A", "nowhere", "M"), ("A", "H", "nowhere")):
        with pytest.raises(ScenarioError):
            synthesize_gamma_delta(leading, PurePlan(agent, source, target, rows))


def test_gamma_delta_rejects_perfect_plan():
    scn = fixtures.pure_deception_example()
    plan = find_pure_perfect_deception(scn, "A", "H", "U")
    with pytest.raises(NoImbalance):
        synthesize_gamma_delta(scn, plan)


def test_gamma_delta_rejects_plan_without_short_and_long_collections():
    # A's masses at L sum to 9/10: a plan into L induces more mass in total
    # than L holds, and on this document no collection is short
    scn = parse_scenario(json.loads((Path(__file__).parent / "data" / "broken_sum.json").read_text()))
    with pytest.raises(NoImbalance):
        build_pure_mechanism(scn)


def test_duality_on_fixture_pairs(leading, perturbed):
    for scn in (leading, perturbed, fixtures.pure_deception_example(), fixtures.micro_example()):
        for agent in scn.agents:
            for s in scn.states:
                for s_prime in scn.states:
                    if s == s_prime:
                        continue
                    plan = find_perfect_deception(scn, agent, s, s_prime)
                    if plan is None:
                        bet = synthesize_bet(scn, agent, s, s_prime)
                        assert bet.margin > 0
                        assert certify_bet(scn, bet).passed
                    else:
                        with pytest.raises(InfeasibleSeparation):
                            synthesize_bet(scn, agent, s, s_prime)
