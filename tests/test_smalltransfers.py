from fractions import Fraction

import pytest

from evimech import fixtures
from evimech.hierarchy import TypeSpaceModel, embed_flat_scenario
from evimech.smalltransfers import (
    AmMessage,
    EicViolation,
    HomViolation,
    SmallTransferMechanism,
    TransferBoundExceeded,
    build_small_transfer_mechanism,
    eliminate_rationalizable,
)

F = Fraction
W = frozenset({"w"})
EMPTY = frozenset()


@pytest.fixture(scope="module")
def micro_model():
    return embed_flat_scenario(fixtures.micro_example())


@pytest.fixture(scope="module")
def micro_mech(micro_model):
    return build_small_transfer_mechanism(micro_model, F(1, 100))


def xor_model():
    """Hand model where outcome manipulation is two-sided; breaking the round
    count genuinely re-admits wrong-outcome play."""
    types = {"P1": ("a1", "a2"), "P2": ("b1", "b2")}
    evidence = {
        ("P1", "a1"): frozenset({"e1"}),
        ("P1", "a2"): EMPTY,
        ("P2", "b1"): frozenset({"g1"}),
        ("P2", "b2"): EMPTY,
    }
    beliefs = {
        ("P1", "a1"): {("b1",): F(1)},
        ("P1", "a2"): {("b2",): F(1)},
        ("P2", "b1"): {("a1",): F(1)},
        ("P2", "b2"): {("a2",): F(1)},
    }
    scf = {
        ("a1", "b1"): "x",
        ("a1", "b2"): "y",
        ("a2", "b1"): "y",
        ("a2", "b2"): "x",
    }
    profiles = list(scf)
    util = {
        agent: {(o, t): (F(1, 4) if o == "x" else F(-1, 4)) for o in ("x", "y") for t in profiles}
        for agent in ("P1", "P2")
    }
    return TypeSpaceModel(
        agents=("P1", "P2"),
        types=types,
        evidence=evidence,
        beliefs=beliefs,
        outcomes=("x", "y"),
        scf=scf,
        utility_profiles=(util,),
        articles=("e1", "g1"),
    )


def test_build_parameters(micro_mech):
    mech = micro_mech
    assert mech.k_bar == 2
    assert mech.beta == F(1, 800)
    assert mech.level_bounds == [F(1), F(1), F(1)]
    assert mech.beta_bar == {"A": F(1, 800), "B": F(1, 400)}
    assert mech.rounds == 1601
    assert mech.first_deviant_fine > F(1, mech.rounds)
    chain = mech.first_deviant_fine + mech.rounds * mech.mismatch_fine
    assert chain < mech.min_beta_bar
    assert mech.transfer_bound() <= mech.eps


def test_build_raises_when_transfer_bound_exceeds_eps(micro_model, monkeypatch):
    # an explicit check, not an assert, so it also holds under `python -O`
    monkeypatch.setattr(SmallTransferMechanism, "transfer_bound", lambda self: 2 * self.eps)
    with pytest.raises(TransferBoundExceeded):
        build_small_transfer_mechanism(micro_model, F(1, 100))


def test_build_rejects_bad_inputs(micro_model):
    with pytest.raises(ValueError):
        build_small_transfer_mechanism(micro_model, F(0))
    flat = fixtures.make_scenario(
        agents=("A", "B"),
        states=("s1", "s2"),
        articles=(),
        dists={(a, s): {EMPTY: F(1)} for a in ("A", "B") for s in ("s1", "s2")},
        scf={"s1": "o1", "s2": "o2"},
        outcomes=("o1", "o2"),
    )
    with pytest.raises(HomViolation):
        build_small_transfer_mechanism(embed_flat_scenario(flat), F(1, 100))
    model = micro_model
    greedy = {
        "A": {(o, t): (F(1, 4) if o == "o2" else F(0)) for o in model.outcomes for t in model.profiles()},
        "B": {(o, t): F(0) for o in model.outcomes for t in model.profiles()},
    }
    tweaked = TypeSpaceModel(
        agents=model.agents,
        types=model.types,
        evidence=model.evidence,
        beliefs=model.beliefs,
        outcomes=model.outcomes,
        scf=model.scf,
        utility_profiles=(greedy,),
        articles=model.articles,
    )
    with pytest.raises(EicViolation):
        build_small_transfer_mechanism(tweaked, F(1, 100))


def test_truthful_transfers(micro_mech, micro_model):
    mech = micro_mech
    transcript = {
        "A": mech.truthful_message("A", ("s1", W)),
        "B": mech.truthful_message("B", ("s1", EMPTY)),
    }
    table = mech.transfers(transcript)
    assert table["A"]["evidence_reward"] == mech.beta
    assert table["B"]["evidence_reward"] == 0
    # degenerate beliefs score 2*1 - 1 = 1 at every level
    assert table["A"]["scoring"] == 3 * mech.beta
    assert table["B"]["scoring"] == 3 * mech.beta
    assert table["A"]["first_deviant_fine"] == 0
    assert table["A"]["mismatch_fine"] == 0
    assert abs(table["A"]["total"]) <= mech.eps
    lottery = mech.outcome_lottery(transcript)
    assert lottery == {"o1": F(1)}


def test_mismatch_and_first_deviant_fines(micro_mech):
    mech = micro_mech
    truthful = mech.truthful_message("A", ("s1", W))
    deviant_rounds = list(truthful.outcome_reports)
    deviant_rounds[0] = ("s2", EMPTY)
    deviant = AmMessage(truthful.evidence, truthful.belief_reports, tuple(deviant_rounds))
    transcript = {"A": deviant, "B": mech.truthful_message("B", ("s1", EMPTY))}
    table = mech.transfers(transcript)
    assert table["A"]["first_deviant_fine"] == -mech.first_deviant_fine
    assert table["A"]["mismatch_fine"] == -mech.mismatch_fine
    assert table["B"]["first_deviant_fine"] == 0
    lottery = mech.outcome_lottery(transcript)
    assert lottery == {"o2": F(1, mech.rounds), "o1": F(mech.rounds - 1, mech.rounds)}


def test_scoring_detects_wrong_belief_report(micro_mech):
    mech = micro_mech
    truthful = mech.truthful_message("A", ("s1", W))
    lied = AmMessage(
        truthful.evidence,
        (("s2", EMPTY),) + truthful.belief_reports[1:],
        truthful.outcome_reports,
    )
    transcript_truth = {"A": truthful, "B": mech.truthful_message("B", ("s1", EMPTY))}
    transcript_lie = {"A": lied, "B": mech.truthful_message("B", ("s1", EMPTY))}
    # level-1 beliefs coincide for A's two types (B holds nothing either way),
    # so this particular lie is scoring-neutral at level 1
    assert mech.transfers(transcript_lie)["A"]["scoring"] == mech.transfers(transcript_truth)["A"]["scoring"]
    lied_top = AmMessage(
        truthful.evidence,
        truthful.belief_reports[:2] + (("s2", EMPTY),),
        truthful.outcome_reports,
    )
    transcript_top = {"A": lied_top, "B": mech.truthful_message("B", ("s1", EMPTY))}
    assert mech.transfers(transcript_top)["A"]["scoring"] < mech.transfers(transcript_truth)["A"]["scoring"]


def test_elimination_passes_on_micro(micro_mech, micro_model):
    report = eliminate_rationalizable(micro_mech)
    assert report.passed, [s for s in report.stages if not s.passed]
    assert report.outcome_ok and report.transfer_bound_ok
    for agent in micro_model.agents:
        for type_id in micro_model.types[agent]:
            entry = report.survivors[(agent, type_id)]
            assert entry["evidence"] == [micro_model.evidence[(agent, type_id)]]
            assert entry["outcome"] == [type_id]  # cells are singletons here


def test_round_count_negative_control(micro_mech):
    lowered = micro_mech.with_params(rounds=1)
    report = eliminate_rationalizable(lowered)
    assert not report.passed
    outcome_stage = next(s for s in report.stages if s.name == "outcome_rounds")
    assert not outcome_stage.passed
    assert not outcome_stage.details["chain"]["fine_exceeds_stake"]


def test_belief_pinning_negative_control(micro_mech):
    # a first-deviant fine of 1 outweighs every final-slot scoring loss, and
    # the chain's belief budget with it
    report = eliminate_rationalizable(micro_mech.with_params(first_deviant_fine=F(1)))
    assert not report.passed
    belief = next(s for s in report.stages if s.name == "belief_pinning")
    assert not belief.passed
    final = micro_mech.k_bar + 1
    lies = [f for f in belief.details["failures"] if f[0] != "chain"]
    assert lies and all(k == final and loss <= F(1) for _, _, _, k, loss in lies)
    fines = F(1) + micro_mech.rounds * micro_mech.mismatch_fine
    assert belief.details["failures"][-1] == ("chain", "min_beta_bar", micro_mech.min_beta_bar, fines)


def test_chain_budget_negative_control(micro_mech):
    # fines just above the least belief-pinning gain break only the chain link
    lowered = micro_mech.with_params(first_deviant_fine=micro_mech.min_beta_bar)
    assert lowered.chain_slack()["budget_over_fines"] < 0 < micro_mech.chain_slack()["budget_over_fines"]
    belief = next(s for s in eliminate_rationalizable(lowered).stages if s.name == "belief_pinning")
    assert not belief.passed
    assert belief.details["failures"] == [("chain", "min_beta_bar", lowered.min_beta_bar, lowered.fines())]


def test_outcome_rounds_eic_negative_control(micro_mech):
    # without a mismatch fine, a lie that leaves the interim value unchanged
    # costs nothing in the outcome rounds
    report = eliminate_rationalizable(micro_mech.with_params(mismatch_fine=F(0)))
    assert not report.passed
    outcome_stage = next(s for s in report.stages if s.name == "outcome_rounds")
    assert not outcome_stage.passed
    failures = outcome_stage.details["failures"]
    assert failures and all(f[-1] == "EIC case" for f in failures)


def test_xor_model_end_to_end():
    model = xor_model()
    mech = build_small_transfer_mechanism(model, F(1, 100))
    assert mech.k_bar == 1
    report = eliminate_rationalizable(mech)
    assert report.passed
    # lowering the round count with the fine held fixed re-opens the outcome stakes
    broken = eliminate_rationalizable(mech.with_params(rounds=2))
    assert not broken.passed


def test_levelwise_scoring_propriety(micro_mech, micro_model):
    # with opponents truthful and maximal, the expected level-k score is
    # maximized exactly by the reports sharing the type's level-k belief
    mech = micro_mech
    model = micro_model
    table = mech.hierarchy
    for agent in model.agents:
        for type_id in model.types[agent]:
            true_dist = {}
            for k in range(1, mech.k_bar + 2):
                truth = table.level_distribution(agent, type_id, k)

                def expected_score(report, k=k, truth=truth):
                    dist = table.level_distribution(agent, report, k)
                    sq = sum((p * p for p in dist.values()), F(0))
                    return sum(
                        (prob * (2 * dist.get(point, F(0)) - sq) for point, prob in truth.items()),
                        F(0),
                    )

                scores = {r: expected_score(r) for r in model.feasible_reports(agent, type_id)}
                best = max(scores.values())
                winners = {r for r, v in scores.items() if v == best}
                same_sig = {
                    r
                    for r in model.feasible_reports(agent, type_id)
                    if table.level(agent, r, k) == table.level(agent, type_id, k)
                }
                assert winners == same_sig


def test_transfer_bound_is_exact_extreme(micro_mech, micro_model):
    mech = micro_mech
    bound = mech.transfer_bound()
    # a worst-case message: maximal evidence, belief reports that score zero in
    # support, every round mismatched
    truthful = mech.truthful_message("A", ("s1", W))
    worst = AmMessage(
        truthful.evidence,
        truthful.belief_reports,
        tuple([("s2", EMPTY)] * mech.rounds),
    )
    transcript = {"A": worst, "B": mech.truthful_message("B", ("s1", EMPTY))}
    table = mech.transfers(transcript)
    assert abs(table["A"]["total"]) <= bound <= mech.eps
