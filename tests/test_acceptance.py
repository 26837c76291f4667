"""Acceptance suite: one test per criterion, timed against its stated budget."""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import record_criterion
from evimech import fixtures
from evimech.cli import main as cli_main
from evimech.conditions import check_npd, check_nppd, check_stochastic_measurability
from evimech.deception import (
    Bet,
    InfeasibleSeparation,
    certify_bet,
    find_perfect_deception,
    find_pure_perfect_deception,
    induced_distribution,
    synthesize_bet,
)
from evimech.game import (
    BayesianGame,
    DirectMechanism,
    canonical_perfect_plans,
    claim_audits,
    deception_closure_audit,
    truthful_profile,
    verify_bne,
)
from evimech.generators import random_scenario
from evimech.hierarchy import check_higher_order_measurability, embed_flat_scenario
from evimech.mechanism import build_bne_mechanism, build_pure_mechanism
from evimech.scenario import (
    Distribution,
    check_deterministic_equivalence,
    classify_lie,
    most_informative_projection,
)
from evimech.smalltransfers import (
    build_small_transfer_mechanism,
    eliminate_rationalizable,
)

F = Fraction
DATA = Path(__file__).parent / "data"
TOP = frozenset({"mh", "lmh"})
LOW = frozenset({"lmh"})


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv) + ["--format", "machine"])
    return code, json.loads(buf.getvalue())


@contextmanager
def criterion(number, description, limit):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        record_criterion(number, description, ok and elapsed < limit, elapsed, limit)
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_leading_npd_fails_exactly_on_h_m():
    with criterion(1, "leading example: npd fails exactly on (H,M) with transport certificate", 1.0):
        scn = fixtures.leading_example()
        verdict = check_npd(scn)
        assert not verdict.passed
        assert [(f.source_state, f.target_state) for f in verdict.failures] == [("H", "M")]
        plan = verdict.failures[0].certificates["A"]
        assert induced_distribution(plan) == Distribution({TOP: F(2, 5), LOW: F(3, 5)})
        code, report = run_cli("check", "npd", str(DATA / "leading.json"))
        assert code == 3
        failure = report["payload"]["verdict"]["failures"][0]
        assert failure["certificates"]["A"]["induced"] == {"{lmh,mh}": "2/5", "{lmh}": "3/5"}


def test_criterion_02_leading_nppd_and_sm_pass():
    with criterion(2, "leading example: nppd and sm pass", 1.0):
        scn = fixtures.leading_example()
        assert check_nppd(scn).passed
        assert check_stochastic_measurability(scn).passed
        assert run_cli("check", "nppd", str(DATA / "leading.json"))[0] == 0
        assert run_cli("check", "sm", str(DATA / "leading.json"))[0] == 0


def test_criterion_03_perturbed_npd_passes_with_blocking_analysis():
    with criterion(3, "perturbed example: npd passes; directions blocked as stated", 1.0):
        scn = fixtures.perturbed_example()
        assert check_npd(scn).passed
        # (M,H): blocked by max-flow value < 1
        from evimech.deception import perfect_deception

        toward_h = perfect_deception(scn, "A", "M", "H")
        assert toward_h.plan is None and toward_h.flow_value < 1
        # (H,M): a perfect deception exists, but M is refutable at H with mass 1/10
        assert find_perfect_deception(scn, "A", "H", "M") is not None
        lie = classify_lie(scn, "H", "M")
        assert lie.verdict == "refutable" and lie.witness_mass("A") == F(1, 10)
        assert run_cli("check", "npd", str(DATA / "perturbed.json"))[0] == 0


def test_criterion_04_four_state_pure_deception_example():
    with criterion(4, "four-state example: sm passes, nppd fails on (H,U) with the printed assignment", 1.0):
        scn = fixtures.pure_deception_example()
        assert check_stochastic_measurability(scn).passed
        verdict = check_nppd(scn)
        assert not verdict.passed
        assert [(f.source_state, f.target_state) for f in verdict.failures] == [("H", "U")]
        big = frozenset({"lmhu", "mhu", "hu"})
        mid = frozenset({"lmhu", "mhu"})
        low = frozenset({"lmhu"})
        assert verdict.failures[0].certificates["A"].assignment_map() == {mid: low, big: big}
        assert run_cli("check", "nppd", str(DATA / "pure_deception.json"))[0] == 3


def test_criterion_05_bet_reproduction():
    with criterion(5, "hand bet certifies (-1/5, +1/5, pass); synthesis beats brute force", 1.0):
        scn = fixtures.leading_example()
        hand = Bet("A", "M", "H", ((LOW, F(1)), (TOP, F(-1))), margin=F(1, 5))
        report = certify_bet(scn, hand)
        assert (report.value_at_lie, report.worst_case_at_truth, report.passed) == (
            F(-1, 5),
            F(1, 5),
            True,
        )
        bet = synthesize_bet(scn, "A", "M", "H")
        assert bet.margin > 0
        synth_report = certify_bet(scn, bet)
        assert synth_report.passed
        assert synth_report.robust_worst_case >= bet.margin


def test_criterion_06_zero_on_truth_both_fixtures():
    with criterion(6, "truthful play is a clean equilibrium under build bne / build pure", 5.0):
        perturbed = fixtures.perturbed_example()
        bne = build_bne_mechanism(perturbed)
        leading = fixtures.leading_example()
        pure = build_pure_mechanism(leading)
        for scn, mech in ((perturbed, bne), (leading, pure)):
            for profile_idx in range(len(scn.utility_profiles)):
                for state in scn.states:
                    game = BayesianGame(scn, mech, state, profile_idx)
                    report = verify_bne(game, truthful_profile(game))
                    assert report.is_bne, (state, profile_idx, report.witness)
                    assert report.on_path_outcomes == {scn.scf[state]: F(1)}
                    assert report.transfers_zero


def test_criterion_07_claim_audits_with_negative_control():
    with criterion(7, "claim audits pass on perturbed; lowered refutation fine fails", 10.0):
        scn = fixtures.perturbed_example()
        mech = build_bne_mechanism(scn)
        suite = claim_audits(scn, mech)
        assert suite.passed
        lowered = claim_audits(scn, mech.with_scaling(tau_high=F(0)), profile_indices=[0])
        by_name = {r.name: r for r in lowered.results}
        assert not by_name["refutation_escape"].passed


def test_criterion_08_necessity_replay():
    with criterion(8, "deception closure certifies a BNE at H with outcome f(M)", 5.0):
        scn = fixtures.leading_example()
        plans = canonical_perfect_plans(scn, "H", "M")
        report = deception_closure_audit(scn, DirectMechanism(scn), "H", plans, profile_idx=0)
        assert report.certified
        assert report.on_path_outcomes == {scn.scf["M"]: F(1)}
        code, cli_report = run_cli("audit", "closure", str(DATA / "leading.json"))
        assert code == 0
        assert cli_report["payload"]["all_certified"] is True


def _population():
    scenarios = [build() for build in fixtures.ALL_FIXTURES.values()]
    scenarios.extend(random_scenario(seed) for seed in range(500))
    return scenarios


def test_criterion_09_duality_over_population():
    with criterion(9, "perfect deception XOR positive-margin bet over fixtures + 500 scenarios", 60.0):
        for scn in _population():
            for agent in scn.agents:
                for s in scn.states:
                    for s_prime in scn.states:
                        if s == s_prime:
                            continue
                        plan = find_perfect_deception(scn, agent, s, s_prime)
                        if plan is None:
                            # evaluated directly too, so that neither side of
                            # the duality rests on the max-flow alone
                            bet = synthesize_bet(scn, agent, s, s_prime)
                            assert bet.margin > 0
                            report = certify_bet(scn, bet)
                            assert report.passed
                            assert report.robust_worst_case >= bet.margin
                        else:
                            with pytest.raises(InfeasibleSeparation):
                                synthesize_bet(scn, agent, s, s_prime)


def test_criterion_10_implication_chain_with_witnesses():
    with criterion(10, "NPD => NPPD => SM over the population, strictness witnessed", 60.0):
        nppd_not_npd = 0
        sm_not_nppd = 0
        for scn in _population():
            npd = check_npd(scn).passed
            nppd = check_nppd(scn).passed
            sm = check_stochastic_measurability(scn).passed
            assert (not npd) or nppd
            assert (not nppd) or sm
            if nppd and not npd:
                nppd_not_npd += 1
            if sm and not nppd:
                sm_not_nppd += 1
        assert nppd_not_npd >= 1  # the leading example, at least
        assert sm_not_nppd >= 1  # the pure-deception example, at least


def test_criterion_11_hom_equals_sm_under_embedding():
    with criterion(11, "higher-order measurability == stochastic measurability (100 embeddings)", 60.0):
        for seed in range(100):
            scn = random_scenario(seed)
            hom = check_higher_order_measurability(embed_flat_scenario(scn)).passed
            sm = check_stochastic_measurability(scn).passed
            assert hom == sm, seed


def test_criterion_12_small_transfer_end_to_end():
    with criterion(12, "multi-round build at eps=1/100: bounded transfers, pinned outcome, J control", 120.0):
        model = embed_flat_scenario(fixtures.micro_example())
        mech = build_small_transfer_mechanism(model, F(1, 100))
        assert mech.transfer_bound() <= F(1, 100)
        report = eliminate_rationalizable(mech)
        assert report.passed
        assert report.outcome_ok and report.transfer_bound_ok
        for profile in model.profiles():
            pools = [report.survivors[(a, t)]["outcome"] for a, t in zip(model.agents, profile)]
            for combo in __import__("itertools").product(*pools):
                assert model.scf[tuple(combo)] == model.scf[profile]
        broken = eliminate_rationalizable(mech.with_params(rounds=1))
        assert not broken.passed
        code, cli_report = run_cli("audit", "icr", str(DATA / "micro_model.json"), "--eps", "1/100")
        assert code == 0 and cli_report["payload"]["passed"] is True


def test_criterion_13_deterministic_equivalence_population():
    with criterion(13, "(se1)&(se2) == (e1)&(e2) over 200 degenerate scenarios", 10.0):
        for seed in range(200):
            scn = random_scenario(seed, degenerate=True)
            report = check_deterministic_equivalence(scn)
            assert report.stochastic_pair == report.deterministic_pair
            assert report.relation_agreement


def test_criterion_14_most_informative_projection_loses_generality():
    with criterion(14, "projection fixture: deceptions appear only after projecting", 1.0):
        scn = fixtures.projection_example()
        assert find_perfect_deception(scn, "A", "M", "H") is None
        assert find_perfect_deception(scn, "A", "H", "M") is None
        projected = most_informative_projection(scn)
        for agent in projected.agents:
            assert find_perfect_deception(projected, agent, "M", "H") is not None
            assert find_perfect_deception(projected, agent, "H", "M") is not None
        # degenerate direction: the pure plans exist as well
        assert find_pure_perfect_deception(projected, "A", "M", "H") is not None
