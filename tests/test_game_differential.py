"""Differential tests: the kernel-backed game layer against `game_reference`.

Every report field is compared as an ordered list of items, with each value's
type, so equal `Fraction`s and identical iteration order (which the rendered
reports depend on) are both checked.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import evimech
import game_reference as ref
from evimech import fixtures, game, generators, mechanism
from evimech.conditions import check_npd, check_stochastic_measurability

SEEDS = tuple(range(9)) + (27,)


def _typed(mapping):
    return [(key, type(value), value) for key, value in mapping.items()]


def report_fields(report):
    return (
        report.is_bne,
        _typed(report.slacks),
        report.witness,
        _typed(report.on_path_outcomes),
        [(agent, _typed(items)) for agent, items in report.transfer_extremes.items()],
        report.transfers_zero,
        report.stamp,
    )


def _scenarios():
    out = [(name, build()) for name, build in fixtures.ALL_FIXTURES.items()]
    out.extend((f"seed {seed}", generators.random_scenario(seed)) for seed in dict.fromkeys(SEEDS))
    return out


SCENARIOS = _scenarios()
STRESS = ("seed 5", "seed 27")


def _small(name, scn):
    """Scenarios with two agents and at most three states get every check;
    larger ones the lighter checks, the stress seeds 5 and 27 among them."""
    return len(scn.agents) == 2 and len(scn.states) <= 3 and name not in STRESS


def _mechanisms(scn, pure=True):
    mechs = [("direct", game.DirectMechanism(scn))]
    if not check_stochastic_measurability(scn).passed:
        return mechs  # no transfer scaling exists
    mechs.append(("bne", mechanism.assemble_bne_mechanism(scn)))
    if pure and mechanism.pure_profile_count(scn) <= 20000:
        mechs.append(("pure", mechanism.assemble_pure_mechanism(scn, z_cap=20000)))
    return mechs


def _profiles(g, rng):
    """Truthful play, two random pure profiles, a random mixture and, where
    the canonical plans exist, truthful play composed with a perfect
    deception."""
    scn = g.scenario
    profiles = [game.truthful_profile(g)]
    for _ in range(2):
        profiles.append(
            {a: {c: {rng.choice(g.actions[(a, c)]): Fraction(1)} for c in g.types[a]} for a in scn.agents}
        )
    # a mixture whose weights have different denominators
    (agent, coll), actions = max(g.actions.items(), key=lambda slot: len(slot[1]))
    if len(actions) >= 3:
        mixed = game.truthful_profile(g)
        weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        mixed[agent][coll] = dict(zip(rng.sample(actions, 3), weights))
        profiles.append(mixed)
    for target in scn.states:
        plans = game.canonical_perfect_plans(scn, g.state, target)
        if plans is not None and target != g.state:
            flows = {agent: plan.flows for agent, plan in plans.items()}
            profiles.append(game.decode_play(g, game.deception_play(g, target, flows)))
            break
    return profiles


@pytest.mark.parametrize("name, scn", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_verify_bne_matches_reference(name, scn):
    rng = random.Random(name)
    small = _small(name, scn)
    for kind, mech in _mechanisms(scn, pure=small):
        for idx in range(len(scn.utility_profiles)) if small else [0]:
            for state in scn.states:
                new = game.BayesianGame(scn, mech, state, idx)
                old = ref.BayesianGame(scn, mech, state, idx)
                profiles = _profiles(new, rng) if small and idx == 0 else [game.truthful_profile(new)]
                for profile in profiles:
                    assert report_fields(game.verify_bne(new, profile)) == report_fields(
                        ref.verify_bne(old, profile)
                    ), (kind, idx, state)


def _search_fields(results, flags):
    # an exhaustive pure enumeration subsumes the dynamics, which the
    # reference still runs
    if flags["pure_enumeration"] == "EXHAUSTIVE":
        flags = {**flags, "dynamics": "SUBSUMED"}
    return [(item["profile"], report_fields(item["report"]), item["stamp"]) for item in results], flags


@pytest.mark.parametrize("name, scn", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_search_matches_reference(name, scn):
    idx = len(scn.utility_profiles) - 1
    if _small(name, scn):
        # every strategy at the first state; best-response dynamics alone,
        # from more starts, at the others
        full = game.SearchBudget(pure_cap=600, plan_cap=64, seeds=(0, 1), max_rounds=6)
        dynamics = game.SearchBudget(pure_cap=0, plan_cap=0, seeds=(0, 1, 2), max_rounds=8)
        games = [
            (mech, state, full if state == scn.states[0] else dynamics)
            for _, mech in _mechanisms(scn, pure=False)
            for state in scn.states
        ]
    elif name in STRESS:
        # seed 5's closure family (96 reference verifications, about 6 s) is
        # left over budget; seed 27's runs and finds its hit
        plan_cap = 256 if name == "seed 27" else 16
        budget = game.SearchBudget(pure_cap=64, plan_cap=plan_cap, seeds=(0,), max_rounds=2)
        games = [(mechanism.assemble_bne_mechanism(scn), scn.states[0], budget)]
    else:
        return
    for mech, state, budget in games:
        new = game.search_equilibria(game.BayesianGame(scn, mech, state, idx), budget, seed=3)
        old = ref.search_equilibria(ref.BayesianGame(scn, mech, state, idx), budget, seed=3)
        assert _search_fields(*new) == _search_fields(*old), state


def test_search_differential_does_not_depend_on_the_hash_seed():
    # the repr of an equal frozenset depends on how it was built and on the
    # hash seed: a reference that keyed messages by repr listed one
    # appended_article hit twice under PYTHONHASHSEED=7
    tests = Path(__file__).resolve().parent
    src = Path(evimech.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONHASHSEED": "7", "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    case = f"{Path(__file__).name}::test_search_matches_reference[appended_article]"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", case],
        cwd=tests,
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout[-3000:]


def _suite_fields(suite):
    return [(r.name, r.passed, r.vacuous, r.details) for r in suite.results], suite.profile_indices


@pytest.mark.parametrize("name, scn", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_claim_audits_match_reference(name, scn):
    small = _small(name, scn)
    if not (small or name in STRESS) or not check_stochastic_measurability(scn).passed:
        return
    mech = mechanism.assemble_bne_mechanism(scn)
    variants = [mech]
    if small and name in fixtures.ALL_FIXTURES:
        # a lowered refutation fine and a raised eps make audits fail with details
        variants.append(mech.with_scaling(tau_high=Fraction(0), eps=mech.scaling.eps * 100))
    for variant in variants:
        assert _suite_fields(game.claim_audits(scn, variant)) == _suite_fields(ref.claim_audits(scn, variant))


def test_differential_corpus_is_not_vacuous():
    built = [name for name, scn in SCENARIOS if check_npd(scn).passed]
    assert len(built) >= 6
    assert any(len(scn.agents) == 3 for _, scn in SCENARIOS)


# -- one set of payoff rows per mechanism -------------------------------------------

SHARED_BUDGET = game.SearchBudget(pure_cap=600, plan_cap=16, seeds=(0,), max_rounds=4)
SHARED = ("micro", "perturbed", "appended_article", "seed 0")


def _game_reports(module, g, profiles):
    """Every verify_bne report of `profiles` and the search of game `g`."""
    return (
        [report_fields(module.verify_bne(g, profile)) for profile in profiles],
        _search_fields(*module.search_equilibria(g, SHARED_BUDGET, seed=1)),
    )


@pytest.mark.parametrize("name", SHARED)
def test_one_mechanism_shared_by_every_game_matches_reference_in_either_order(name):
    # one set of payoff rows filled by every game and the audits, in two visiting orders:
    # the audits after the games in state order, then before them in reverse
    scn = dict(SCENARIOS)[name]
    mech = mechanism.assemble_bne_mechanism(scn)
    slots = [(state, idx) for idx in range(len(scn.utility_profiles)) for state in scn.states]
    expected = {}
    for state, idx in slots:
        g = game.BayesianGame(scn, mech, state, idx)
        profiles = _profiles(g, random.Random(f"{name} {state} {idx}"))
        expected[(state, idx)] = profiles, _game_reports(ref, ref.BayesianGame(scn, mech, state, idx), profiles)
    audits = _suite_fields(ref.claim_audits(scn, mech))
    assert _row_entries(mech.kernel()) == {}  # the reference reads no kernel

    for order in (slots, slots[::-1]):
        shared = mechanism.assemble_bne_mechanism(scn)
        if order is not slots:
            assert _suite_fields(game.claim_audits(scn, shared)) == audits
        for slot in order:
            profiles, reports = expected[slot]
            assert _game_reports(game, game.BayesianGame(scn, shared, *slot), profiles) == reports, slot
        if order is slots:
            assert _suite_fields(game.claim_audits(scn, shared)) == audits
        assert _row_entries(shared.kernel())


def _row_entries(kernel):
    """(agent index, packed others' codes, code) -> entry of the kernel's payoff rows."""
    return {
        (i, others, code): entry
        for i, rows in enumerate(kernel.rows)
        for others, entries in rows.items()
        for code, entry in entries.items()
    }


@pytest.mark.parametrize("direct", [False, True], ids=["bne", "direct"])
def test_every_transcript_of_a_mechanism_is_evaluated_once(monkeypatch, direct):
    scn = fixtures.perturbed_example()
    mech = game.DirectMechanism(scn) if direct else mechanism.build_bne_mechanism(scn)
    kernel_class = type(mech.kernel())
    evaluated = []  # (agent index, packed others' codes, code) per row entry evaluated
    transcripts = []  # the whole transcripts being assembled, which are not kept
    real_evaluate_row = kernel_class.evaluate_row
    real_transcript = kernel_class.transcript

    def counting_evaluate_row(self, i, codes, others):
        if not transcripts:
            evaluated.extend((i, others, code) for code in codes)
        return real_evaluate_row(self, i, codes, others)

    def marking_transcript(self, key):
        transcripts.append(key)
        try:
            return real_transcript(self, key)
        finally:
            transcripts.pop()

    monkeypatch.setattr(kernel_class, "evaluate_row", counting_evaluate_row)
    monkeypatch.setattr(kernel_class, "transcript", marking_transcript)
    for _ in range(2):
        for idx in range(len(scn.utility_profiles)):
            for state in scn.states:
                g = game.BayesianGame(scn, mech, state, idx)
                game.verify_bne(g, game.truthful_profile(g))
                game.search_equilibria(g, SHARED_BUDGET)
        if not direct:
            game.claim_audits(scn, mech)
    assert len(evaluated) == len(set(evaluated)) == len(_row_entries(mech.kernel())) > 0


def test_a_rescaled_copy_gets_a_fresh_table():
    scn = fixtures.perturbed_example()
    mech = mechanism.build_bne_mechanism(scn)
    for state in scn.states:
        g = game.BayesianGame(scn, mech, state, 0)
        game.verify_bne(g, game.truthful_profile(g))
    game.claim_audits(scn, mech)
    filled = _row_entries(mech.kernel())
    # a lowered refutation fine and a raised eps change transfers the
    # original's table already holds
    lowered = mech.with_scaling(tau_high=Fraction(0), eps=mech.scaling.eps * 100)
    assert lowered.kernel() is not mech.kernel() and _row_entries(lowered.kernel()) == {}
    assert _suite_fields(game.claim_audits(scn, lowered)) == _suite_fields(ref.claim_audits(scn, lowered))
    for idx in range(len(scn.utility_profiles)):
        for state in scn.states:
            new = game.BayesianGame(scn, lowered, state, idx)
            old = ref.BayesianGame(scn, lowered, state, idx)
            profile = game.truthful_profile(new)
            assert report_fields(game.verify_bne(new, profile)) == report_fields(ref.verify_bne(old, profile))
    refilled = _row_entries(lowered.kernel())
    shared = filled.keys() & refilled.keys()
    assert shared and any(filled[key] != refilled[key] for key in shared)
    assert _row_entries(mech.kernel()).items() >= filled.items()
