"""Differential test: the equilibrium search against
`game_reference.search_equilibria`, which runs `verify_bne` on every pure
profile and values every message with `expected_utility` in its dynamics.

`BUDGET` runs phase (a), the pure enumeration by best-response tables, alone.
The corpus is every state of the fixtures and of
`random_scenario(seed, max_states=3)` for seeds 0-199, two and three agents,
under the direct mechanism, the bne mechanism (built where NPD holds,
assembled without the gate where it fails but SM holds, so that deception
equilibria are hits) and, where z fits, the pure mechanism, at the constant
utility profile 0 (massive ties) and the last profile. It keeps the games of
at most `SMALL` pure profiles, the NPD-failing ones up to `NPD_FAILING`, and
the `LARGE` games above 4,096 profiles: the reference takes about 8 s and
9 s on those two.

`DYNAMICS` runs phase (c), the best-response dynamics, alone, on a slice:
the three-agent games and those above the default `pure_cap`, of the
fixtures and of every `DYNAMICS_SEEDS` scenario.
"""

import math

import pytest

import game_reference as ref
from evimech import fixtures, game, generators, mechanism
from evimech.conditions import check_npd, check_nppd, check_stochastic_measurability
from test_game_differential import _search_fields

BUDGET = game.SearchBudget(pure_cap=20000, plan_cap=0, seeds=())
SMALL = 200
NPD_FAILING = 1300
LARGE = {("perturbed", "direct", "H", 1), ("seed 82", "direct", "s2", 0)}
DYNAMICS = game.SearchBudget(pure_cap=0, plan_cap=0, seeds=(0, 1, 2))
DYNAMICS_SEEDS = range(0, 200, 30)

SCENARIOS = [(name, build()) for name, build in fixtures.ALL_FIXTURES.items()]
SCENARIOS.extend((f"seed {seed}", generators.random_scenario(seed, max_states=3)) for seed in range(200))


def _mechanisms(scn):
    mechs = [("direct", game.DirectMechanism(scn))]
    if check_stochastic_measurability(scn).passed:
        if check_npd(scn).passed:
            mechs.append(("bne", mechanism.build_bne_mechanism(scn)))
        else:
            mechs.append(("npd-failing", mechanism.assemble_bne_mechanism(scn)))
        if mechanism.pure_profile_count(scn) <= 4096 and check_nppd(scn).passed:
            mechs.append(("pure", mechanism.build_pure_mechanism(scn)))
    return mechs


def _games(name, scn):
    """(kind, mechanism, state, profile index, pure profile count) per game."""
    games = []
    for kind, mech in _mechanisms(scn):
        for state in scn.states:
            size = math.prod(len(menu) for menu in game.BayesianGame(scn, mech, state, 0).actions.values())
            for idx in dict.fromkeys((0, len(scn.utility_profiles) - 1)):
                limit = NPD_FAILING if kind == "npd-failing" else SMALL
                if size <= limit or (name, kind, state, idx) in LARGE:
                    games.append((kind, mech, state, idx, size))
    return games


@pytest.mark.parametrize("name, scn", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_pure_enumeration_matches_reference(name, scn):
    for kind, mech, state, idx, _ in _games(name, scn):
        new = game.search_equilibria(game.BayesianGame(scn, mech, state, idx), BUDGET)
        old = ref.search_equilibria(ref.BayesianGame(scn, mech, state, idx), BUDGET)
        assert _search_fields(*new) == _search_fields(*old), (kind, state, idx)


def test_search_corpus_is_not_vacuous():
    games = [(name, len(scn.agents), *game_) for name, scn in SCENARIOS for game_ in _games(name, scn)]
    assert len(games) >= 300
    kinds = {kind for _, _, kind, *_ in games}
    assert kinds == {"direct", "bne", "npd-failing", "pure"}
    assert sum(agents == 3 for _, agents, *_ in games) >= 30
    assert sum(size > 4096 for *_, size in games) == len(LARGE)
    assert {idx for *_, idx, _ in games} == {0, 1}
    # NPD fails on seed 4: deception equilibria at s1 are hits off the SCF
    scn = dict(SCENARIOS)["seed 4"]
    _, mech, state, idx, _ = next(g for g in _games("seed 4", scn) if g[0] == "npd-failing")
    results, _ = game.search_equilibria(game.BayesianGame(scn, mech, state, idx), BUDGET)
    assert any(item["report"].on_path_outcomes != {scn.scf[state]: 1} for item in results)


def _dynamics_games(name, scn):
    """The slice's games for the dynamics: those of three agents or above the
    default `pure_cap`, at every state of a fixture and the first state of a
    random scenario, at the constant utility profile 0 and the last."""
    states = scn.states[:1] if name.startswith("seed") else scn.states
    games = []
    for kind, mech in _mechanisms(scn):
        for state in states:
            size = math.prod(len(menu) for menu in game.BayesianGame(scn, mech, state, 0).actions.values())
            if len(scn.agents) == 3 or size > game.SearchBudget().pure_cap:
                for idx in dict.fromkeys((0, len(scn.utility_profiles) - 1)):
                    games.append((kind, mech, state, idx, size))
    return games


DYNAMICS_SCENARIOS = [
    (name, scn)
    for name, scn in SCENARIOS
    if not name.startswith("seed") or int(name.split()[1]) in DYNAMICS_SEEDS
]


@pytest.mark.parametrize("name, scn", DYNAMICS_SCENARIOS, ids=[name for name, _ in DYNAMICS_SCENARIOS])
def test_dynamics_match_reference(name, scn):
    # the dynamics read the enumeration's best-response table; the reference
    # values every message of every type with `expected_utility`
    for kind, mech, state, idx, _ in _dynamics_games(name, scn):
        new = game.search_equilibria(game.BayesianGame(scn, mech, state, idx), DYNAMICS)
        old = ref.search_equilibria(ref.BayesianGame(scn, mech, state, idx), DYNAMICS)
        assert _search_fields(*new) == _search_fields(*old), (kind, state, idx)


def test_dynamics_slice_is_not_vacuous():
    games = [(len(scn.agents), *game_) for name, scn in DYNAMICS_SCENARIOS for game_ in _dynamics_games(name, scn)]
    assert len(games) >= 40
    assert sum(agents == 3 for agents, *_ in games) >= 15
    assert sum(size > game.SearchBudget().pure_cap for *_, size in games) >= 30
    assert {kind for _, kind, *_ in games} >= {"direct", "bne", "npd-failing"}
