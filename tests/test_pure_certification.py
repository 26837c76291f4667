"""Differential test: the best-response table's verdict on every pure profile
the equilibrium search considers in phases (b) and (c), against `verify_bne`
on the same profile.

`search_equilibria` keeps a pure profile iff each type's menu position lies
in its best-response set, and reports it with every slack 0 and no witness.
Here every game is searched over the cap (`pure_cap=0`), so that the pure
deception profiles of phase (b) and the dynamics end points of phase (c) are
all it judges by the table. The corpus is every state of the fixtures and
the first state of `random_scenario(seed, max_states=3)` for seeds 0-59,
under the direct mechanism and the bne mechanism (built where NPD holds,
assembled without the gate where it fails but SM holds), at the constant
utility profile 0 and the last. Each considered profile, rejected ones
included, is recorded where the search keys it (`game._play_key`).
"""

import pytest

from evimech import fixtures, game, generators, mechanism
from evimech.conditions import check_npd, check_stochastic_measurability
from test_game_differential import report_fields

BUDGET = game.SearchBudget(pure_cap=0)

SCENARIOS = [(name, build()) for name, build in fixtures.ALL_FIXTURES.items()]
SCENARIOS.extend((f"seed {seed}", generators.random_scenario(seed, max_states=3)) for seed in range(60))


def _games(name, scn):
    states = scn.states[:1] if name.startswith("seed") else scn.states
    mechs = [game.DirectMechanism(scn)]
    if check_stochastic_measurability(scn).passed:
        build = mechanism.build_bne_mechanism if check_npd(scn).passed else mechanism.assemble_bne_mechanism
        mechs.append(build(scn))
    for mech in mechs:
        for state in states:
            for idx in dict.fromkeys((0, len(scn.utility_profiles) - 1)):
                yield game.BayesianGame(scn, mech, state, idx)


def _considered_pure(g, monkeypatch):
    """The search's results and the strategies (menu positions) of every pure
    profile it considered, each once, in the order first considered."""
    plays = []
    real = game._play_key

    def recording(play):
        plays.append(play)
        return real(play)

    with monkeypatch.context() as patch:
        patch.setattr(game, "_play_key", recording)
        results, _ = game.search_equilibria(g, BUDGET)
    strategies = [
        tuple(tuple(g._codes[(a, c)].index(play[(a, c)][1][0]) for c in g.types[a]) for a in g.scenario.agents)
        for play in plays
        if all(len(codes) == 1 for _, codes, _ in play.values())
    ]
    return results, list(dict.fromkeys(strategies))


def _is_pure(profile):
    return all(len(mixture) == 1 for per_type in profile.values() for mixture in per_type.values())


@pytest.mark.parametrize("name, scn", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_table_verdicts_match_verify_bne(name, scn, monkeypatch):
    for g in _games(name, scn):
        results, considered = _considered_pure(g, monkeypatch)
        table = game._best_response_table(g)
        hits = []
        for strategies in considered:
            admitted = all(
                all(pos in best for pos, best in zip(strategy, table(i, strategies)))
                for i, strategy in enumerate(strategies)
            )
            profile = game._pure_profile(g, strategies)
            report = game.verify_bne(g, profile)
            assert admitted == report.is_bne, (g.mech, g.state, g.profile_idx, strategies)
            if report.is_bne:
                hits.append((profile, report_fields(report)[:-1]))
        # the search lists each pure hit once, in the order considered, with
        # verify_bne's report (apart from the stamp), and no pure profile
        # verify_bne rejects
        found = [(item["profile"], report_fields(item["report"])[:-1]) for item in results if _is_pure(item["profile"])]
        assert found == hits, (g.mech, g.state, g.profile_idx)


def test_certification_corpus_is_not_vacuous(monkeypatch):
    # admitted and rejected pure profiles from both phases, and mixed hits
    # that only verify_bne judges
    admitted, rejected, mixed = [], 0, 0
    for name, scn in SCENARIOS[:12]:
        for g in _games(name, scn):
            results, considered = _considered_pure(g, monkeypatch)
            stamps = [item["stamp"] for item in results if _is_pure(item["profile"])]
            admitted.extend(stamps)
            rejected += len(considered) - len(stamps)
            mixed += len(results) - len(stamps)
    assert len(admitted) >= 1000 and rejected >= 1000 and mixed >= 1
    assert set(admitted) == {"CLOSURE_FAMILY", "HEURISTIC"}
