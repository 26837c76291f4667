"""Differential test: the bne bet table of witness bets against
`bet_table_reference`, the largest-margin LP table it replaced.

Both tables must bet on the same (truth, lie) pairs with the same subject
agents over the same weight domain; every witness bet must certify, meeting
its margin exactly, with a margin in (0, LP margin] and sup-norm 1; and the
scaling parameters built from either table must be equal on every
NPD-passing scenario."""

from dataclasses import fields

import bet_table_reference
from evimech import fixtures, generators, mechanism
from evimech.conditions import check_npd
from evimech.deception import _bet_domain, certify_bet
from evimech.mechanism import compute_scaling


def _scenarios():
    out = [(name, build()) for name, build in fixtures.ALL_FIXTURES.items()]
    out.extend((f"seed {seed}", generators.random_scenario(seed)) for seed in range(500))
    return out


def _fields(params):
    return [(f.name, getattr(params, f.name)) for f in fields(params)]


def test_witness_bet_table_matches_the_lp_table():
    bets_checked = below_lp = scalings_checked = 0
    for name, scn in _scenarios():
        bets, values = mechanism._synthesize_bet_table(scn)
        lp_bets, lp_values = bet_table_reference._synthesize_bet_table(scn)
        assert list(bets) == list(lp_bets), name
        for (truth, lie), bet in bets.items():
            lp_bet = lp_bets[(truth, lie)]
            case = (name, truth, lie)
            assert (bet.agent, bet.truth_state, bet.lie_state) == (lp_bet.agent, truth, lie), case
            domain = _bet_domain(scn, bet.agent, truth, lie)
            # the LP drops the weights it sets to zero; the witness bet has none
            assert [coll for coll, _ in bet.weights] == domain, case
            assert set(lp_bet.weight_map()) <= set(domain), case
            report = certify_bet(scn, bet)
            assert report.passed, case
            # the closed form meets its margin exactly on both sides
            assert (report.value_at_lie, report.robust_worst_case) == (-bet.margin, bet.margin), case
            assert 0 < bet.margin <= lp_bet.margin, case
            assert max(abs(w) for _, w in bet.weights) == 1, case
            bets_checked += 1
            below_lp += bet.margin < lp_bet.margin
        if check_npd(scn).passed:
            assert _fields(compute_scaling(scn, values)) == _fields(compute_scaling(scn, lp_values)), name
            scalings_checked += 1
    assert bets_checked == 2995
    assert 0 < below_lp < bets_checked
    assert scalings_checked == 470
