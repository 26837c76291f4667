"""Oracle for the bet-table differential test: the bne bet table as it stood
before its bets were read off the Hall witness.

`_synthesize_bet_table` is copied verbatim from `evimech.mechanism`: each
(truth, lie) pair gets the largest-margin LP bet (`synthesize_bet`) of the
first agent with no perfect deception from truth to lie.
"""

from __future__ import annotations

from evimech.deception import find_perfect_deception, synthesize_bet
from evimech.scenario import Scenario


def _synthesize_bet_table(scenario: Scenario):
    """(bets, bet values): the bne bet table and every weight its bets pay."""
    bets = {}
    for truth in scenario.states:
        for lie in scenario.states:
            if truth == lie:
                continue
            chosen = None
            for agent in scenario.agents:
                if find_perfect_deception(scenario, agent, truth, lie) is None:
                    chosen = agent
                    break
            if chosen is None:
                continue
            bets[(truth, lie)] = synthesize_bet(scenario, chosen, truth, lie)
    return bets, [w for bet in bets.values() for _, w in bet.weights]
