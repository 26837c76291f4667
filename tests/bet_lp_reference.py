"""Oracle for the bet-LP differential test: `synthesize_bet` as it stood
before the LP was rewritten over integer rows with a feasible origin.

`synthesize_bet` is copied verbatim from `evimech.deception`: the
largest-margin LP over the lie-support weights, the per-source minima and
the margin, with `Fraction` probabilities, free variables and a `>=` row, so
its solver runs phase 1 on every call. That solver is the two-phase
`maximize` frozen in `two_phase_reference.py`, since `evimech.simplex` takes
only integer `<=` rows with a feasible origin. Its bet domain, `_bet_domain`,
is copied verbatim from `evimech.deception` as it stood when this oracle was
made self-contained.
"""

from __future__ import annotations

from fractions import Fraction

import two_phase_reference as simplex
from evimech.deception import Bet, InfeasibleSeparation
from evimech.scenario import Scenario


def _bet_domain(scenario: Scenario, agent, truth_state, lie_state):
    """The agent's presentable collections not refuted at the truth, and the lie's support."""
    presentable, _, refuted = scenario.evidence(agent)
    truth = 1 << scenario.states.index(truth_state)
    lie_support = set(scenario.support(agent, lie_state))
    return [coll for coll, mask in zip(presentable, refuted) if not mask & truth or coll in lie_support]


def synthesize_bet(scenario: Scenario, agent, truth_state, lie_state) -> Bet:
    """Largest-margin separating bet with sup-norm at most 1, solved as one LP.

    The builders take `witness_bet` instead, which needs no LP; this LP is
    the independent side of the duality check (a perfect deception exists
    exactly when no bet has a positive margin) and the oracle whose margin
    bounds the witness bet's from above.

    Sourcewise minima encode the deception polytope exactly: a deceiving agent
    best-responds source by source, each picking its cheapest legal target.
    Weights off the lie state's support carry no mass in the lie-value and only
    cap the sourcewise minima, so they are pinned to +1 without loss; the LP
    ranges over the lie-support weights alone.
    """
    sources = scenario.support(agent, truth_state)
    truth_dist = scenario.dist(agent, truth_state)
    lie_dist = scenario.dist(agent, lie_state)
    domain = _bet_domain(scenario, agent, truth_state, lie_state)
    lie_support = lie_dist.support()
    col_index = {c: i for i, c in enumerate(lie_support)}
    n_w = len(lie_support)
    n_z = len(sources)
    n = n_w + n_z + 1  # lie-support weights, per-source minima, margin
    margin_col = n - 1

    # Coefficients are the ints 0, 1 and -1 apart from the probabilities,
    # which stay Fractions; `simplex.maximize` reads both exactly.
    constraints = []
    # Value under truthful play at the lie state stays below -margin.
    row = [0] * n
    for coll, prob in lie_dist.items():
        row[col_index[coll]] += prob
    row[margin_col] = 1
    constraints.append((row, simplex.LE, 0))
    # z_K lower-bounds every weight the source K could present; off-support
    # presentations are worth the pinned +1.
    for k_idx, src in enumerate(sources):
        row = [0] * n
        row[n_w + k_idx] = 1
        constraints.append((row, simplex.LE, 1))
        for coll in lie_support:
            if coll <= src:
                row = [0] * n
                row[n_w + k_idx] = 1
                row[col_index[coll]] -= 1
                constraints.append((row, simplex.LE, 0))
    # Worst-case value at the truth state stays above +margin.
    row = [0] * n
    for k_idx, src in enumerate(sources):
        row[n_w + k_idx] = truth_dist.prob(src)
    row[margin_col] = -1
    constraints.append((row, simplex.GE, 0))

    objective = [0] * n
    objective[margin_col] = 1
    bounds = [(-1, 1)] * n_w + [(None, None)] * n_z + [(None, None)]

    result = simplex.maximize(objective, constraints, bounds)
    if result.status != "optimal":
        raise InfeasibleSeparation(f"bet LP ended {result.status}")
    margin = result.values[margin_col]
    if margin <= 0:
        raise InfeasibleSeparation(
            f"no separating bet for {agent}: perfect deception {truth_state}->{lie_state} exists"
        )
    weight_map = {coll: result.values[col_index[coll]] for coll in lie_support}
    for coll in domain:
        if coll not in weight_map:
            weight_map[coll] = Fraction(1)
    weights = tuple(
        (coll, weight_map[coll]) for coll in domain if weight_map[coll] != 0
    )
    return Bet(agent, truth_state, lie_state, weights, margin)
