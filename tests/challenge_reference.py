"""Oracle for the challenge differential test: the pure variant's challenge
table and two-point bets as they stood before they ran on integers.

`enumerate_challenges` and `synthesize_gamma_delta` are copied verbatim from
`evimech.mechanism` and `evimech.deception`: every (combination of pure
assignments, target state) pair rebuilds each agent's induced `Distribution`
until one misses its target marginal, and the two-point bet is solved in
`Fraction`s and checked with `Distribution.dot`.

`compile_tables` is the table part of `Kernel.__init__` copied verbatim from
`evimech.mechanism` as it stood before the kernel read the scenario's cached
integer alphabets: every table entry is a `Fraction` (each bet payment read
through `Bet.value`) until one lcm `D` turns them into numerators.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from evimech.deception import NoImbalance, NotSeparating, PurePlan, TwoPointBet, induced_distribution
from evimech.mechanism import Challenge, pure_assignments
from evimech.rationals import common_denominator, numerators, quadratic_scores
from evimech.scenario import Scenario, collection_key


def synthesize_gamma_delta(scenario: Scenario, pure_plan: PurePlan) -> TwoPointBet:
    """Two-point bet against an imperfect pure plan: wins under the plan,
    loses against truthful play at the claimed state."""
    induced = induced_distribution(pure_plan.as_transport(scenario))
    target = scenario.dist(pure_plan.agent, pure_plan.target_state)
    domain = sorted(set(induced.support()) | set(target.support()), key=collection_key)
    short = next((c for c in domain if induced.prob(c) < target.prob(c)), None)
    long = next((c for c in domain if induced.prob(c) > target.prob(c)), None)
    if short is None or long is None:  # equal, or unequal masses in total
        raise NoImbalance("pure plan has no short and long collection against the target distribution")
    a, b = induced.prob(short), induced.prob(long)
    a_t, b_t = target.prob(short), target.prob(long)
    # gamma = -r, delta = 1 works for any ratio r in (b_t/a_t, b/a); a_t > 0 always.
    low = b_t / a_t
    high = b / a if a > 0 else low + 2
    ratio = (low + high) / 2
    gamma = -ratio
    delta = Fraction(1)
    scale = gamma.denominator
    gamma, delta = gamma * scale, delta * scale
    weights = {short: gamma, long: delta}
    if not induced.dot(weights) > 0 > target.dot(weights):
        raise NotSeparating(
            f"two-point bet ({gamma}, {delta}) must win under the plan and lose at {pure_plan.target_state}"
        )
    return TwoPointBet(pure_plan.agent, short, long, gamma, delta)


def enumerate_challenges(scenario: Scenario):
    """(bets, bet values): every valid challenge's two-point bet, keyed by
    (challenge, its target state), and the gammas and deltas they pay."""
    bets = {}
    for source_state in scenario.states:
        profiles = [
            pure_assignments(scenario, agent, source_state) for agent in scenario.agents
        ]
        for combo in itertools.product(*profiles):
            for target_state in scenario.states:
                if target_state == source_state:
                    continue
                # the first agent whose plan misses its target marginal is the
                # subject of the challenge's bet
                for agent, rows in zip(scenario.agents, combo):
                    plan = PurePlan(agent, source_state, target_state, rows)
                    if induced_distribution(plan.as_transport(scenario)) != scenario.dist(agent, target_state):
                        break
                else:
                    continue
                challenge = Challenge(
                    target_state=target_state,
                    source_state=source_state,
                    assignments=tuple(zip(scenario.agents, combo)),
                )
                bets[(challenge, target_state)] = synthesize_gamma_delta(scenario, plan)
    return bets, [value for bet in bets.values() for value in (bet.gamma, bet.delta)]


def compile_tables(mech) -> tuple:
    """(D, tau_low, tau_high, score, incentive, claims): the kernel tables of
    `mech` as `Kernel.__init__` filled them from `Fraction`s."""
    scn = mech.scenario
    index = {agent: i for i, agent in enumerate(scn.agents)}
    state_index = {state: k for k, state in enumerate(scn.states)}
    alphabets = [scn.alphabet(agent) for agent in scn.agents]
    evidence = [scn.evidence(a)[0] for a in scn.agents]

    # exact values first, then every table as numerators over their lcm D
    eps, tau_low = mech.scaling.eps, mech.scaling.tau_low
    probs = [[dict(p.items()) for p in alphabet] for alphabet in alphabets]
    score = [[[tau_low * s for s in quadratic_scores(p, evidence[j])] for p in row] for j, row in enumerate(probs)]
    incentive = [[eps * len(e) for e in row] for row in evidence]
    # claim -> consensus state index -> (subject index, payments by the
    # subject's evidence code)
    claims = {}
    for (claim, state), bet in mech.bets.items():
        j = index[bet.agent]
        claims.setdefault(claim, {})[state_index[state]] = (j, [eps * bet.value(e) for e in evidence[j]])
    taus = [mech.scaling.tau_low, mech.scaling.tau_high]
    rows = [taus, *incentive, *(row for table in score for row in table)]
    rows.extend(payments for bets in claims.values() for _, payments in bets.values())
    D = common_denominator(value for row in rows for value in row)
    tau_low, tau_high = numerators(taus, D)
    incentive = [numerators(row, D) for row in incentive]
    score = [[numerators(row, D) for row in table] for table in score]
    claims = {c: {1 << k: (j, numerators(row, D)) for k, (j, row) in bets.items()} for c, bets in claims.items()}
    return D, tau_low, tau_high, score, incentive, claims
