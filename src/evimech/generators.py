"""Seeded random scenarios for property suites.

Seed protocol (documented so frozen expectations stay reproducible): a single
`random.Random(seed)` drives, in order, (1) agent count, (2) state count,
(3) article count, (4) outcome count, (5) per agent and state the support
size, the support collections (bitmask draws, resampled on collision), the
denominator, and the probability cut points, (6) the outcome map, (7) one
random utility profile with eighths in [-1/4, 1/4]. Sizes stay small
(<=3 agents, <=4 states, <=3 articles, denominators <=12) so exhaustive
deception searches remain tractable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .fixtures import make_scenario
from .scenario import Scenario

F = Fraction
MAX_AGENTS, MAX_ARTICLES, MAX_DENOMINATOR = 3, 3, 12  # bounds of the draw protocol


def random_scenario(seed: int, max_states: int = 4, degenerate: bool = False) -> Scenario:
    rng = random.Random(seed)
    n_agents = rng.randint(2, MAX_AGENTS)
    n_states = rng.randint(2, max_states) if max_states >= 2 else 1
    n_articles = rng.randint(1, MAX_ARTICLES)
    agents = tuple(f"A{i}" for i in range(n_agents))
    states = tuple(f"s{i}" for i in range(n_states))
    articles = tuple(f"e{i}" for i in range(n_articles))
    n_outcomes = rng.randint(1, n_states)
    outcomes = tuple(f"o{i}" for i in range(n_outcomes))

    def draw_collection():
        mask = rng.randrange(2**n_articles)
        return frozenset(a for i, a in enumerate(articles) if mask & (1 << i))

    dists = {}
    for agent in agents:
        for state in states:
            if degenerate:
                dists[(agent, state)] = {draw_collection(): F(1)}
                continue
            size = rng.randint(1, min(3, 2**n_articles))
            support = []
            while len(support) < size:
                coll = draw_collection()
                if coll not in support:
                    support.append(coll)
            den = rng.randint(len(support), MAX_DENOMINATOR)
            if len(support) == 1:
                weights = [den]
            else:
                cuts = sorted(rng.sample(range(1, den), len(support) - 1))
                edges = [0] + cuts + [den]
                weights = [b - a for a, b in zip(edges, edges[1:])]
            dists[(agent, state)] = {
                coll: F(w, den) for coll, w in zip(support, weights)
            }

    scf = {state: outcomes[rng.randrange(n_outcomes)] for state in states}
    profile = {
        agent: {outcome: F(rng.randint(-2, 2), 8) for outcome in outcomes} for agent in agents
    }
    return make_scenario(
        agents=agents,
        states=states,
        articles=articles,
        dists=dists,
        scf=scf,
        outcomes=outcomes,
        utility_values=[profile],
    )
