"""Exact max-flow on the subset-arc transport network behind deception feasibility.

Supplies and demands come in as integer masses over the caller's common
denominator `L` (for a deception, the agent's alphabet scale), and the
Edmonds–Karp search (breadth-first augmenting paths; Edmonds and Karp,
*J. ACM* 19, 1972) runs on them as capacities. Scaling by `L` changes no
comparison and no path choice, so the flows are the rational flows divided
by `L`; they come out as `Fraction`s, built only for the returned flow value,
arc flows and witness sums.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class TransportResult:
    feasible: bool
    flow_value: Fraction
    arc_flows: dict  # (source collection, target collection) -> Fraction, positive only, in the keys' order
    witness: "HallWitness | None"


class NotScarce(ValueError):
    """A Hall witness whose targets demand no more than their sources supply."""


@dataclass(frozen=True)
class HallWitness:
    """Infeasibility certificate: scarce targets versus the sources able to serve them.

    `targets` is closed under supersets within the target support; the exact
    inequality demand > supply is re-verified on construction (`NotScarce`).
    """

    targets: tuple
    demand: Fraction
    sources: tuple
    supply: Fraction

    def __post_init__(self):
        if not self.verify():
            raise NotScarce(f"witness demand {self.demand} does not exceed its supply {self.supply}")

    def verify(self) -> bool:
        return self.demand > self.supply


def solve_transport(supplies, demands, scale) -> TransportResult:
    """Route supply mass to demands along subset arcs (target ⊆ source).

    supplies / demands: mapping collection -> positive `int` mass over the
    positive `int` `scale` (the rational mass is mass / scale), with equal
    totals, each keyed in canonical collection order (`collection_key`), as
    the rows of `AlphabetTable.masses` are. The search, `arc_flows` and the
    witness follow the keys' order, so canonical keys give canonical
    results. Any other mass or scale raises `TypeError` (a `bool` is not a
    mass), and a scale below 1 `ValueError`: a `Fraction` mass would
    otherwise be divided by `scale` a second time. Feasible iff the max flow
    moves the whole supply. An infeasible result carries the `HallWitness`
    of its minimum cut, which is scarce whenever the flow falls short of the
    demand; unequal totals with every demand met have no such witness and
    raise `NotScarce`.
    """
    if type(scale) is not int:
        raise TypeError(f"scale must be an int, got {type(scale).__name__}")
    if scale < 1:
        raise ValueError(f"scale must be positive, got {scale}")
    sources = list(supplies)
    sinks = list(demands)
    supply = [supplies[c] for c in sources]
    demand = [demands[c] for c in sinks]
    for mass in supply + demand:
        if type(mass) is not int:
            raise TypeError(f"masses must be ints over scale, got {type(mass).__name__}")

    # Node ids: 0 = super source, 1..len(sources) sources, then sinks, then sink node.
    # residual[u] maps each neighbour of u to the integer residual capacity of
    # u -> v (a reverse arc starts at 0); the search visits neighbours in
    # insertion order.
    first_sink = 1 + len(sources)
    t_node = first_sink + len(sinks)
    residual = [dict() for _ in range(t_node + 1)]
    for i, mass in enumerate(supply):
        residual[0][1 + i] = mass
        residual[1 + i][0] = 0
    for j, mass in enumerate(demand):
        residual[first_sink + j][t_node] = mass
        residual[t_node][first_sink + j] = 0
    # Arc capacity bounded by source supply keeps values finite.
    for i, s_coll in enumerate(sources):
        for j, d_coll in enumerate(sinks):
            if d_coll <= s_coll:
                residual[1 + i][first_sink + j] = supply[i]
                residual[first_sink + j][1 + i] = 0

    value = 0
    while True:
        # Breadth-first search for a shortest augmenting path. It may stop once
        # the sink is reached: no parent is ever reassigned, so the path is the
        # one a full search would give.
        parent = {0: None}
        queue = deque((0,))
        while queue and t_node not in parent:
            u = queue.popleft()
            for v, room in residual[u].items():
                if room > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t_node not in parent:
            break
        path = []
        v = t_node
        while v:
            u = parent[v]
            path.append((u, v))
            v = u
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        value += bottleneck

    arc_flows = {}
    for i, s_coll in enumerate(sources):
        out = residual[1 + i]
        for j, d_coll in enumerate(sinks):
            v = first_sink + j
            if v in out and out[v] < supply[i]:
                arc_flows[(s_coll, d_coll)] = Fraction(supply[i] - out[v], scale)

    total_supply = sum(supply)
    feasible = value == total_supply and total_supply == sum(demand)
    witness = None
    if not feasible:
        reachable = {0}
        queue = deque((0,))
        while queue:
            u = queue.popleft()
            for v, room in residual[u].items():
                if room > 0 and v not in reachable:
                    reachable.add(v)
                    queue.append(v)
        scarce = [j for j in range(len(sinks)) if first_sink + j not in reachable]
        targets = tuple(sinks[j] for j in scarce)
        serving = [i for i, c in enumerate(sources) if any(d <= c for d in targets)]
        witness = HallWitness(
            targets=targets,
            demand=Fraction(sum(demand[j] for j in scarce), scale),
            sources=tuple(sources[i] for i in serving),
            supply=Fraction(sum(supply[i] for i in serving), scale),
        )
    return TransportResult(feasible, Fraction(value, scale), arc_flows, witness)
