"""Reference for the differential tests: the `Fraction` max-flow.

This is `evimech.transport.solve_transport` as it stood before the search
moved to integer capacities over a common denominator, copied verbatim
apart from the absolute import of `collection_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from evimech.scenario import collection_key


@dataclass
class TransportResult:
    feasible: bool
    flow_value: Fraction
    arc_flows: dict  # (source collection, target collection) -> Fraction, positive only
    witness: "HallWitness | None"


@dataclass
class HallWitness:
    """Infeasibility certificate: scarce targets versus the sources able to serve them.

    `targets` is closed under supersets within the target support; the exact
    inequality demand > supply is re-verified on construction.
    """

    targets: tuple
    demand: Fraction
    sources: tuple
    supply: Fraction

    def verify(self) -> bool:
        return self.demand > self.supply


def solve_transport(supplies, demands) -> TransportResult:
    """Route supply mass to demands along subset arcs (target ⊆ source).

    supplies / demands: mapping collection -> positive Fraction with equal totals.
    Feasible iff the max flow moves the whole supply.
    """
    sources = sorted(supplies, key=collection_key)
    sinks = sorted(demands, key=collection_key)
    # Node ids: 0 = super source, 1..len(sources) sources, then sinks, then sink node.
    src_id = {c: 1 + i for i, c in enumerate(sources)}
    snk_id = {c: 1 + len(sources) + i for i, c in enumerate(sinks)}
    t_node = 1 + len(sources) + len(sinks)
    n = t_node + 1

    capacity = [dict() for _ in range(n)]
    adjacency = [[] for _ in range(n)]

    def add_edge(u, v, cap):
        if v not in capacity[u]:
            capacity[u][v] = Fraction(0)
            adjacency[u].append(v)
        if u not in capacity[v]:
            capacity[v][u] = Fraction(0)
            adjacency[v].append(u)
        capacity[u][v] += cap

    total_supply = Fraction(0)
    for coll in sources:
        add_edge(0, src_id[coll], Fraction(supplies[coll]))
        total_supply += Fraction(supplies[coll])
    total_demand = Fraction(0)
    for coll in sinks:
        add_edge(snk_id[coll], t_node, Fraction(demands[coll]))
        total_demand += Fraction(demands[coll])
    # Arc capacity bounded by source supply keeps values finite.
    for s_coll in sources:
        for d_coll in sinks:
            if d_coll <= s_coll:
                add_edge(src_id[s_coll], snk_id[d_coll], Fraction(supplies[s_coll]))

    flow = [dict.fromkeys(capacity[u], Fraction(0)) for u in range(n)]

    def bfs_path():
        parent = {0: None}
        queue = [0]
        while queue:
            u = queue.pop(0)
            if u == t_node:
                break
            for v in adjacency[u]:
                if v not in parent and capacity[u][v] - flow[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if t_node not in parent:
            return None
        path = []
        v = t_node
        while parent[v] is not None:
            u = parent[v]
            path.append((u, v))
            v = u
        path.reverse()
        return path

    value = Fraction(0)
    while True:
        path = bfs_path()
        if path is None:
            break
        bottleneck = min(capacity[u][v] - flow[u][v] for u, v in path)
        for u, v in path:
            flow[u][v] += bottleneck
            flow[v][u] -= bottleneck
        value += bottleneck

    arc_flows = {}
    for s_coll in sources:
        u = src_id[s_coll]
        for d_coll in sinks:
            v = snk_id.get(d_coll)
            if v in capacity[u] and flow[u][v] > 0:
                arc_flows[(s_coll, d_coll)] = flow[u][v]

    feasible = value == total_supply and total_supply == total_demand
    witness = None
    if not feasible:
        reachable = {0}
        queue = [0]
        while queue:
            u = queue.pop(0)
            for v in adjacency[u]:
                if v not in reachable and capacity[u][v] - flow[u][v] > 0:
                    reachable.add(v)
                    queue.append(v)
        scarce = tuple(c for c in sinks if snk_id[c] not in reachable)
        serving = tuple(
            c for c in sources if any(d <= c for d in scarce)
        )
        witness = HallWitness(
            targets=scarce,
            demand=sum((Fraction(demands[c]) for c in scarce), Fraction(0)),
            sources=serving,
            supply=sum((Fraction(supplies[c]) for c in serving), Fraction(0)),
        )
    return TransportResult(feasible, value, arc_flows, witness)
