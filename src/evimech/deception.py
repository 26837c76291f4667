"""Deceptions as mass transports, separating bets, and their certificates."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import simplex
from .scenario import Distribution, Scenario, collection_key, format_collection, subsets
from .transport import HallWitness, solve_transport


class InfeasibleSeparation(ValueError):
    """Bet synthesis was asked for a pair that admits a perfect deception."""


class NoImbalance(ValueError):
    """Two-point bet construction needs an imperfect pure plan."""


class NotSeparating(RuntimeError):
    """A synthesized bet misses the signs it was constructed to have, or the
    Hall witness it is read from is not scarce in the scenario."""


@dataclass(frozen=True)
class TransportPlan:
    """Mass routing from source collections at `source_state` onto claimed
    (target_state, sub-collection) types; flows positive, each target within
    its source."""

    agent: str
    source_state: str
    target_state: str
    flows: tuple  # ((source, target, Fraction), ...) canonical order

    def flow_map(self):
        return {(src, dst): f for src, dst, f in self.flows}

    def check(self, scenario: Scenario) -> list:
        problems = []
        dist = scenario.dist(self.agent, self.source_state)
        out_mass = {}
        for src, dst, f in self.flows:
            if f < 0:
                problems.append(f"negative flow on {format_collection(src)}->{format_collection(dst)}")
            if f > 0 and not dst <= src:
                problems.append(f"target {format_collection(dst)} not within source {format_collection(src)}")
            out_mass[src] = out_mass.get(src, Fraction(0)) + f
        for src in dist.support():
            if out_mass.get(src, Fraction(0)) != dist.prob(src):
                problems.append(f"out-mass of {format_collection(src)} differs from its probability")
        for src in out_mass:
            if dist.prob(src) == 0:
                problems.append(f"flow out of zero-probability source {format_collection(src)}")
        return problems


@dataclass(frozen=True)
class PurePlan:
    agent: str
    source_state: str
    target_state: str
    assignment: tuple  # ((source, target), ...) canonical order

    def assignment_map(self):
        return dict(self.assignment)

    def as_transport(self, scenario: Scenario) -> TransportPlan:
        dist = scenario.dist(self.agent, self.source_state)
        flows = tuple(
            (src, dst, dist.prob(src)) for src, dst in self.assignment
        )
        return TransportPlan(self.agent, self.source_state, self.target_state, flows)


def identity_plan(scenario: Scenario, agent, state) -> TransportPlan:
    flows = tuple((c, c, p) for c, p in scenario.dist(agent, state).items())
    return TransportPlan(agent, state, state, flows)


def induced_distribution(plan: TransportPlan) -> Distribution:
    masses = {}
    for _, dst, f in plan.flows:
        masses[dst] = masses.get(dst, Fraction(0)) + f
    return Distribution(masses)


@dataclass(frozen=True)
class PerfectDeceptionResult:
    plan: TransportPlan | None
    flow_value: Fraction
    witness: HallWitness | None

    @property
    def exists(self) -> bool:
        return self.plan is not None


def perfect_deception(scenario: Scenario, agent, source_state, target_state) -> PerfectDeceptionResult:
    """Decide whether the agent can exactly mimic her `target_state` distribution
    while truly at `source_state` (rational max-flow on the subset network).

    Solved once per scenario: the read-only result is kept in the scenario's
    cache, so the conditions, the reports and the builders share each
    transport."""
    key = ("perfect_deception", agent, source_state, target_state)
    if key not in scenario._cache:
        scenario._cache[key] = _solve_perfect_deception(scenario, agent, source_state, target_state)
    return scenario._cache[key]


def _solve_perfect_deception(scenario: Scenario, agent, source_state, target_state) -> PerfectDeceptionResult:
    if source_state == target_state:
        return PerfectDeceptionResult(identity_plan(scenario, agent, source_state), Fraction(1), None)
    table = scenario.alphabet_table(agent)
    supplies, demands = (
        table.masses[table.truth[scenario.state_index(state)]] for state in (source_state, target_state)
    )
    result = solve_transport(supplies, demands, table.scale)
    if not result.feasible:
        return PerfectDeceptionResult(None, result.flow_value, result.witness)
    # the masses are keyed in canonical collection order, and so are the arcs
    flows = tuple((src, dst, f) for (src, dst), f in result.arc_flows.items())
    return PerfectDeceptionResult(
        TransportPlan(agent, source_state, target_state, flows), result.flow_value, None
    )


def find_perfect_deception(scenario: Scenario, agent, source_state, target_state) -> TransportPlan | None:
    return perfect_deception(scenario, agent, source_state, target_state).plan


def _assign_sources(sources, masses, residual, assignment, idx):
    """Backtrack sources[idx:] onto sub-collections with enough residual demand.

    A module-level function rather than a recursive closure: a closure that
    calls itself is a reference cycle, which keeps each call's state alive
    until the cyclic collector runs.
    """
    if idx == len(sources):
        return all(r == 0 for r in residual.values())
    src, mass = sources[idx], masses[idx]
    options = [t for t in residual if t <= src and residual[t] >= mass]
    options.sort(key=lambda t: (-residual[t], collection_key(t)))
    for tgt in options:
        residual[tgt] -= mass
        assignment[src] = tgt
        if _assign_sources(sources, masses, residual, assignment, idx + 1):
            return True
        residual[tgt] += mass
        del assignment[src]
    return False


def find_pure_perfect_deception(scenario: Scenario, agent, source_state, target_state) -> PurePlan | None:
    """Degenerate perfect deception via backtracking with exact residual
    demands, searched once per scenario (the plan, or None, is cached)."""
    key = ("pure_perfect_deception", agent, source_state, target_state)
    if key not in scenario._cache:
        scenario._cache[key] = _search_pure_perfect_deception(scenario, agent, source_state, target_state)
    return scenario._cache[key]


def _search_pure_perfect_deception(scenario: Scenario, agent, source_state, target_state) -> PurePlan | None:
    if source_state == target_state:
        assignment = tuple((c, c) for c in scenario.support(agent, source_state))
        return PurePlan(agent, source_state, target_state, assignment)
    source_dist = scenario.dist(agent, source_state)
    target_dist = scenario.dist(agent, target_state)
    # Heaviest sources first; deterministic tie-break by canonical collection order.
    sources = sorted(source_dist.support(), key=lambda c: (-source_dist.prob(c), collection_key(c)))
    residual = {c: target_dist.prob(c) for c in target_dist.support()}
    assignment = {}
    masses = [source_dist.prob(src) for src in sources]
    if not _assign_sources(sources, masses, residual, assignment, 0):
        return None
    pairs = tuple((src, assignment[src]) for src in sorted(assignment, key=collection_key))
    return PurePlan(agent, source_state, target_state, pairs)


# -- separating bets ---------------------------------------------------------


@dataclass(frozen=True)
class Bet:
    """Weights over one agent's collections, losing against truthful play at
    the lie and winning against every deception at the truth (margin > 0)."""

    agent: str
    truth_state: str
    lie_state: str
    weights: tuple  # ((collection, Fraction), ...) nonzero entries
    margin: Fraction

    def weight_map(self):
        return dict(self.weights)

    def value(self, collection) -> Fraction:
        return self.weight_map().get(frozenset(collection), Fraction(0))

    def scaled(self, factor: Fraction) -> "Bet":
        factor = Fraction(factor)
        return Bet(
            self.agent,
            self.truth_state,
            self.lie_state,
            tuple((c, w * factor) for c, w in self.weights),
            self.margin * factor,
        )


def _bet_domain(scenario: Scenario, agent, truth_state, lie_state):
    """The agent's presentable collections not refuted at the truth, and the lie's support."""
    presentable, _, refuted = scenario.evidence(agent)
    truth = 1 << scenario.states.index(truth_state)
    lie_support = set(scenario.support(agent, lie_state))
    return [coll for coll, mask in zip(presentable, refuted) if not mask & truth or coll in lie_support]


def witness_bet(scenario: Scenario, agent, truth_state, lie_state, witness: HallWitness) -> Bet:
    """A separating bet with sup-norm 1, read in closed form off the Hall
    witness of a failed perfect deception `truth_state` -> `lie_state`.

    The witness's targets T carry demand a = q(T) at the lie state, and only
    its sources, of supply b < a at the truth state, hold a sub-collection in
    T. Paying -x on T and +y on every other collection of the bet domain is
    worth -x·a + y·(1-a) against truthful play at the lie, and at least
    -x·b + y·(1-b) against any withholding at the truth. With
    x/y = (2-a-b)/(a+b) and max(x, y) = 1 these are -m and +m for the margin
    m = (a-b)/max(a+b, 2-a-b) (the max-flow min-cut duality: Ford and
    Fulkerson 1956; Strassen 1965).

    a and b are recomputed from the scenario and T; `NotSeparating` is raised
    when they differ from the witness's demand and supply or when m <= 0.
    """
    targets = frozenset(witness.targets)
    demand = sum(
        (prob for coll, prob in scenario.dist(agent, lie_state).items() if coll in targets), Fraction(0)
    )
    supply = sum(
        (
            prob
            for src, prob in scenario.dist(agent, truth_state).items()
            if any(target <= src for target in targets)
        ),
        Fraction(0),
    )
    if (demand, supply) != (witness.demand, witness.supply):
        raise NotSeparating(
            f"witness claims demand {witness.demand} and supply {witness.supply}; "
            f"the scenario gives {demand} and {supply}"
        )
    scale = max(demand + supply, 2 - demand - supply)
    margin = (demand - supply) / scale
    if margin <= 0:
        raise NotSeparating(f"witness demand {demand} does not exceed its supply {supply}")
    x, y = (2 - demand - supply) / scale, (demand + supply) / scale
    weights = tuple(
        (coll, -x if coll in targets else y) for coll in _bet_domain(scenario, agent, truth_state, lie_state)
    )
    return Bet(agent, truth_state, lie_state, weights, margin)


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

    The LP maximizes the margin m over the lie-support weights w_c in [-1, 1]
    and each source K's minimum z_K <= 1, with w_c >= z_K whenever c is within
    K, Σ_c q(c)·w_c <= -m at the lie and Σ_K p(K)·z_K >= m at the truth. It
    is posed in the variables u_c = 1 - w_c in [0, 2], v_K = 1 - z_K >= 0 and
    t = m + 1 >= 0, with q and p as integer numerators Q and P over the
    agent's alphabet scale L (so ΣQ = ΣP = L); every row is a `<=` row:

        -Σ_c Q_c·u_c + L·t <= 0
        u_c - v_K <= 0          for each c within K
        Σ_K P_K·v_K + L·t <= 2L
        u_c <= 2                for each c

    The substitution is a bijection between the two feasible sets except for
    the cut m >= -1, and that cut removes no optimum: w = 1, z = 1, m = -1 is
    always feasible, so the optimal m is at least -1.

    A presolve then drops the columns that some optimum fixes, reading only
    the LP's own structure. Each step turns any optimum into another one with
    the same t, and each feasible point of the presolved LP, with the dropped
    variables set so, is feasible for the full LP; so the optimal margin is
    unchanged:

    - a source K with no lie-support collection within it has v_K only in the
      truth row, with coefficient P_K > 0: v_K = 0 keeps it feasible;
    - a source K with exactly one, c, needs v_K >= u_c only: v_K = u_c keeps
      every row feasible, so P_K joins u_c's truth-row coefficient and the
      row u_c - v_K <= 0 goes;
    - a lie-support collection c within no source has u_c in the lie row
      alone, with coefficient -Q_c < 0: u_c = 2 (w_c = -1) keeps it feasible,
      and 2·Q_c moves to the lie row's right-hand side.

    Every row stays an integer `<=` row with a nonnegative right-hand side,
    the one form `simplex.maximize` takes: it starts from the slack basis at
    the feasible origin. The bounds u_c <= 2 come last, in column order.
    """
    table = scenario.alphabet_table(agent)
    truth_masses = table.masses[table.truth[scenario.state_index(truth_state)]]
    lie_masses = table.masses[table.truth[scenario.state_index(lie_state)]]
    scale = table.scale
    within = {src: [c for c in lie_masses if c <= src] for src in truth_masses}
    served = {c for inside in within.values() for c in inside}
    u_cols = {c: k for k, c in enumerate(c for c in lie_masses if c in served)}
    minima = [(src, inside) for src, inside in within.items() if len(inside) > 1]
    n_u = len(u_cols)
    n = n_u + len(minima) + 1  # u per served lie-support weight, v per source with two or more, t
    t_col = n - 1

    lie_row = [-lie_masses[c] for c in u_cols] + [0] * len(minima) + [scale]
    unserved = [c for c in lie_masses if c not in served]
    constraints = [(lie_row, 2 * sum(lie_masses[c] for c in unserved))]
    truth_row = [0] * t_col + [scale]
    for src, inside in within.items():
        if len(inside) == 1:
            truth_row[u_cols[inside[0]]] += truth_masses[src]
    for v_col, (src, inside) in enumerate(minima, n_u):
        truth_row[v_col] = truth_masses[src]
        for c in inside:
            row = [0] * n
            row[u_cols[c]], row[v_col] = 1, -1
            constraints.append((row, 0))
    constraints.append((truth_row, 2 * scale))
    for u_col in range(n_u):
        row = [0] * n
        row[u_col] = 1
        constraints.append((row, 2))

    result = simplex.maximize([0] * t_col + [1], constraints)
    if result.status != "optimal":
        raise InfeasibleSeparation(f"bet LP ended {result.status}")
    margin = result.values[t_col] - 1
    if margin <= 0:
        raise InfeasibleSeparation(
            f"no separating bet for {agent}: perfect deception {truth_state}->{lie_state} exists"
        )
    weight_map = dict.fromkeys(unserved, Fraction(-1))
    weight_map.update((c, 1 - u) for c, u in zip(u_cols, result.values))
    weights = (
        (coll, weight_map.get(coll, Fraction(1)))
        for coll in _bet_domain(scenario, agent, truth_state, lie_state)
    )
    return Bet(agent, truth_state, lie_state, tuple((coll, w) for coll, w in weights if w != 0), margin)


@dataclass
class CertReport:
    value_at_lie: Fraction
    worst_case_at_truth: Fraction
    passed: bool
    robust_worst_case: Fraction


def _worst_case(scenario: Scenario, bet: Bet, options) -> Fraction:
    """The least expected payment of `bet` at its truth state when each source
    collection K presents one of `options(K)`: Σ_K p(K)·min over K's options,
    since each source chooses on its own and carries positive mass."""
    weights = bet.weight_map()
    return sum(
        (
            prob * min(weights.get(option, Fraction(0)) for option in options(src))
            for src, prob in scenario.dist(bet.agent, bet.truth_state).items()
        ),
        Fraction(0),
    )


def certify_bet(scenario: Scenario, bet: Bet) -> CertReport:
    """Independent oracle for a bet.

    `value_at_lie` is the exact expectation against truthful play at the lie
    state. `worst_case_at_truth` is the min over pure mimicry plans at the
    truth state: each source presents a maximal sub-collection that occurs at
    the lie state (withholding below that is dominated by the evidence
    incentive; a source with no such sub-collection presents itself).
    `robust_worst_case` is the min over the full withholding polytope (every
    subset); synthesized bets clear that stronger bar by construction.
    """
    value_at_lie = scenario.dist(bet.agent, bet.lie_state).dot(bet.weight_map())
    lie_support = scenario.support(bet.agent, bet.lie_state)

    def mimicry_options(src):
        fitting = [c for c in lie_support if c <= src]
        return [c for c in fitting if not any(c < other for other in fitting)] or [src]

    worst = _worst_case(scenario, bet, mimicry_options)
    passed = value_at_lie < 0 and worst > 0
    return CertReport(value_at_lie, worst, passed, sourcewise_worst_case(scenario, bet))


def sourcewise_worst_case(scenario: Scenario, bet: Bet) -> Fraction:
    """The min over the full withholding polytope: each source presents its
    cheapest subset."""
    return _worst_case(scenario, bet, subsets)


@dataclass(frozen=True)
class TwoPointBet:
    agent: str
    short_collection: frozenset  # induced mass below target; carries gamma < 0
    long_collection: frozenset  # induced mass above target; carries delta > 0
    gamma: Fraction
    delta: Fraction

    @property
    def weights(self) -> tuple:
        """((collection, weight), ...) as in `Bet.weights`: gamma on the short
        collection, delta on the long one."""
        return ((self.short_collection, self.gamma), (self.long_collection, self.delta))

    def value(self, presented) -> Fraction:
        presented = frozenset(presented)
        if presented == self.short_collection:
            return self.gamma
        if presented == self.long_collection:
            return self.delta
        return Fraction(0)


def induced_masses(assignment, held) -> dict:
    """The masses a pure assignment induces: each target collection gets the
    masses `held` gives its sources (none off `held`); zero sums are dropped."""
    induced = {}
    for src, dst in assignment:
        dst = frozenset(dst)
        induced[dst] = induced.get(dst, 0) + held.get(frozenset(src), 0)
    return {dst: mass for dst, mass in induced.items() if mass} if 0 in induced.values() else induced


def synthesize_gamma_delta(scenario: Scenario, pure_plan: PurePlan) -> TwoPointBet:
    """Two-point bet against an imperfect pure plan: wins under the plan,
    loses against truthful play at the claimed state.

    The plan's induced masses and the target masses are integers over the
    agent's L (`Scenario.alphabet_table`). The short (long) collection is the
    first, in canonical collection order, whose induced mass is below (above)
    its target mass. With induced masses a, b and target masses a_t, b_t
    there, gamma = -r and delta = 1 win and lose as required for any ratio r
    in (b_t/a_t, b/a); r is the midpoint (of (b_t/a_t, b_t/a_t + 2) when
    a = 0), and both weights are scaled by its denominator to integers. The
    ratio and the signs do not depend on L.
    """
    agent = pure_plan.agent
    table = scenario.alphabet_table(agent)
    held, wanted = (
        table.masses[table.truth[scenario.state_index(state)]]
        for state in (pure_plan.source_state, pure_plan.target_state)
    )
    induced = induced_masses(pure_plan.assignment, held)
    domain = sorted(induced.keys() | wanted.keys(), key=collection_key)
    short = next((c for c in domain if induced.get(c, 0) < wanted.get(c, 0)), None)
    long = next((c for c in domain if induced.get(c, 0) > wanted.get(c, 0)), None)
    if short is None or long is None:  # equal, or unequal masses in total
        raise NoImbalance("pure plan has no short and long collection against the target distribution")
    a, b = induced.get(short, 0), induced.get(long, 0)
    a_t, b_t = wanted.get(short, 0), wanted.get(long, 0)
    # a_t > 0 always; Fraction raises ZeroDivisionError otherwise
    ratio = Fraction(b_t * a + b * a_t, 2 * a_t * a) if a > 0 else Fraction(b_t + a_t, a_t)
    gamma, delta = -ratio.numerator, ratio.denominator
    if not a * gamma + b * delta > 0 > a_t * gamma + b_t * delta:
        raise NotSeparating(
            f"two-point bet ({gamma}, {delta}) must win under the plan and lose at {pure_plan.target_state}"
        )
    return TwoPointBet(agent, short, long, Fraction(gamma), Fraction(delta))
