"""Finite Bayesian games induced by mechanisms: exact best-response checking,
the deception-closure necessity replay, equilibrium search, and proof audits."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .conditions import canonical_perfect_plans
from .deception import induced_distribution
from .mechanism import TRANSFER_KEYS, KernelBase, Mechanism, outside_space, pure_assignments
from .rationals import common_denominator, joint, numerators
from .scenario import Scenario, ScenarioError, consensus_else_first, contested_lies
from .scenario import format_collection, subsets


_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotPerfect(ValueError):
    """Closure audit asked to compose a plan profile that is not perfect."""


class InvalidProfile(ValueError):
    """A profile that is not a strategy profile: some type plays a message off
    its own menu, a non-positive weight, or weights that do not sum to 1."""


@dataclass(frozen=True)
class DirectMessage:
    state_report: str
    evidence: frozenset


@dataclass(frozen=True, eq=False)
class DirectMechanism:
    """Type-report game with a consensus-else-first-report outcome and no
    transfers; the minimal setting for the necessity replay."""

    scenario: Scenario

    def kernel(self) -> "DirectKernel":
        """The kernel compiled from this mechanism, built on first use."""
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            kernel = self.__dict__["_kernel"] = DirectKernel(self.scenario)
        return kernel

    def truthful_message(self, agent, state, evidence) -> DirectMessage:
        return DirectMessage(state, frozenset(evidence))


class DirectKernel(KernelBase):
    """DirectMechanism compiled over its finite message space: every state
    report with every presentable collection, no transfers. A report's code
    is its state's index times the agent's presentable count plus its
    evidence's position in `Scenario.evidence`."""

    D = 1

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self._states = {state: k for k, state in enumerate(scenario.states)}
        self._presentable = [scenario.evidence(agent)[0] for agent in scenario.agents]
        # per agent: code -> the state it reports
        self._reports = [[state for state in scenario.states for _ in shown] for shown in self._presentable]
        self._state_outcomes = {state: self._outcome_codes[scenario.scf[state]] for state in scenario.states}
        self._zero = (0,) * len(TRANSFER_KEYS)

    def _menu_codes(self, i: int, endowment) -> tuple:
        shown = [self.positions[i][sub] for sub in subsets(endowment)]
        return tuple(self.truthful_code(i, state, position) for state in self.scenario.states for position in shown)

    def message(self, i: int, code: int) -> DirectMessage:
        state, position = divmod(code, len(self._presentable[i]))
        return DirectMessage(self.scenario.states[state], self._presentable[i][position])

    def code(self, i: int, msg: DirectMessage) -> int:
        try:
            known = isinstance(msg, DirectMessage) and msg.state_report in self._states
            position = self.positions[i].get(msg.evidence) if known else None
        except TypeError:  # an unhashable part is no part of the space
            position = None
        if position is None:
            raise outside_space(self.scenario, self.agents[i], msg)
        return self.truthful_code(i, msg.state_report, position)

    def truthful_code(self, i: int, state, position: int) -> int:
        return self._states[state] * len(self._presentable[i]) + position

    def evaluate_row(self, i: int, codes, others: tuple) -> list:
        reports = [table[code] for table, code in zip(self._reports[:i] + self._reports[i + 1 :], others)]
        reports.insert(i, None)
        row = []
        for code in codes:
            reports[i] = self._reports[i][code]
            row.append((self._state_outcomes[consensus_else_first(reports)], self._zero))
        return row


@dataclass
class BayesianGame:
    """The Bayesian game a mechanism induces at one state and utility profile.

    Payoffs come from the mechanism's per-agent payoff rows (`KernelBase.row`,
    keyed by the tuple of the other agents' message codes in agent order),
    which every game of the mechanism shares: an agent's payoff is its utility
    of the outcome plus its transfer total, as integer numerators over a
    common denominator G, the lcm of the kernel's fixed D and the utilities'
    denominators, set once in `__post_init__`. A profile index outside the
    scenario's utility profiles raises `ScenarioError`.
    """

    scenario: Scenario
    mech: object
    state: str
    profile_idx: int
    types: dict = field(init=False)
    actions: dict = field(init=False)
    _kernel: object = field(init=False, repr=False, compare=False)
    _probs: dict = field(init=False, repr=False, compare=False)  # (agent, type) -> prob
    _G: int = field(init=False, repr=False, compare=False)
    _factor: int = field(init=False, repr=False, compare=False)  # G // D
    _utility: list = field(init=False, repr=False, compare=False)  # per agent: numerators over G by outcome code

    def __post_init__(self):
        scn = self.scenario
        if self.mech.scenario is not scn and self.mech.scenario != scn:
            raise ScenarioError("the mechanism was built for another scenario")
        if not (isinstance(self.profile_idx, int) and 0 <= self.profile_idx < len(scn.utility_profiles)):
            raise ScenarioError(
                f"utility profile index {self.profile_idx!r} is outside 0..{len(scn.utility_profiles) - 1}"
            )
        self.types = {agent: scn.support(agent, self.state) for agent in scn.agents}
        self._probs = {
            (agent, coll): prob for agent in scn.agents for coll, prob in scn.dist(agent, self.state).items()
        }
        self._kernel = self.mech.kernel()
        # (agent, type) -> its `Menu`
        self.actions = {
            (agent, coll): self._kernel.actions(i, coll)
            for i, agent in enumerate(scn.agents)
            for coll in self.types[agent]
        }
        profile = scn.utility_profiles[self.profile_idx]
        # by outcome code: every agent's utility, or None when one is missing
        rows = [[profile[agent].get((outcome, self.state)) for agent in scn.agents] for outcome in scn.outcomes]
        rows = [None if None in row else row for row in rows]
        G = math.lcm(self._kernel.D, common_denominator(value for row in filter(None, rows) for value in row))
        self._G = G
        self._factor = G // self._kernel.D
        rows = [None if row is None else numerators(row, G) for row in rows]
        self._utility = [[None if row is None else row[i] for row in rows] for i in range(len(scn.agents))]

    def evaluate(self, transcript: dict):
        """(outcome, itemized transfers) for a message profile."""
        return self._kernel.itemized(transcript)

    def _realizations(self, agent, play) -> tuple:
        """(W, [(weight numerator over W, opponents' codes), ...]) over the
        opponents' types and mixed messages of a `Play`, each realization's
        codes a tuple in agent order without `agent`'s (the `others` of
        `KernelBase.row`); with `agent` None, over every agent's: the
        distribution of joint play, keyed as `KernelBase.key`."""
        options = []
        for other, row in zip(self.scenario.agents, play.rows):
            if other == agent:
                continue
            factor = []
            for coll, (scale, codes, weights) in zip(self.types[other], row):
                prob = self._probs[(other, coll)]
                for code, weight in zip(codes, weights):
                    factor.append((prob.numerator * weight, prob.denominator * scale, (code,)))
            options.append(factor)
        return joint(options)

    def _values(self, i, realizations, codes) -> list:
        """Expected payoff numerators over W * G of agent i's `codes`: the sum
        of w (U_i[outcome] + (G / D) T_i) over agent i's payoff rows, one
        per realization."""
        row = self._kernel.row
        utility = self._utility[i]
        factor = self._factor
        values = [0] * len(codes)
        for weight, others in realizations:
            values = [
                value + weight * (utility[outcome] + factor * total)
                for value, (outcome, total) in zip(values, row(i, codes, others))
            ]
        return values


@dataclass(frozen=True, eq=False)
class Play:
    """A coded strategy profile: per agent, one (L, codes, numerators) row per
    type, in `game.actions` order. A row lists its type's messages as kernel
    codes in the order its constructor gives them, with weights as numerators
    over the lcm L of the weights. Plays are equal when every type plays the
    same codes with the same exact weights."""

    game: BayesianGame = field(repr=False)
    rows: tuple

    @cached_property
    def key(self) -> tuple:
        """Each type's L and its sorted (code, numerator) pairs, in integers."""
        return tuple(tuple((L, *sorted(zip(codes, weights))) for L, codes, weights in row) for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, Play) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @cached_property
    def strategies(self) -> tuple | None:
        """Per agent, each type's menu position of its one code; None when a type mixes."""
        if any(len(codes) > 1 for row in self.rows for _, codes, _ in row):
            return None
        menus = iter(self.game.actions.values())
        return tuple(tuple(next(menus).positions[codes[0]] for _, codes, _ in row) for row in self.rows)


def truthful_profile(game: BayesianGame) -> dict:
    return decode_play(game, truthful_play(game, game.state))


def truthful_play(game: BayesianGame, state) -> Play:
    """The play in which every type plays, with probability 1, its truthful
    message at `state`: the game's own state, or a lie every agent reports."""
    kernel = game._kernel
    rows = tuple(
        tuple((1, (kernel.truthful_code(i, state, kernel.positions[i][coll]),), (1,)) for coll in game.types[agent])
        for i, agent in enumerate(game.scenario.agents)
    )
    return Play(game, rows)


def coded_play(game: BayesianGame, profile) -> Play:
    """The play of a strategy profile; `InvalidProfile` unless it names only
    the game's agents and types, each playing messages of its own menu with
    positive weights summing to 1."""
    agents = game.scenario.agents
    strays = [f"agent {a!r}" for a in profile if a not in agents]
    strays += [f"type {c!r} of {a}" for a in agents for c in profile.get(a, {}) if c not in game.types[a]]
    if strays:
        raise InvalidProfile(f"the profile names {strays[0]}, which the game at {game.state} does not have")

    def coded(i, agent, coll):
        mixture = profile.get(agent, {}).get(coll, {})
        codes = tuple(game._kernel.code(i, msg) for msg in mixture)
        scale = common_denominator(mixture.values())
        weights = tuple(numerators(mixture.values(), scale))
        menu = game.actions[(agent, coll)].positions
        if sum(weights) != scale or min(weights) <= 0 or not all(code in menu for code in codes):
            problems = [f"plays {msg!r}, which is not on its menu" for msg, c in zip(mixture, codes) if c not in menu]
            problems += [f"plays {msg!r} with weight {w}" for msg, w in mixture.items() if w <= 0]
            problems.append(f"has weights summing to {sum(mixture.values())}, not 1")
            raise InvalidProfile(f"type {format_collection(coll)} of {agent} {problems[0]}")
        return scale, codes, weights

    rows = tuple(tuple(coded(i, agent, coll) for coll in game.types[agent]) for i, agent in enumerate(agents))
    return Play(game, rows)


def pure_play(game: BayesianGame, strategies) -> Play:
    """The play in which each type plays, with probability 1, its menu's code
    at its agent's strategy's position (a tuple of menu positions, one per
    type; an empty one leaves its agent's row empty)."""
    rows = tuple(
        tuple((1, (game.actions[(agent, coll)].codes[pos],), (1,)) for coll, pos in zip(game.types[agent], strategy))
        for agent, strategy in zip(game.scenario.agents, strategies)
    )
    return Play(game, rows)


def deception_play(game: BayesianGame, target, flows) -> Play:
    """The play of a deception composed with truthful play at `target`: by
    its agent's `flows` rows (source, presented, mass), each type plays the
    truthful code of each presented subset, weighted by the row's share of
    its mass (1 for a row carrying the whole mass)."""
    kernel = game._kernel
    rows = []
    for i, agent in enumerate(game.scenario.agents):
        shares = {}  # type -> [(truthful code at target, mass), ...]
        for src, dst, flow in flows[agent]:
            if flow:
                shares.setdefault(src, []).append((kernel.truthful_code(i, target, kernel.positions[i][dst]), flow))
        row = []
        for coll in game.types[agent]:
            codes, masses = zip(*shares[coll])
            mass = game._probs[(agent, coll)]
            if masses == (mass,):
                row.append((1, codes, (1,)))
            else:
                weights = [flow / mass for flow in masses]
                scale = common_denominator(weights)
                row.append((scale, codes, tuple(numerators(weights, scale))))
        rows.append(tuple(row))
    return Play(game, tuple(rows))


def decode_play(game: BayesianGame, play: Play) -> dict:
    """The strategy profile of a play: each type's codes decoded to messages,
    with their exact weights."""
    profile = {}
    for i, (agent, row) in enumerate(zip(game.scenario.agents, play.rows)):
        profile[agent] = {
            coll: {game._kernel.message(i, code): Fraction(n, scale) for code, n in zip(codes, weights)}
            for coll, (scale, codes, weights) in zip(game.types[agent], row)
        }
    return profile


def expected_utility(game: BayesianGame, agent, type_coll, message, profile) -> Fraction:
    """Exact interim expected utility of a pure message for one type against
    a strategy profile (`InvalidProfile` otherwise)."""
    menu = game.actions.get((agent, frozenset(type_coll)))
    if menu is not None:
        i = game.scenario.agents.index(agent)
        code = game._kernel.code(i, message)
    if menu is None or code not in menu.positions:
        raise InvalidProfile(
            f"{agent} has no type {format_collection(type_coll)} at {game.state} with {message!r} on its menu"
        )
    W, realizations = game._realizations(agent, coded_play(game, profile))
    (value,) = game._values(i, realizations, (code,))
    return Fraction(value, W * game._G)


@dataclass
class EquilibriumReport:
    is_bne: bool
    slacks: dict
    witness: tuple | None
    on_path_outcomes: dict
    transfer_extremes: dict
    transfers_zero: bool
    stamp: str = "EXHAUSTIVE"

    def implements(self, outcome) -> bool:
        """Best responses everywhere and `outcome` with probability 1 on path,
        whatever the transfers (a clean equilibrium also has `transfers_zero`)."""
        return self.is_bne and self.on_path_outcomes == {outcome: _ONE}


def verify_bne(game: BayesianGame, profile: dict) -> EquilibriumReport:
    """Exhaustive exact best-response check for every positive-probability
    type of a strategy profile (`InvalidProfile` otherwise).

    Each agent's opponent realizations are listed once; every candidate
    message of every type is then valued in integers over one denominator.
    """
    return _verify_play(game, coded_play(game, profile))


def _verify_play(game: BayesianGame, play) -> EquilibriumReport:
    """`verify_bne` of a `Play`; the witness decodes only the best codes of
    its type's menu."""
    witness = None
    slacks = {}
    for i, (agent, row) in enumerate(zip(game.scenario.agents, play.rows)):
        W, realizations = game._realizations(agent, play)
        for coll, (common, played, weights) in zip(game.types[agent], row):
            menu = game.actions[(agent, coll)]
            values = game._values(i, realizations, menu.codes)
            best = max(values)
            current = sum(n * values[menu.positions[code]] for code, n in zip(played, weights))
            slack = Fraction(best * common - current, W * game._G * common)
            slacks[(agent, coll)] = slack
            if slack > 0 and witness is None:
                best_msg = min(
                    (game._kernel.message(i, code) for code, value in zip(menu.codes, values) if value == best),
                    key=repr,
                )
                witness = (agent, coll, best_msg, slack)
    return _equilibrium_report(game, play, slacks, witness)


def _equilibrium_report(game: BayesianGame, play, slacks, witness) -> EquilibriumReport:
    """The report of a `Play` with its slacks and first profitable deviation:
    on-path outcomes and transfers over one enumeration of joint play."""
    kernel = game._kernel
    agents = game.scenario.agents
    W, realizations = game._realizations(None, play)
    outcome_weights = {}  # outcome code -> weight numerator over W on path
    extremes = [[0] * len(TRANSFER_KEYS) for _ in agents]
    for weight, key in realizations:
        out, items = kernel.transcript(key)
        outcome_weights[out] = outcome_weights.get(out, 0) + weight
        for top, row in zip(extremes, items):
            top[:] = [max(t, abs(v)) for t, v in zip(top, row)]
    transfers_zero = all(value == 0 for top in extremes for value in top)
    return EquilibriumReport(
        is_bne=witness is None,
        slacks=slacks,
        witness=witness,
        on_path_outcomes={game.scenario.outcomes[out]: Fraction(total, W) for out, total in outcome_weights.items()},
        transfer_extremes={
            agent: {key: Fraction(v, kernel.D) if v else _ZERO for key, v in zip(TRANSFER_KEYS, top)}
            for agent, top in zip(agents, extremes)
        },
        transfers_zero=transfers_zero,
    )


# -- necessity replay ---------------------------------------------------------


@dataclass
class ClosureReport:
    source_state: str
    target_state: str
    premise_is_bne: bool
    composed_is_bne: bool
    on_path_outcomes: dict
    certified: bool


def deception_closure_audit(
    scenario: Scenario, mech, source_state, plans: dict, profile_idx=0
) -> ClosureReport:
    """Replay the necessity argument: compose truthful target-state play with a
    perfect deception profile and verify it is an equilibrium at the source.
    `certified` when truthful target play is an equilibrium and the composed
    profile `implements` the target's outcome, with or without transfers."""
    targets = {plan.target_state for plan in plans.values()}
    if len(targets) != 1:
        raise NotPerfect("plans disagree on the target state")
    target = targets.pop()
    if strays := [agent for agent in plans if agent not in scenario.agents]:
        raise NotPerfect(f"plan for {strays[0]!r}, which is not an agent of the scenario")
    for agent in scenario.agents:
        plan = plans.get(agent)
        if plan is None or plan.agent != agent or plan.source_state != source_state:
            raise NotPerfect(f"missing or mismatched plan for {agent}")
        if plan.check(scenario):
            raise NotPerfect(f"plan for {agent} fails its own consistency checks")
        if induced_distribution(plan) != scenario.dist(agent, target):
            raise NotPerfect(f"plan for {agent} does not match the target marginals")

    target_game = BayesianGame(scenario, mech, target, profile_idx)
    premise = _verify_play(target_game, truthful_play(target_game, target))
    source_game = BayesianGame(scenario, mech, source_state, profile_idx)
    report = _verify_play(source_game, deception_play(source_game, target, {a: p.flows for a, p in plans.items()}))
    certified = premise.is_bne and report.implements(scenario.scf[target])
    return ClosureReport(
        source_state=source_state,
        target_state=target,
        premise_is_bne=premise.is_bne,
        composed_is_bne=report.is_bne,
        on_path_outcomes=report.on_path_outcomes,
        certified=certified,
    )


# -- equilibrium search -------------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    pure_cap: int = 4096
    plan_cap: int = 256
    seeds: tuple = (0, 1, 2)
    max_rounds: int = 40


def _best_response_table(game: BayesianGame):
    """`best_responses(i, strategies)`: per type of agent i, the argmax
    positions of its whole menu against the opponents' pure strategies (each
    a tuple of menu positions, one per type; i's own entry is ignored), valued
    over one listing of their realizations and memoized by those strategies."""
    agents = game.scenario.agents
    tables = [{} for _ in agents]

    def best_responses(i, strategies):
        others = strategies[:i] + strategies[i + 1 :]
        sets = tables[i].get(others)
        if sets is None:
            agent = agents[i]
            _, realizations = game._realizations(agent, pure_play(game, others[:i] + ((),) + others[i:]))
            sets = []
            for coll in game.types[agent]:
                values = game._values(i, realizations, game.actions[(agent, coll)].codes)
                best = max(values)
                sets.append(tuple(pos for pos, value in enumerate(values) if value == best))
            tables[i][others] = sets = tuple(sets)
        return sets

    return best_responses


def _pure_best_response_profiles(game: BayesianGame, best_responses):
    """The strategies of every pure profile in which each type plays a best
    response, in `itertools.product` order over the (agent, type) slots: the
    strategies of every agent but the last are walked in product order, the
    last agent's drawn from the product of its best-response sets, and a
    profile is kept when every other agent's strategy lies in its own sets."""
    agents = game.scenario.agents
    last = len(agents) - 1
    heads = [itertools.product(*(range(len(game.actions[(a, c)])) for c in game.types[a])) for a in agents[:last]]
    for prefix in itertools.product(*heads):
        for tail in itertools.product(*best_responses(last, prefix + (None,))):
            strategies = prefix + (tail,)
            if all(
                all(pos in best for pos, best in zip(strategies[j], best_responses(j, strategies)))
                for j in range(last)
            ):
                yield strategies


def search_equilibria(game: BayesianGame, budget: SearchBudget = SearchBudget(), seed=0):
    """Three-strategy equilibrium search; every hit is certified exactly.

    (a) exhaustive pure-profile enumeration when the product of the menu sizes
        is at most `pure_cap`, by best-response tables
        (`_pure_best_response_profiles`);
    (b) truthful play composed (`deception_play`) with deception profiles:
        canonical perfect plans per target plus pure ones, under `plan_cap`;
    (c) best-response dynamics from seeded random starts (heuristic).
    One judge, `consider`, sees the `Play` of every profile of every phase. A
    pure play (one code per type) is certified by one memoized best-response
    table (`_best_response_table`): it is a hit, with every slack 0, iff each
    type's menu position (`Play.strategies`) lies in its best-response set.
    Only mixed plays (canonical plans) are verified (`_verify_play`). An
    exhaustive (a) holds every pure equilibrium: (b)'s pure profiles and (c)
    are skipped, and `plan_cap` gates only the canonical plans (a
    `BUDGET_EXCEEDED` flag still counts the pure profiles). Each distinct play
    is judged once and decoded (`decode_play`) if a hit.
    """
    scenario = game.scenario
    agents = scenario.agents
    verdicts = {}  # play -> its report if a hit, None when rejected
    flags = {}
    best_responses = _best_response_table(game)

    def consider(play, stamp):
        if play in verdicts:
            return
        verdicts[play] = None
        strategies = play.strategies
        if strategies is None:
            report = _verify_play(game, play)
        else:
            if not all(
                all(pos in best for pos, best in zip(strategy, best_responses(i, strategies)))
                for i, strategy in enumerate(strategies)
            ):
                return
            # by the table, every type plays a best response: every slack is 0
            report = _equilibrium_report(game, play, dict.fromkeys(game.actions, _ZERO), None)
        if report.is_bne:
            report.stamp = stamp
            verdicts[play] = report

    # (a) exhaustive pure enumeration by best-response tables
    total = math.prod(len(menu) for menu in game.actions.values())
    exhaustive = total <= budget.pure_cap
    flags["pure_enumeration"] = "EXHAUSTIVE" if exhaustive else f"BUDGET_EXCEEDED({total})"
    for strategies in _pure_best_response_profiles(game, best_responses) if exhaustive else ():
        consider(pure_play(game, strategies), "EXHAUSTIVE")

    # (b) deception closure family: the budget gates what this phase runs,
    # so an exhaustive (a) leaves only the canonical plans under it
    pure_assignment_lists = [pure_assignments(scenario, agent, game.state) for agent in agents]
    pure_total = math.prod(map(len, pure_assignment_lists))
    family_size = len(scenario.states) + (0 if exhaustive else pure_total * max(1, len(scenario.states) - 1))
    in_budget = family_size <= budget.plan_cap
    flags["closure_family"] = "EXHAUSTIVE" if in_budget else f"BUDGET_EXCEEDED({pure_total})"
    if in_budget:
        for target in scenario.states:
            plans = canonical_perfect_plans(scenario, game.state, target)
            if plans is not None:
                consider(deception_play(game, target, {a: plan.flows for a, plan in plans.items()}), "CLOSURE_FAMILY")
        # pure deception profiles (each row carries its whole source): an exhaustive (a) has them
        flow_lists = [
            [tuple((src, dst, game._probs[(agent, src)]) for src, dst in rows) for rows in assignments]
            for agent, assignments in zip(agents, pure_assignment_lists)
        ]
        for combo in () if exhaustive else itertools.product(*flow_lists):
            for target in scenario.states:
                if target != game.state:
                    consider(deception_play(game, target, dict(zip(agents, combo))), "CLOSURE_FAMILY")

    # (c) best-response dynamics, heuristic: each agent in turn moves every
    # type that is not playing a best response to its set's first member; its
    # end points are pure, so an exhaustive phase (a) has them
    flags["dynamics"] = "SUBSUMED" if exhaustive else "HEURISTIC" if budget.seeds else "NOT_RUN"
    rng = random.Random(seed)
    for trial in () if exhaustive else budget.seeds:
        rng.seed(seed * 1000003 + trial)
        strategies = [
            tuple(rng.choice(range(len(game.actions[(agent, coll)]))) for coll in game.types[agent])
            for agent in scenario.agents
        ]
        for _ in range(budget.max_rounds):
            changed = False
            for i, strategy in enumerate(strategies):
                sets = best_responses(i, tuple(strategies))
                moved = tuple(pos if pos in best else best[0] for pos, best in zip(strategy, sets))
                if moved != strategy:
                    strategies[i] = moved
                    changed = True
            if not changed:
                break
        consider(pure_play(game, strategies), "HEURISTIC")

    return [
        {"profile": decode_play(game, play), "report": report, "stamp": report.stamp}
        for play, report in verdicts.items()
        if report
    ], flags


# -- proof audits -------------------------------------------------------------


@dataclass
class AuditResult:
    name: str
    passed: bool
    vacuous: bool
    details: dict


def _deviation_audit(name, ok, cases, **extra) -> AuditResult:
    """One deviation argument of the implementation proof, checked case by case.

    A case is (game, agent, play, state, better, worse, label): `better` and
    `worse` are changes (`Kernel.truthful_code` keywords) to each of the
    agent's types' truthful message at `state`, and against the `Play`
    (`truthful_play`) the first must earn strictly more than the second. Each
    failing type adds (*label, gain) to the failures. The opponents'
    realizations are listed once per case and both messages valued together.
    """
    details = {"checked": 0, "failures": [], **extra}
    for game, agent, play, state, better, worse, label in cases:
        i = game.scenario.agents.index(agent)
        kernel = game._kernel
        W, realizations = game._realizations(agent, play)
        for coll in game.types[agent]:
            position = kernel.positions[i][coll]
            codes = [kernel.truthful_code(i, state, position, **changes) for changes in (better, worse)]
            high, low = game._values(i, realizations, codes)
            gain = Fraction(high - low, W * game._G)
            details["checked"] += 1
            if gain <= 0:
                ok = False
                details["failures"].append((*label, gain))
    return AuditResult(name, ok, details["checked"] == 0, details)


def _scoring_cases(scenario, mech, games):
    """Maximal evidence by the subject forces truthful predictions (score gap):
    against truthful play, predicting the right neighbour truthfully beats
    every wrong prediction."""
    for state, game in games.items():
        truthful = truthful_play(game, state)
        for predictor in scenario.agents:
            subject = scenario.right_neighbor(predictor)
            for claimed, wrong in enumerate(scenario.alphabet(subject)):
                if wrong != scenario.dist(subject, state):
                    yield game, predictor, truthful, state, {}, {"claimed": claimed}, (state, predictor, repr(wrong))


def _crosscheck_cases(scenario, mech, games):
    """A self-report contradicting the left neighbour is corrected (crosscheck
    fine): against truthful play, the truthful self-report beats the first
    wrong one. The deviator's own strategy does not enter its payoff, so the
    others' truthful play is the whole profile."""
    for state, game in games.items():
        truthful = truthful_play(game, state)
        for agent in scenario.agents:
            truth = scenario.dist(agent, state)
            wrong = next((own for own, d in enumerate(scenario.alphabet(agent)) if d != truth), None)
            if wrong is not None:
                yield game, agent, truthful, state, {}, {"own": wrong}, (state, agent)


def _refutation_cases(scenario, mech, games):
    """Consensus on a refutable lie is broken by truthfully reporting the refuter."""
    for (state, lie), cls in scenario.lie_table().items():
        if cls.verdict != "refutable":
            continue
        refuter = cls.refuters[0]
        deviator = scenario.left_neighbor(refuter)
        if deviator == refuter:
            continue
        game = games[state]
        honest = {"claimed": scenario.alphabet(refuter).index(scenario.dist(refuter, state))}
        yield game, deviator, truthful_play(game, lie), lie, honest, {}, (state, lie, deviator)


def _whistle_cases(scenario, mech, games):
    """Consensus on a nonrefutable lie with a different outcome invites a bet."""
    for state, lie, _ in contested_lies(scenario):
        whistle = mech.whistle(state, lie)
        if whistle is None:
            continue
        claim, subject = whistle
        game = games[state]
        deviator = next(a for a in scenario.agents if a != subject)
        yield game, deviator, truthful_play(game, lie), lie, {"claim": claim}, {}, (state, lie, deviator)


def _audit_zero_on_truth(scenario, mech, games):
    """Truthful maximal-evidence play: equilibrium, correct outcome, no transfers,
    and every bet against the truth strictly loses."""
    details = {"states": {}, "losing_bets_checked": 0, "failures": []}
    ok = True
    for state, game in games.items():
        report = _verify_play(game, truthful_play(game, state))
        good = report.implements(scenario.scf[state]) and report.transfers_zero
        details["states"][state] = {
            "is_bne": report.is_bne,
            "transfers_zero": report.transfers_zero,
            "outcomes": report.on_path_outcomes,
        }
        if not good:
            ok = False
            details["failures"].append((state, "truthful profile not clean"))
        # every bet a claim activates at this consensus loses against its
        # subject's truthful evidence
        for claim in mech.claims():
            bet = mech.claim_bet(claim, state)
            if bet is None:
                continue
            truth = scenario.dist(bet.agent, state)
            expectation = sum((prob * bet.value(coll) for coll, prob in truth.items()), _ZERO)
            details["losing_bets_checked"] += 1
            if expectation >= 0:
                ok = False
                details["failures"].append((state, claim, "bet against truth does not lose"))
    return AuditResult("zero_on_truth", ok, False, details)


@dataclass
class AuditSuite:
    results: list
    profile_indices: list

    @property
    def passed(self) -> bool:
        # no pass when zero audits ran
        return bool(self.results) and all(r.passed for r in self.results)


def claim_audits(scenario: Scenario, mech: Mechanism, profile_indices=None) -> AuditSuite:
    """Replay the implementation proof's deviation arguments on a built mechanism.

    Each (state, utility profile) game is built once and read by all five
    audits."""
    if profile_indices is None:
        profile_indices = list(range(len(scenario.utility_profiles)))
    failed = mech.scaling.failed_slacks()
    deviation_audits = (
        ("scoring_dominance", _scoring_cases, "score_gap" not in failed, {}),
        ("crosscheck_consistency", _crosscheck_cases, "eps_dominance" not in failed, {}),
        (
            "refutation_escape",
            _refutation_cases,
            "refutation" not in failed,
            # None when no lie is refutable
            {"refutation_slack": mech.scaling.slacks().get("refutation")},
        ),
        ("whistle_profit", _whistle_cases, True, {}),
    )
    results = []
    for idx in profile_indices:
        games = {state: BayesianGame(scenario, mech, state, idx) for state in scenario.states}
        for name, cases, ok, extra in deviation_audits:
            results.append(_deviation_audit(name, ok, cases(scenario, mech, games), **extra))
        results.append(_audit_zero_on_truth(scenario, mech, games))
    return AuditSuite(results, list(profile_indices))
