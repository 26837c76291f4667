"""Finite Bayesian games induced by mechanisms: exact best-response checking,
the deception-closure necessity replay, equilibrium search, and proof audits."""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import mechanism as mech_mod
from .deception import PurePlan, induced_distribution, perfect_deception
from .mechanism import KEY_BITS, TRANSFER_KEYS, KernelBase, Mechanism, outside_space
from .rationals import common_denominator, numerators
from .scenario import Scenario, ScenarioError, collection_key, consensus_else_first, contested_lies
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
    report with every presentable collection, no transfers."""

    D = 1

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self._codes = []
        self._reports = []
        for agent in scenario.agents:
            messages = [DirectMessage(state, e) for state in scenario.states for e in scenario.presentable(agent)]
            self._codes.append({msg: code for code, msg in enumerate(messages)})
            self._reports.append([msg.state_report for msg in messages])
        self._zero = [(0,) * len(TRANSFER_KEYS)] * len(scenario.agents)

    def _menu(self, i: int, endowment):
        for state in self.scenario.states:
            for sub in subsets(endowment):
                yield DirectMessage(state, sub)

    def code(self, i: int, msg: DirectMessage) -> int:
        code = self._codes[i].get(msg)
        if code is None:
            raise outside_space(self.scenario, self.agents[i], msg)
        return code

    def evaluate(self, codes):
        state = consensus_else_first(self._reports[i][code] for i, code in enumerate(codes))
        return self.scenario.scf[state], self._zero


@dataclass
class BayesianGame:
    """The Bayesian game a mechanism induces at one state and utility profile.

    Payoffs come from the mechanism's transcript table (`KernelBase.payoff`,
    keyed by the message codes packed `KEY_BITS` per agent), which every game
    of the mechanism shares: an agent's payoff is its utility of the outcome
    plus its transfer total, as integer numerators over a common denominator
    G, the lcm of the kernel's fixed D and the utilities' denominators, set
    once in `__post_init__`.
    """

    scenario: Scenario
    mech: object
    state: str
    profile_idx: int
    types: dict = field(init=False)
    actions: dict = field(init=False)
    _kernel: object = field(init=False, repr=False, compare=False)
    _codes: dict = field(init=False, repr=False, compare=False, default_factory=dict)  # slot -> action codes
    _menus: dict = field(init=False, repr=False, compare=False, default_factory=dict)  # slot -> set of action codes
    _probs: dict = field(init=False, repr=False, compare=False)  # (agent, type) -> prob
    _G: int = field(init=False, repr=False, compare=False)
    _factor: int = field(init=False, repr=False, compare=False)  # G // D
    _utility: list = field(init=False, repr=False, compare=False)  # per agent: numerators over G by outcome code

    def __post_init__(self):
        scn = self.scenario
        if self.mech.scenario is not scn and self.mech.scenario != scn:
            raise ScenarioError("the mechanism was built for another scenario")
        self.types = {agent: scn.support(agent, self.state) for agent in scn.agents}
        self._probs = {
            (agent, coll): prob for agent in scn.agents for coll, prob in scn.dist(agent, self.state).items()
        }
        self._kernel = self.mech.kernel()
        self.actions = {}
        for i, agent in enumerate(scn.agents):
            for coll in self.types[agent]:
                slot = (agent, coll)
                self.actions[slot], self._codes[slot], self._menus[slot] = self._kernel.actions(i, coll)
        profile = scn.utility_profiles[self.profile_idx]
        # by outcome code: every agent's utility, or None when one is missing
        rows = [[profile[agent].get((outcome, self.state)) for agent in scn.agents] for outcome in scn.outcomes]
        rows = [None if None in row else row for row in rows]
        G = math.lcm(self._kernel.D, common_denominator(value for row in filter(None, rows) for value in row))
        self._G = G
        self._factor = G // self._kernel.D
        rows = [None if row is None else numerators(row, G) for row in rows]
        self._utility = [[None if row is None else row[i] for row in rows] for i in range(len(scn.agents))]

    def type_prob(self, agent, coll) -> Fraction:
        return self._probs.get((agent, frozenset(coll)), _ZERO)

    def evaluate(self, transcript: dict):
        """(outcome, itemized transfers) for a message profile."""
        return self._kernel.itemized(transcript)

    def _realizations(self, agent, play) -> tuple:
        """(W, [(weight numerator over W, packed opponents' codes), ...]) over
        the opponents' types and mixed messages of a coded play (`_coded_play`);
        with `agent` None, over every agent's: the distribution of joint play."""
        options = []
        for i, other in enumerate(self.scenario.agents):
            if other == agent:
                continue
            shift = KEY_BITS * i
            rows = []
            for coll in self.types[other]:
                prob = self._probs[(other, coll)]
                scale, codes, weights = play[(other, coll)]
                for code, weight in zip(codes, weights):
                    rows.append((prob.numerator * weight, prob.denominator * scale, code << shift))
            options.append(rows)
        # products of unreduced numerators and denominators: W need only be
        # a common denominator, the caller's Fraction reduces the result
        combos = []
        common = 1
        for combo in itertools.product(*options):
            num = den = 1
            key = 0
            for part_num, part_den, code in combo:
                num *= part_num
                den *= part_den
                key |= code
            combos.append((num, den, key))
            common = math.lcm(common, den)
        return common, [(num * (common // den), key) for num, den, key in combos]

    def _values(self, i, realizations, codes) -> list:
        """Expected payoff numerators over W * G of agent i's `codes`: the sum
        of w (U_i[outcome] + (G / D) T_i) over the transcript table."""
        table = self._kernel.table
        payoff = self._kernel.payoff
        utility = self._utility[i]
        factor = self._factor
        shift = KEY_BITS * i
        values = []
        for code in codes:
            mine = code << shift
            total = 0
            for weight, others in realizations:
                key = others | mine
                outcome, totals, _ = table.get(key) or payoff(key)
                total += weight * (utility[outcome] + factor * totals[i])
            values.append(total)
        return values


def truthful_profile(game: BayesianGame) -> dict:
    return _reported_profile(game, game.state)


def _reported_profile(game: BayesianGame, state) -> dict:
    """Every type plays, with probability 1, its truthful message at `state`:
    the game's own state, or a lie every agent reports."""
    return {
        agent: {coll: {game.mech.truthful_message(agent, state, coll): _ONE} for coll in game.types[agent]}
        for agent in game.scenario.agents
    }


def _coded_play(game: BayesianGame, profile) -> dict:
    """(agent, type) -> (L, codes, numerators): a strategy profile's messages
    as codes, their weights as numerators over the lcm L of the type's
    weights; `InvalidProfile` unless every type plays only messages of its
    own menu, with positive weights that sum to 1."""
    play = {}
    for i, agent in enumerate(game.scenario.agents):
        plays = profile.get(agent, {})
        for coll in game.types[agent]:
            mixture = plays.get(coll, {})
            codes = [game._kernel.code(i, msg) for msg in mixture]
            scale = common_denominator(mixture.values())
            weights = numerators(mixture.values(), scale)
            menu = game._menus[(agent, coll)]
            if sum(weights) != scale or min(weights) <= 0 or not menu.issuperset(codes):
                problems = [
                    f"plays {msg!r}, which is not on its menu" for msg, c in zip(mixture, codes) if c not in menu
                ]
                problems += [f"plays {msg!r} with weight {w}" for msg, w in mixture.items() if w <= 0]
                problems.append(f"has weights summing to {sum(mixture.values())}, not 1")
                raise InvalidProfile(f"type {format_collection(coll)} of {agent} {problems[0]}")
            play[(agent, coll)] = (scale, codes, weights)
    return play


def expected_utility(game: BayesianGame, agent, type_coll, message, profile) -> Fraction:
    """Exact interim expected utility of a pure message for one type against
    a strategy profile (`InvalidProfile` otherwise)."""
    i = game.scenario.agents.index(agent)
    code = game._kernel.code(i, message)
    if code not in game._menus.get((agent, frozenset(type_coll)), ()):
        raise InvalidProfile(
            f"{agent} has no type {format_collection(type_coll)} at {game.state} with {message!r} on its menu"
        )
    W, realizations = game._realizations(agent, _coded_play(game, profile))
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
    agents = game.scenario.agents
    play = _coded_play(game, profile)
    witness = None
    slacks = {}
    for i, agent in enumerate(agents):
        W, realizations = game._realizations(agent, play)
        for coll in game.types[agent]:
            codes = game._codes[(agent, coll)]
            values = game._values(i, realizations, codes)
            value_of = dict(zip(codes, values))
            best = max(values)
            common, played, weights = play[(agent, coll)]
            current = sum(n * value_of[code] for code, n in zip(played, weights))
            slack = Fraction(best * common - current, W * game._G * common)
            slacks[(agent, coll)] = slack
            if slack > 0 and witness is None:
                best_msg = min(
                    (msg for msg, value in zip(game.actions[(agent, coll)], values) if value == best),
                    key=lambda m: repr(m),
                )
                witness = (agent, coll, best_msg, slack)
    return _equilibrium_report(game, play, slacks, witness)


def _equilibrium_report(game: BayesianGame, play, slacks, witness) -> EquilibriumReport:
    """The report of a coded play (`_coded_play`) with its slacks and first
    profitable deviation: on-path outcomes and transfers over one enumeration
    of joint play."""
    kernel = game._kernel
    agents = game.scenario.agents
    W, realizations = game._realizations(None, play)
    outcome_weights = {}  # outcome code -> weight numerator over W on path
    extremes = [[0] * len(TRANSFER_KEYS) for _ in agents]
    for weight, key in realizations:
        out, _, items = kernel.payoff(key)
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


def compose_with_truthful(game: BayesianGame, plans: dict) -> dict:
    """The deception-then-truthful strategy profile at the game's state."""
    target = next(iter(plans.values())).target_state
    profile = {}
    for agent in game.scenario.agents:
        plan = plans[agent]
        per_type = {}
        for coll in game.types[agent]:
            mass = game.type_prob(agent, coll)
            mixture = {}
            for src, dst, flow in plan.flows:
                if src != coll or flow == 0:
                    continue
                msg = game.mech.truthful_message(agent, target, dst)
                mixture[msg] = mixture.get(msg, Fraction(0)) + flow / mass
            per_type[coll] = mixture
        profile[agent] = per_type
    return profile


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
    for agent in scenario.agents:
        plan = plans.get(agent)
        if plan is None or plan.agent != agent or plan.source_state != source_state:
            raise NotPerfect(f"missing or mismatched plan for {agent}")
        if plan.check(scenario):
            raise NotPerfect(f"plan for {agent} fails its own consistency checks")
        if induced_distribution(plan) != scenario.dist(agent, target):
            raise NotPerfect(f"plan for {agent} does not match the target marginals")

    target_game = BayesianGame(scenario, mech, target, profile_idx)
    premise = verify_bne(target_game, truthful_profile(target_game))
    source_game = BayesianGame(scenario, mech, source_state, profile_idx)
    composed = compose_with_truthful(source_game, plans)
    report = verify_bne(source_game, composed)
    certified = premise.is_bne and report.implements(scenario.scf[target])
    return ClosureReport(
        source_state=source_state,
        target_state=target,
        premise_is_bne=premise.is_bne,
        composed_is_bne=report.is_bne,
        on_path_outcomes=report.on_path_outcomes,
        certified=certified,
    )


def canonical_perfect_plans(scenario: Scenario, source_state, target_state):
    """Per-agent max-flow plans when every agent can deceive, else None."""
    plans = {}
    for agent in scenario.agents:
        result = perfect_deception(scenario, agent, source_state, target_state)
        if not result.exists:
            return None
        plans[agent] = result.plan
    return plans


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
            play = {
                (other, coll): (1, (game._codes[(other, coll)][pos],), (1,))
                for j, other in enumerate(agents)
                if j != i
                for coll, pos in zip(game.types[other], strategies[j])
            }
            _, realizations = game._realizations(agent, play)
            sets = []
            for coll in game.types[agent]:
                values = game._values(i, realizations, game._codes[(agent, coll)])
                best = max(values)
                sets.append(tuple(pos for pos, value in enumerate(values) if value == best))
            tables[i][others] = sets = tuple(sets)
        return sets

    return best_responses


def _pure_profile(game: BayesianGame, strategies) -> dict:
    """The strategy profile in which each type plays, with probability 1, its
    menu's message at its agent's strategy's position."""
    return {
        agent: {coll: {game.actions[(agent, coll)][pos]: _ONE} for coll, pos in zip(game.types[agent], strategy)}
        for agent, strategy in zip(game.scenario.agents, strategies)
    }


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


def _profile_key(game, profile):
    rows = []
    for agent in game.scenario.agents:
        for coll in game.types[agent]:
            mixture = profile[agent][coll]
            rows.append(
                (agent, collection_key(coll), tuple(sorted(((repr(m), w) for m, w in mixture.items()))))
            )
    return tuple(rows)


def search_equilibria(game: BayesianGame, budget: SearchBudget = SearchBudget(), seed=0):
    """Three-strategy equilibrium search; every hit is certified exactly.

    (a) exhaustive pure-profile enumeration when the product of the menu sizes
        is at most `pure_cap`, by best-response tables
        (`_pure_best_response_profiles`), which certify each hit's slacks;
    (b) truthful play composed with deception profiles (canonical perfect plans
        per target plus pure deception profiles under `plan_cap`);
    (c) best-response dynamics from seeded random starts (heuristic), on
        phase (a)'s memoized best-response table (`_best_response_table`).
    Profiles of (b) and (c) are checked by `verify_bne`. An exhaustive (a)
    holds every pure equilibrium: (b)'s pure profiles and (c) are skipped.
    """
    scenario = game.scenario
    found = {}
    flags = {}

    def consider(profile, stamp, report=None):
        key = _profile_key(game, profile)
        if key in found:
            return
        if report is None:
            report = verify_bne(game, profile)
        if report.is_bne:
            report.stamp = stamp
            found[key] = (profile, report)

    best_responses = _best_response_table(game)

    # (a) exhaustive pure enumeration by best-response tables
    total = math.prod(len(menu) for menu in game.actions.values())
    exhaustive = total <= budget.pure_cap
    if exhaustive:
        flags["pure_enumeration"] = "EXHAUSTIVE"
        for strategies in _pure_best_response_profiles(game, best_responses):
            profile = _pure_profile(game, strategies)
            play = _coded_play(game, profile)
            # by the tables, every type plays a best response: every slack is 0
            report = _equilibrium_report(game, play, dict.fromkeys(play, _ZERO), None)
            consider(profile, "EXHAUSTIVE", report)
    else:
        flags["pure_enumeration"] = f"BUDGET_EXCEEDED({total})"

    # (b) deception closure family
    flags["closure_family"] = "EXHAUSTIVE"
    pure_assignment_lists = []
    pure_total = 1
    for agent in scenario.agents:
        rows = mech_mod._assignments_for(scenario, agent, game.state)
        pure_assignment_lists.append((agent, rows))
        pure_total *= len(rows)
    family_size = len(scenario.states) + pure_total * max(1, len(scenario.states) - 1)
    if family_size <= budget.plan_cap:
        for target in scenario.states:
            plans = canonical_perfect_plans(scenario, game.state, target)
            if plans is not None:
                consider(compose_with_truthful(game, plans), "CLOSURE_FAMILY")
        # pure deception profiles are pure: an exhaustive phase (a) has them
        for combo in () if exhaustive else itertools.product(*(rows for _, rows in pure_assignment_lists)):
            for target in scenario.states:
                if target == game.state:
                    continue
                plans = {
                    agent: PurePlan(agent, game.state, target, rows).as_transport(scenario)
                    for (agent, _), rows in zip(pure_assignment_lists, combo)
                }
                consider(compose_with_truthful(game, plans), "CLOSURE_FAMILY")
    else:
        flags["closure_family"] = f"BUDGET_EXCEEDED({pure_total})"

    # (c) best-response dynamics, heuristic: each agent in turn moves every
    # type that is not playing a best response to its set's first member; its
    # end points are pure, so an exhaustive phase (a) has them
    flags["dynamics"] = "SUBSUMED" if exhaustive else "HEURISTIC"
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
        consider(_pure_profile(game, strategies), "HEURISTIC")

    return [
        {"profile": profile, "report": report, "stamp": report.stamp}
        for profile, report in found.values()
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

    A case is (game, agent, play, better, worse, label): `better` and
    `worse` map each of the agent's types to a message, and against the
    coded play (`_coded_play`) the first must earn strictly more than the
    second. Each failing type adds
    (*label, gain) to the failures. The opponents' realizations are listed
    once per case and both messages valued together.
    """
    details = {"checked": 0, "failures": [], **extra}
    for game, agent, play, better, worse, label in cases:
        i = game.scenario.agents.index(agent)
        W, realizations = game._realizations(agent, play)
        for coll in game.types[agent]:
            codes = (game._kernel.code(i, better(coll)), game._kernel.code(i, worse(coll)))
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
        truthful = _coded_play(game, truthful_profile(game))
        for predictor in scenario.agents:
            subject = scenario.right_neighbor(predictor)
            truth = functools.partial(mech.truthful_message, predictor, state)
            for wrong in scenario.alphabet(subject):
                if wrong != scenario.dist(subject, state):
                    deviant = lambda coll, truth=truth, wrong=wrong: replace(truth(coll), p_right=wrong)
                    yield game, predictor, truthful, truth, deviant, (state, predictor, repr(wrong))


def _crosscheck_cases(scenario, mech, games):
    """A self-report contradicting the left neighbour is corrected (crosscheck
    fine): against truthful play, the truthful self-report beats a wrong one.
    The deviator's own strategy does not enter its payoff, so the others'
    truthful play is the whole profile."""
    for state, game in games.items():
        truthful = _coded_play(game, truthful_profile(game))
        for agent in scenario.agents:
            alphabet = [d for d in scenario.alphabet(agent) if d != scenario.dist(agent, state)]
            if alphabet:
                truth = functools.partial(mech.truthful_message, agent, state)
                self_liar = lambda coll, truth=truth, wrong=alphabet[0]: replace(truth(coll), p_own=wrong)
                yield game, agent, truthful, truth, self_liar, (state, agent)


def _refutable_pairs(scenario):
    return [(s, t, lie) for (s, t), lie in scenario.lie_table().items() if lie.verdict == "refutable"]


def _refutation_cases(scenario, mech, games):
    """Consensus on a refutable lie is broken by truthfully reporting the refuter."""
    for state, lie, cls in _refutable_pairs(scenario):
        refuter = cls.refuters[0]
        deviator = scenario.left_neighbor(refuter)
        if deviator == refuter:
            continue
        game = games[state]
        base = functools.partial(mech.truthful_message, deviator, lie)
        honest = lambda coll, base=base, p=scenario.dist(refuter, state): replace(base(coll), p_right=p)
        yield game, deviator, _coded_play(game, _reported_profile(game, lie)), honest, base, (state, lie, deviator)


def _whistle_cases(scenario, mech, games):
    """Consensus on a nonrefutable lie with a different outcome invites a bet."""
    for state, lie, _ in contested_lies(scenario):
        whistle = mech.whistle(state, lie)
        if whistle is None:
            continue
        claim, subject = whistle
        game = games[state]
        deviator = next(a for a in scenario.agents if a != subject)
        base = functools.partial(mech.truthful_message, deviator, lie)
        blow = lambda coll, base=base, claim=claim: replace(base(coll), claim=claim)
        yield game, deviator, _coded_play(game, _reported_profile(game, lie)), blow, base, (state, lie, deviator)


def _audit_zero_on_truth(scenario, mech, games):
    """Truthful maximal-evidence play: equilibrium, correct outcome, no transfers,
    and every bet against the truth strictly loses."""
    details = {"states": {}, "losing_bets_checked": 0, "failures": []}
    ok = True
    for state, game in games.items():
        profile = truthful_profile(game)
        report = verify_bne(game, profile)
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
