"""Evidence environments: agents, states, stochastic evidence endowments, refutation.

A scenario holds per-agent, per-state distributions over evidence collections
(sets of article ids), a social choice function, and bounded utility profiles.
All probabilities and utilities are exact rationals; refutation and lie
classification are exact set/zero tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .rationals import RationalFormatError, common_denominator, format_rational, numerators, parse_rational
from .rationals import squared_distance

Collection = frozenset


def collection_key(collection: Collection) -> tuple:
    """Canonical sort key: smaller collections first, then lexicographic."""
    return (len(collection), tuple(sorted(collection)))


def subsets(collection) -> list:
    """Every subset of a collection: by size, then lexicographically."""
    ordered = sorted(collection)
    return [
        frozenset(sub)
        for r in range(len(ordered) + 1)
        for sub in itertools.combinations(ordered, r)
    ]


def read_only_rows(mapping) -> MappingProxyType:
    """A read-only copy of a mapping of mappings (a utility profile, the
    beliefs), both levels copied once."""
    return MappingProxyType({key: MappingProxyType(dict(row)) for key, row in mapping.items()})


def format_collection(collection: Collection) -> str:
    return "{" + ",".join(sorted(collection)) + "}"


class ScenarioFormatError(ValueError):
    """Structurally unreadable scenario input (CLI exit 1)."""


class ScenarioError(ValueError):
    """Semantically invalid request against a scenario (unknown ids etc.)."""


class Distribution:
    """Finite distribution over evidence collections, exact and hashable."""

    __slots__ = ("_probs", "_support", "_key", "_hash")

    def __init__(self, probs):
        cleaned = {}
        for coll, prob in probs.items():
            prob = Fraction(prob)
            if prob != 0:
                cleaned[frozenset(coll)] = cleaned.get(frozenset(coll), Fraction(0)) + prob
        self._probs = cleaned
        keyed = sorted((collection_key(c), c) for c in cleaned)
        self._support = tuple(c for _, c in keyed)
        self._key = tuple((key, cleaned[c]) for key, c in keyed)
        self._hash = None

    def prob(self, collection) -> Fraction:
        return self._probs.get(frozenset(collection), Fraction(0))

    def support(self) -> list:
        """The support in canonical collection order (a fresh list)."""
        return list(self._support)

    def items(self):
        return [(c, self._probs[c]) for c in self._support]

    def total(self) -> Fraction:
        return sum(self._probs.values(), Fraction(0))

    def is_degenerate(self) -> bool:
        return len(self._probs) == 1

    def __eq__(self, other):
        return isinstance(other, Distribution) and self._key == other._key

    def __hash__(self):
        # computed on first use and kept: hashing the key re-hashes every Fraction
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{format_collection(c)}: {p}" for c, p in self.items())
        return "Distribution({" + body + "})"

    def squared_distance(self, other: "Distribution") -> Fraction:
        """Exact squared euclidean distance over the union of supports."""
        return Fraction(squared_distance(self._probs, other._probs))

    def dot(self, weights) -> Fraction:
        """Expectation of a collection-indexed weight map (0 off-support of weights)."""
        total = Fraction(0)
        for coll, prob in self._probs.items():
            total += prob * weights.get(coll, Fraction(0))
        return total


@dataclass(frozen=True)
class AlphabetTable:
    """One agent's alphabet, compiled once (`Scenario.alphabet_table`): its
    distinct evidence distributions and which of them holds at each state.
    The integer form, `scale` and `masses`, is computed when first read."""

    members: tuple  # the distinct distributions, in first-state order
    truth: tuple  # per state, in state order: its distribution's position in `members`

    @cached_property
    def scale(self) -> int:
        """L, the lcm of the members' probability denominators."""
        return common_denominator(prob for member in self.members for _, prob in member.items())

    @cached_property
    def masses(self) -> tuple:
        """Per member: a read-only map from each support collection to its
        probability as an integer numerator over L."""
        rows = [dict(member.items()) for member in self.members]
        return tuple(MappingProxyType(dict(zip(row, numerators(row.values(), self.scale)))) for row in rows)


@dataclass(frozen=True)
class Scenario:
    agents: tuple
    states: tuple
    articles: tuple
    dists: dict  # (agent, state) -> Distribution
    scf: dict  # state -> outcome id
    outcomes: tuple
    utility_profiles: tuple  # each: agent -> {(outcome, state): Fraction}
    article_names: dict | None = None  # optional declared nomenclature
    # shape problems the parser read past (validate_scenario reports them)
    input_violations: tuple = field(default=(), compare=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        # stored read-only: the per-scenario caches must not go stale
        for name in ("dists", "scf", "article_names"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "utility_profiles", tuple(map(read_only_rows, self.utility_profiles)))

    # -- basic accessors -------------------------------------------------

    def dist(self, agent, state) -> Distribution:
        try:
            return self.dists[(agent, state)]
        except KeyError:
            raise ScenarioError(f"no distribution for agent {agent!r} at state {state!r}")

    def support(self, agent, state) -> list:
        return self.dist(agent, state).support()

    def right_neighbor(self, agent) -> str:
        idx = self.agents.index(agent)
        return self.agents[(idx + 1) % len(self.agents)]

    def left_neighbor(self, agent) -> str:
        idx = self.agents.index(agent)
        return self.agents[(idx - 1) % len(self.agents)]

    def evidence(self, agent) -> tuple:
        """(presentable collections in `collection_key` order, a read-only map
        from each to its position, per position the mask of the states
        refuting it), compiled on first use; bit k stands for `states[k]`."""
        key = ("evidence", agent)
        if key not in self._cache:
            fits = {}  # presentable collection -> mask of the states a support collection holds it at
            for k, state in enumerate(self.states):
                for sub in itertools.chain.from_iterable(map(subsets, self.support(agent, state))):
                    fits[sub] = fits.get(sub, 0) | 1 << k
            presentable = tuple(sorted(fits, key=collection_key))
            positions = MappingProxyType({coll: pos for pos, coll in enumerate(presentable)})
            every = (1 << len(self.states)) - 1
            self._cache[key] = (presentable, positions, tuple(every ^ fits[coll] for coll in presentable))
        return self._cache[key]

    def presentable(self, agent) -> tuple:
        """All collections the agent may ever present: subsets of support collections."""
        return self.evidence(agent)[0]

    def alphabet_table(self, agent) -> AlphabetTable:
        """The agent's `AlphabetTable`, compiled on first use."""
        key = ("alphabet", agent)
        if key not in self._cache:
            members, truth = [], []
            for state in self.states:
                d = self.dist(agent, state)
                if d not in members:
                    members.append(d)
                truth.append(members.index(d))
            self._cache[key] = AlphabetTable(tuple(members), tuple(truth))
        return self._cache[key]

    def alphabet(self, agent) -> tuple:
        """Distinct evidence distributions of the agent, in first-state order."""
        return self.alphabet_table(agent).members

    def state_index(self, state) -> int:
        """The state's position in `states`; ScenarioError for an unknown state."""
        try:
            return self.states.index(state)
        except ValueError:
            raise ScenarioError(f"unknown state {state!r}") from None

    def lie_table(self) -> MappingProxyType:
        """Read-only (true state, target state) -> the lie's `LieClass`, for
        every ordered pair of states in state order, classified on first use."""
        key = "lie_table"
        if key not in self._cache:
            table = {(s, t): _classify(self, s, t) for s in self.states for t in self.states}
            self._cache[key] = MappingProxyType(table)
        return self._cache[key]

    def article_set(self) -> frozenset:
        key = "article_set"
        if key not in self._cache:
            self._cache[key] = frozenset(self.articles)
        return self._cache[key]

    def utility(self, profile_idx, agent, outcome, state) -> Fraction:
        return self.utility_profiles[profile_idx][agent][(outcome, state)]

    def utility_span(self) -> Fraction:
        """Max over profiles/agents/states of the outcome-utility spread."""
        span = Fraction(0)
        for profile in self.utility_profiles:
            for agent in self.agents:
                for state in self.states:
                    values = [profile[agent][(outcome, state)] for outcome in self.outcomes]
                    span = max(span, max(values) - min(values))
        return span

    def max_collection_size(self) -> int:
        """Size of the largest support collection, the largest presentable one."""
        return max((len(coll) for agent in self.agents for coll in self.presentable(agent)), default=0)

    def constant_profile_index(self) -> int | None:
        for idx, profile in enumerate(self.utility_profiles):
            values = {v for per_agent in profile.values() for v in per_agent.values()}
            if len(values) <= 1:
                return idx
        return None


def consensus_else_first(reports):
    """The state the consensus-else-first-report rule picks from the agents'
    state reports, in agent order: the common report when all agree, else the
    first agent's, which is the first report either way."""
    return next(iter(reports))


# -- refutation and lie classification -----------------------------------


def refutes(scenario: Scenario, collection, state, agent) -> bool:
    """True iff no support collection of `agent` at `state` contains `collection`."""
    collection = frozenset(collection)
    unknown = collection - scenario.article_set()
    if unknown:
        raise ScenarioError(f"unknown article ids {sorted(unknown)}")
    k = scenario.state_index(state)
    if agent not in scenario.agents:
        raise ScenarioError(f"unknown agent {agent!r}")
    _, positions, refuted = scenario.evidence(agent)
    # a collection the agent cannot present fits no support collection anywhere
    return collection not in positions or bool(refuted[positions[collection]] >> k & 1)


def refutes_by_names(names, collection, state) -> bool:
    """Nomenclature refutation: some held article is named without `state`."""
    return any(state not in names.get(article, frozenset()) for article in collection)


@dataclass(frozen=True)
class LieClass:
    true_state: str
    target_state: str
    verdict: str  # "self_identical" | "refutable" | "nonrefutable"
    refuters: tuple = ()
    witnesses: MappingProxyType | None = None  # read-only agent -> ((collection, prob), ...)

    def witness_mass(self, agent) -> Fraction:
        if not self.witnesses or agent not in self.witnesses:
            return Fraction(0)
        return sum((p for _, p in self.witnesses[agent]), Fraction(0))


def classify_lie(scenario: Scenario, true_state, target_state) -> LieClass:
    """Classify the lie `target_state` told at `true_state` by refutability
    (a read of the scenario's lie table)."""
    for state in (true_state, target_state):
        scenario.state_index(state)  # ScenarioError for an unknown state
    return scenario.lie_table()[(true_state, target_state)]


def _classify(scenario: Scenario, true_state, target_state) -> LieClass:
    """One lie's class, with each refuting agent's witness collections."""
    if true_state == target_state:
        return LieClass(true_state, target_state, "self_identical")
    target = scenario.states.index(target_state)
    witnesses = {}
    for agent in scenario.agents:
        _, positions, refuted = scenario.evidence(agent)
        found = tuple(
            (coll, prob)
            for coll, prob in scenario.dist(agent, true_state).items()
            if refuted[positions[coll]] >> target & 1
        )
        if found:
            witnesses[agent] = found
    if witnesses:
        return LieClass(
            true_state,
            target_state,
            "refutable",
            refuters=tuple(a for a in scenario.agents if a in witnesses),
            witnesses=MappingProxyType(witnesses),
        )
    return LieClass(true_state, target_state, "nonrefutable")


def contested_lies(scenario: Scenario, verdict="nonrefutable") -> list:
    """(true state, lie, LieClass) of every ordered pair of states whose
    outcomes differ and whose lie has `verdict` (any when None), in state
    order. By default these are the lies NPD/NPPD decide and the whistle bets
    contest."""
    return [
        (s, t, lie)
        for (s, t), lie in scenario.lie_table().items()
        if scenario.scf[s] != scenario.scf[t] and verdict in (None, lie.verdict)
    ]


def article_nomenclature(scenario: Scenario) -> dict:
    """Derived names: article -> set of states where any agent may hold it."""
    per_agent = [agent_nomenclature(scenario, agent) for agent in scenario.agents]
    return {article: frozenset().union(*(names[article] for names in per_agent)) for article in scenario.articles}


def agent_nomenclature(scenario: Scenario, agent) -> dict:
    """Derived per-agent names: states where this agent may hold the article."""
    names = {article: set() for article in scenario.articles}
    for state in scenario.states:
        for coll in scenario.support(agent, state):
            for article in coll:
                names[article].add(state)
    return {article: frozenset(states) for article, states in names.items()}


# -- validation ------------------------------------------------------------


@dataclass
class ValidationReport:
    violations: list

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Structural and evidential checks; empty violation list means valid."""
    violations = list(scenario.input_violations)

    def flag(path, message):
        violations.append({"path": path, "message": message})

    for name, seq in (
        ("agents", scenario.agents),
        ("states", scenario.states),
        ("articles", scenario.articles),
        ("outcomes", scenario.outcomes),
    ):
        if len(set(seq)) != len(seq):
            flag(name, "duplicate ids")
    if len(scenario.agents) < 2:
        flag("agents", "need at least two agents")
    if len(scenario.states) < 1:
        flag("states", "need at least one state")

    # entries under ids nothing declares are never read: flag, do not drop them
    undeclared = {}
    for agent, state in scenario.dists:
        if agent not in scenario.agents:
            undeclared[f"distributions.{agent}"] = "undeclared agent"
        elif state not in scenario.states:
            undeclared[f"distributions.{agent}.{state}"] = "undeclared state"
    for state in scenario.scf:
        if state not in scenario.states:
            undeclared[f"scf.{state}"] = "undeclared state"
    for idx, profile in enumerate(scenario.utility_profiles):
        for agent, per_agent in profile.items():
            path = f"utility_profiles[{idx}].{agent}"
            if agent not in scenario.agents:
                undeclared[path] = "undeclared agent"
                continue
            for outcome, state in per_agent:
                if outcome not in scenario.outcomes:
                    undeclared[f"{path}.{outcome}"] = "undeclared outcome"
                elif state not in scenario.states:
                    undeclared[f"{path}.{outcome}.{state}"] = "undeclared state"
    for path, message in undeclared.items():
        flag(path, message)

    for agent in scenario.agents:
        for state in scenario.states:
            path = f"distributions.{agent}.{state}"
            if (agent, state) not in scenario.dists:
                flag(path, "missing distribution")
                continue
            dist = scenario.dists[(agent, state)]
            if dist.total() != 1:
                flag(path, f"probabilities sum to {format_rational(dist.total())}, not 1")
            for coll, prob in dist.items():
                if prob <= 0:
                    flag(path, f"non-positive probability on {format_collection(coll)}")
                extra = coll - set(scenario.articles)
                if extra:
                    flag(path, f"unknown article ids {sorted(extra)}")

    for state in scenario.states:
        if state not in scenario.scf:
            flag(f"scf.{state}", "missing outcome assignment")
        elif scenario.scf[state] not in scenario.outcomes:
            flag(f"scf.{state}", f"unknown outcome {scenario.scf[state]!r}")

    if not scenario.utility_profiles:
        flag("utility_profiles", "need at least one utility profile")
    for idx, profile in enumerate(scenario.utility_profiles):
        for agent in scenario.agents:
            per_agent = profile.get(agent)
            if per_agent is None:
                flag(f"utility_profiles[{idx}].{agent}", "missing agent")
                continue
            for outcome in scenario.outcomes:
                for state in scenario.states:
                    value = per_agent.get((outcome, state))
                    path = f"utility_profiles[{idx}].{agent}.{outcome}.{state}"
                    if value is None:
                        flag(path, "missing utility")
                    elif not (-1 < value < 1):
                        flag(path, f"utility {format_rational(value)} outside (-1,1)")

    if violations:
        # id-level problems make the evidential checks unreliable; stop here.
        return ValidationReport(violations)

    # (se1)/(se2) hold by definition under the superset-based refutation (see
    # `check_deterministic_equivalence`). A declared nomenclature, when present,
    # makes "proof is true" substantive: only its analogues can fail.
    if scenario.article_names is not None:
        names = scenario.article_names
        for article in scenario.articles:
            if article not in names:
                flag(f"article_names.{article}", "missing declared name")
        derived = article_nomenclature(scenario)
        for agent in scenario.agents:
            for state in scenario.states:
                for coll in scenario.support(agent, state):
                    if refutes_by_names(names, coll, state):
                        flag(
                            f"distributions.{agent}.{state}",
                            f"(se1) violated under declared names: {format_collection(coll)} refutes {state}",
                        )
        for article, declared in names.items():
            for state in declared:
                if state not in scenario.states:
                    flag(f"article_names.{article}", f"unknown state {state!r}")
                elif state not in derived.get(article, frozenset()):
                    flag(
                        f"article_names.{article}",
                        f"(se2) violated: named for {state} but never available there",
                    )

    return ValidationReport(violations)


# -- deterministic-evidence equivalence ------------------------------------


class NonDegenerateInput(ValueError):
    pass


class NoMostInformativeArticle(ValueError):
    pass


@dataclass
class EquivalenceReport:
    se1: bool
    se2: bool
    e1: bool
    e2: bool
    relation_agreement: bool

    @property
    def stochastic_pair(self) -> bool:
        return self.se1 and self.se2

    @property
    def deterministic_pair(self) -> bool:
        return self.e1 and self.e2

    @property
    def equivalent(self) -> bool:
        return self.stochastic_pair == self.deterministic_pair


def check_deterministic_equivalence(scenario: Scenario, nomenclature=None) -> EquivalenceReport:
    """Evaluate (se1)/(se2) and their nomenclature analogues on a degenerate scenario.

    (se1) and (se2) hold for every scenario under the superset-based
    refutation, where `refutes` means that no support collection at the state
    contains the presented one. (se1) asks for a support collection that
    refutes its own state, but every collection contains itself. (se2) asks
    for a collection that is not refuted at a state yet lies in no support
    collection there, and "not refuted" says that some support collection
    contains it. So `se1 = se2 = True` without a check.

    With derived per-agent names (e1)/(e2) hold by construction too, and the
    substantive content is `relation_agreement`: superset-based refutation
    coincides with name-based refutation on every presentable collection.
    A supplied (declared) nomenclature makes (e1)/(e2) substantive.
    """
    for agent in scenario.agents:
        for state in scenario.states:
            if not scenario.dist(agent, state).is_degenerate():
                raise NonDegenerateInput(f"distribution for {agent} at {state} has >1 support collection")

    se1 = se2 = True

    per_agent_names = {agent: agent_nomenclature(scenario, agent) for agent in scenario.agents}

    def names_for(agent):
        return nomenclature if nomenclature is not None else per_agent_names[agent]

    e1 = True
    e2 = True
    for agent in scenario.agents:
        names = names_for(agent)
        endowment = {state: scenario.support(agent, state)[0] for state in scenario.states}
        for state in scenario.states:
            for article in endowment[state]:
                named = names.get(article, frozenset())
                if state not in named:
                    e1 = False
                for other in named:
                    if other in scenario.states and article not in endowment[other]:
                        e2 = False

    relation_agreement = True
    for agent in scenario.agents:
        names = per_agent_names[agent]
        presentable, _, refuted = scenario.evidence(agent)
        for coll, mask in zip(presentable, refuted):
            for k, state in enumerate(scenario.states):
                if bool(mask >> k & 1) != refutes_by_names(names, coll, state):
                    relation_agreement = False

    return EquivalenceReport(se1, se2, e1, e2, relation_agreement)


def most_informative_projection(scenario: Scenario) -> Scenario:
    """Replace every support collection by its single most informative article.

    The most informative article of a collection is the one whose derived
    per-agent name is contained in every other member's name. Raises when a
    collection has no such article. The empty collection projects to itself.
    """
    new_dists = {}
    for agent in scenario.agents:
        names = agent_nomenclature(scenario, agent)
        for state in scenario.states:
            merged = {}
            for coll, prob in scenario.dist(agent, state).items():
                if not coll:
                    target = frozenset()
                else:
                    best = None
                    for article in sorted(coll):
                        if all(names[article] <= names[other] for other in coll):
                            best = article
                            break
                    if best is None:
                        raise NoMostInformativeArticle(
                            f"{format_collection(coll)} has no name-minimal article"
                        )
                    target = frozenset({best})
                merged[target] = merged.get(target, Fraction(0)) + prob
            new_dists[(agent, state)] = Distribution(merged)
    return replace(scenario, dists=new_dists, article_names=None, input_violations=())


# -- JSON wire format --------------------------------------------------------


def parse_scenario(data) -> Scenario:
    """Parse the JSON scenario document (structural errors raise ScenarioFormatError)."""
    if not isinstance(data, dict):
        raise ScenarioFormatError("scenario document must be an object")
    # a key nothing reads may be a misspelling: flag it, do not drop it;
    # each (path, message) is recorded once, however many rows repeat it
    known = ("agents", "states", "articles", "outcomes", "distributions", "scf", "utility_profiles", "article_names")
    violations = dict.fromkeys((str(key), "unknown key") for key in data if key not in known)

    def ids(value, path):
        # a string iterates as its characters: flag it rather than split it
        if not isinstance(value, list):
            violations[(path, "must be a list of ids")] = None
        return tuple(str(x) for x in value)

    try:
        agents = ids(data["agents"], "agents")
        states = ids(data["states"], "states")
        articles = ids(data["articles"], "articles")
        outcomes = ids(data["outcomes"], "outcomes")
        dists = {}
        for agent, per_state in data["distributions"].items():
            for state, rows in per_state.items():
                probs = {}
                path = f"distributions.{agent}.{state}"
                for row in rows:
                    coll = frozenset(ids(row["collection"], path))
                    probs[coll] = probs.get(coll, Fraction(0)) + parse_rational(row["prob"])
                    unknown = row.keys() - {"collection", "prob"}
                    violations.update(((path, f"unknown key {key!r}"), None) for key in sorted(unknown))
                dists[(str(agent), str(state))] = Distribution(probs)
        scf = {str(s): str(o) for s, o in data["scf"].items()}
        profiles = []
        for profile in data["utility_profiles"]:
            parsed = {}
            for agent, per_outcome in profile.items():
                parsed[str(agent)] = {
                    (str(outcome), str(state)): parse_rational(value)
                    for outcome, per_state in per_outcome.items()
                    for state, value in per_state.items()
                }
            profiles.append(parsed)
        names = None
        if "article_names" in data:
            names = {
                str(article): frozenset(ids(state_list, f"article_names.{article}"))
                for article, state_list in data["article_names"].items()
            }
    except ScenarioFormatError:
        raise
    except RationalFormatError as exc:
        raise ScenarioFormatError(str(exc)) from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise ScenarioFormatError(f"malformed scenario document: {exc!r}") from exc
    return Scenario(
        agents=agents,
        states=states,
        articles=articles,
        dists=dists,
        scf=scf,
        outcomes=outcomes,
        utility_profiles=tuple(profiles),
        article_names=names,
        input_violations=tuple({"path": path, "message": message} for path, message in violations),
    )


def scenario_to_json(scenario: Scenario) -> dict:
    dists = {}
    for agent in scenario.agents:
        dists[agent] = {}
        for state in scenario.states:
            dists[agent][state] = [
                {"collection": sorted(coll), "prob": format_rational(prob)}
                for coll, prob in scenario.dist(agent, state).items()
            ]
    profiles = []
    for profile in scenario.utility_profiles:
        doc = {}
        for agent in scenario.agents:
            doc[agent] = {
                outcome: {
                    state: format_rational(profile[agent][(outcome, state)])
                    for state in scenario.states
                }
                for outcome in scenario.outcomes
            }
        profiles.append(doc)
    out = {
        "agents": list(scenario.agents),
        "states": list(scenario.states),
        "articles": list(scenario.articles),
        "distributions": dists,
        "scf": {state: scenario.scf[state] for state in scenario.states},
        "outcomes": list(scenario.outcomes),
        "utility_profiles": profiles,
    }
    if scenario.article_names is not None:
        out["article_names"] = {a: sorted(ns) for a, ns in scenario.article_names.items()}
    return out
