"""General type spaces: belief hierarchies, higher-order measurability,
evidence incentive compatibility, and the independent embedding of flat scenarios."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .rationals import RationalFormatError, common_denominator, format_rational, is_exact, joint, numerators, parse_rational
from .scenario import Scenario, collection_key, consensus_else_first, read_only_rows


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TypeSpaceModel:
    agents: tuple
    types: dict  # agent -> tuple of type ids
    evidence: dict  # (agent, type) -> frozenset of article ids
    beliefs: dict  # (agent, type) -> {opponent profile tuple: Fraction}
    outcomes: tuple
    scf: dict  # full type profile tuple -> outcome
    utility_profiles: tuple  # each: agent -> {(outcome, full profile): Fraction}
    articles: tuple = ()
    # shape problems the parser read past (validate_model reports them)
    input_violations: tuple = field(default=(), compare=False, repr=False)
    # derived data built on first use; init=False, so `dataclasses.replace`
    # gives a copy a fresh cache instead of the original's tables
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        # stored read-only: the compiled tables must not go stale
        for name in ("types", "evidence", "scf"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "beliefs", read_only_rows(self.beliefs))
        object.__setattr__(self, "utility_profiles", tuple(map(read_only_rows, self.utility_profiles)))

    def tables(self) -> "ModelTables":
        """The integer tables compiled from this model, built on first use."""
        tables = self._cache.get("tables")
        if tables is None:
            tables = self._cache["tables"] = ModelTables(self)
        return tables

    def opponents(self, agent):
        return tuple(a for a in self.agents if a != agent)

    def profiles(self) -> tuple:
        """All full type profiles, agent order."""
        key = "profiles"
        if key not in self._cache:
            self._cache[key] = tuple(itertools.product(*(self.types[a] for a in self.agents)))
        return self._cache[key]

    def belief(self, agent, type_id):
        return self.beliefs[(agent, type_id)]

    def full_profile(self, agent, own_type, opponent_profile) -> tuple:
        """The full type profile, in agent order, of one agent's type and its
        opponents' profile (the other agents' types, in agent order)."""
        i = self.agents.index(agent)
        return opponent_profile[:i] + (own_type,) + opponent_profile[i:]

    def utility(self, profile_idx, agent, outcome, full_profile) -> Fraction:
        return self.utility_profiles[profile_idx][agent][(outcome, full_profile)]

    def utility_span(self, profile_idx, agent) -> Fraction:
        scale, numerators = self.tables().utility_table(profile_idx)
        utility = numerators[agent]
        values = [utility[(o, t)] for o in self.outcomes for t in self.profiles()]
        return Fraction(max(values) - min(values), scale)

    def feasible_reports(self, agent, type_id):
        """Evidence-feasible type claims: reported endowment within the true one."""
        own = self.evidence[(agent, type_id)]
        return [t for t in self.types[agent] if self.evidence[(agent, t)] <= own]

    def max_evidence_size(self) -> int:
        return max((len(e) for e in self.evidence.values()), default=0)


class ModelTables:
    """A model's beliefs and utilities as exact integer numerators, compiled
    once per model (`TypeSpaceModel.tables`).

    - `L`: the lcm of every belief denominator. `beliefs[(agent, type)]` lists
      (opponent profile, numerator over L) in the belief's own order. With one
      denominator for the whole model, equal probabilities have equal
      numerators, so integer push-forwards intern exactly as their `Fraction`
      counterparts would.
    - `utility_table(idx)`: (scale, agent -> {(outcome, full profile):
      numerator}), utility profile idx over its own lcm `scale`, compiled on
      first use.

    `interim_values` values each (utility profile, agent, type) once and
    keeps the result read-only. The tables hold no reference to their model.
    """

    def __init__(self, model: TypeSpaceModel):
        self.L = L = common_denominator(p for belief in model.beliefs.values() for p in belief.values())
        self.beliefs = {key: tuple(zip(b, numerators(b.values(), L))) for key, b in model.beliefs.items()}
        self.agents = model.agents
        self.scf = model.scf
        self.feasible = {(a, t): tuple(model.feasible_reports(a, t)) for a in model.agents for t in model.types[a]}
        self._utility_profiles = model.utility_profiles
        self._utilities = {}
        self._values = {}

    def utility_table(self, idx):
        """(scale, agent -> {(outcome, full profile): numerator over scale})."""
        table = self._utilities.get(idx)
        if table is None:
            profile = [(agent, self._utility_profiles[idx][agent]) for agent in self.agents]
            scale = lcm(*{value.denominator for _, row in profile for value in row.values()})
            rows = {
                agent: dict(zip(row, [value.numerator * (scale // value.denominator) for value in row.values()]))
                for agent, row in profile
            }
            table = self._utilities[idx] = (scale, rows)
        return table

    def interim_values(self, idx, agent, type_id):
        """(denominator, read-only {report: numerator}): the interim values of
        `report_values`, computed once per (utility profile, agent, type)."""
        key = (idx, agent, type_id)
        values = self._values.get(key)
        if values is None:
            values = self._values[key] = self._value_reports(idx, agent, type_id)
        return values

    def _value_reports(self, idx, agent, type_id):
        scale, numerators = self.utility_table(idx)
        utility = numerators[agent]
        scf = self.scf
        i = self.agents.index(agent)
        # (numerator, opponents before agent, opponents after, true full profile)
        rows = []
        for t_other, prob in self.beliefs[(agent, type_id)]:
            head, tail = t_other[:i], t_other[i:]
            rows.append((prob, head, tail, head + (type_id,) + tail))
        values = {}
        for report in self.feasible[(agent, type_id)]:
            total = 0
            for prob, head, tail, true_full in rows:
                total += prob * utility[(scf[head + (report,) + tail], true_full)]
            values[report] = total
        return self.L * scale, MappingProxyType(values)


def validate_model(model: TypeSpaceModel) -> list:
    problems = []
    declared = [("agents", model.agents), ("outcomes", model.outcomes), ("articles", model.articles)]
    declared.extend((f"types.{agent}", model.types[agent]) for agent in dict.fromkeys(model.agents))
    for name, ids in declared:
        if len(set(ids)) != len(ids):
            problems.append(f"{name}: duplicate ids")
    if not model.agents:
        problems.append("agents: need at least one agent")
    for agent in model.agents:
        if not model.types[agent]:
            problems.append(f"types.{agent}: need at least one type")
    if problems:
        # id-level problems make the remaining checks unreliable; stop here.
        return problems
    problems.extend(model.input_violations)
    for agent in model.agents:
        for type_id in model.types[agent]:
            unknown = model.evidence[(agent, type_id)] - set(model.articles)
            if unknown:
                problems.append(f"evidence_map.{agent}.{type_id}: unknown article ids {sorted(unknown)}")
    for agent in model.agents:
        for type_id in model.types[agent]:
            belief = model.belief(agent, type_id)
            inexact = [prob for prob in belief.values() if not is_exact(prob)]
            if inexact:
                problems.append(f"beliefs.{agent}.{type_id}: inexact entry {inexact[0]!r}")
            else:
                total = sum(belief.values(), Fraction(0))
                if total != 1:
                    problems.append(f"beliefs.{agent}.{type_id}: sum {format_rational(total)} != 1")
                for prob in belief.values():
                    if prob <= 0:
                        problems.append(f"beliefs.{agent}.{type_id}: non-positive entry")
            for t_other in belief:
                for other, t in zip(model.opponents(agent), t_other):
                    if t not in model.types[other]:
                        problems.append(f"beliefs.{agent}.{type_id}: undeclared type {t!r} of {other}")
    profiles = set(model.profiles())
    for profile in model.profiles():
        if profile not in model.scf:
            problems.append(f"scf: missing outcome for {profile}")
    for profile, outcome in model.scf.items():
        if profile not in profiles:
            problems.append(f"scf: undeclared type profile {profile}")
        elif outcome not in model.outcomes:
            problems.append(f"scf: undeclared outcome {outcome!r} for {profile}")
    # entries under ids nothing declares are never read: flag, do not drop them
    undeclared = {}
    for idx, prof in enumerate(model.utility_profiles):
        for agent in model.agents:
            for outcome, profile in prof[agent]:
                path = f"utility_profiles[{idx}].{agent}.{outcome}"
                if outcome not in model.outcomes:
                    undeclared[path] = "undeclared outcome"
                elif profile not in profiles:
                    undeclared[f"{path}.{profile}"] = "undeclared type profile"
    problems.extend(f"{path}: {message}" for path, message in undeclared.items())
    for idx, prof in enumerate(model.utility_profiles):
        for agent in model.agents:
            for outcome in model.outcomes:
                for t in model.profiles():
                    value = prof[agent].get((outcome, t))
                    if value is None:
                        problems.append(f"utility_profiles[{idx}].{agent}: missing ({outcome},{t})")
                    elif not is_exact(value):
                        problems.append(f"utility_profiles[{idx}].{agent}: inexact value {value!r}")
                    elif not (-1 < value < 1):
                        problems.append(f"utility_profiles[{idx}].{agent}: value outside (-1,1)")
    return problems


# -- embedding ----------------------------------------------------------------


def embed_flat_scenario(scenario: Scenario) -> TypeSpaceModel:
    """Independent embedding: types are (state, support collection) pairs,
    beliefs concentrate on the own state with product evidence probabilities,
    and the choice function extends by consensus-else-first-report."""
    agents = scenario.agents
    types = {
        agent: tuple((state, coll) for state in scenario.states for coll in scenario.support(agent, state))
        for agent in agents
    }
    # a type's belief depends on its state alone: the joint law of the
    # opponents' evidence there, one factor per opponent
    beliefs = {}
    for agent in agents:
        by_state = {}
        for state, coll in types[agent]:
            if state not in by_state:
                factors = [
                    [(p.numerator, p.denominator, ((state, c),)) for c, p in scenario.dist(other, state).items()]
                    for other in agents
                    if other != agent
                ]
                W, rows = joint(factors)
                by_state[state] = {profile: Fraction(n, W) for n, profile in rows}
            beliefs[(agent, (state, coll))] = by_state[state]
    # each type profile and the state its consensus-else-first report picks;
    # every utility row reads the same (outcome, chosen state) keys into the
    # same (outcome, type profile) keys
    profiles = list(itertools.product(*(types[agent] for agent in agents)))
    chosen = [consensus_else_first(state for state, _ in t) for t in profiles]
    keys = [(outcome, t) for outcome in scenario.outcomes for t in profiles]
    reads = [(outcome, state) for outcome in scenario.outcomes for state in chosen]
    utility_profiles = tuple(
        {agent: dict(zip(keys, map(profile[agent].__getitem__, reads))) for agent in agents}
        for profile in scenario.utility_profiles
    )
    return TypeSpaceModel(
        agents=agents,
        types=types,
        evidence={(agent, type_id): type_id[1] for agent in agents for type_id in types[agent]},
        beliefs=beliefs,
        outcomes=scenario.outcomes,
        scf=dict(zip(profiles, map(scenario.scf.__getitem__, chosen))),
        utility_profiles=utility_profiles,
        articles=scenario.articles,
    )


# -- belief hierarchies --------------------------------------------------------


@dataclass
class HierarchyTable:
    """A model's belief hierarchies, built, stored and read in one place. Level 0
    of a signature is the endowment token, level k >= 1 the interned token of the
    type's push-forward onto opponents' level-(k-1) signatures, kept read-only
    as integer numerators over the model's `L` (`ModelTables`)."""

    model: TypeSpaceModel
    depth: int
    signatures: dict  # (agent, type) -> tuple of per-level tokens
    intern: dict = field(default_factory=dict)  # (k, sorted push-forward numerators) -> token
    numerators: dict = field(default_factory=dict)  # token -> read-only push-forward numerators
    pushforwards: dict = field(default_factory=dict)  # token -> read-only push-forward, on first read

    def level(self, agent, type_id, k):
        return self.signatures[(agent, type_id)][k]

    def level_distribution(self, agent, type_id, k):
        """The level-k push-forward (k >= 1), read-only, converted from its
        numerators on first read."""
        token = self.signatures[(agent, type_id)][k]
        dist = self.pushforwards.get(token)
        if dist is None:
            L = self.model.tables().L
            dist = {point: Fraction(n, L) for point, n in self.numerators[token].items()}
            dist = self.pushforwards[token] = MappingProxyType(dist)
        return dist

    def level_numerators(self, agent, type_id, k):
        """The level-k push-forward as numerators over the model's `L`."""
        return self.numerators[self.signatures[(agent, type_id)][k]]

    def grow(self):
        """Intern level depth + 1 for every type."""
        model = self.model
        beliefs = model.tables().beliefs
        signatures = self.signatures
        k = self.depth + 1
        grown = {}
        for agent in model.agents:
            others = model.opponents(agent)
            for type_id in model.types[agent]:
                dist = {}
                for t_other, prob in beliefs[(agent, type_id)]:
                    point = tuple(map(signatures.__getitem__, zip(others, t_other)))
                    dist[point] = dist.get(point, 0) + prob
                # points are unique, so sorting never compares numerators
                key = (k, tuple(sorted(dist.items())))
                token = self.intern.get(key)
                if token is None:
                    token = self.intern[key] = ("lvl", k, len(self.intern))
                    self.numerators[token] = MappingProxyType(dist)
                grown[(agent, type_id)] = signatures[(agent, type_id)] + (token,)
        self.signatures = grown
        self.depth = k

    def cell_counts(self) -> list:
        """Distinct signatures per agent; levels refine, so equal counts mean equal partitions."""
        return [len({self.signatures[(a, t)] for t in self.model.types[a]}) for a in self.model.agents]


def evidence_token(evidence) -> tuple:
    """The level-0 token of an endowment or presented evidence."""
    return ("ev", collection_key(evidence))


def _level_zero_table(model: TypeSpaceModel) -> HierarchyTable:
    tokens = {(a, t): (evidence_token(model.evidence[(a, t)]),) for a in model.agents for t in model.types[a]}
    return HierarchyTable(model, 0, tokens)


def build_hierarchy(model: TypeSpaceModel, depth: int) -> HierarchyTable:
    """Exact hierarchies up to `depth` (`ValueError` if negative), canonically interned level by level."""
    if depth < 0:
        raise ValueError(f"depth must be non-negative, not {depth}")
    table = _level_zero_table(model)
    for _ in range(depth):
        table.grow()
    return table


def depth_bound(model: TypeSpaceModel) -> int:
    """Total number of types plus one. Every level refines the last, so the
    partitions stabilize within the total number of types, and levels past
    stabilization + 1 add nothing."""
    return sum(len(model.types[a]) for a in model.agents) + 1


def build_to_stabilization(model: TypeSpaceModel):
    """(table, k_stable): grown until no agent's partition refines (k_stable is
    the last level that did, or 0), then one level more, to depth k_stable + 2.
    Level-k classes stop refining at k_stable + 1."""
    bound = depth_bound(model)
    table = _level_zero_table(model)
    previous = table.cell_counts()
    for k in range(1, bound + 1):
        table.grow()
        current = table.cell_counts()
        if current == previous:
            # one more level: endowment-only splits surface in beliefs one step late
            table.grow()
            return table, k - 1
        previous = current
    return table, bound


def stabilization_depth(model: TypeSpaceModel) -> int:
    """First level after which no agent's signature partition refines further."""
    return build_to_stabilization(model)[1]


# -- conditions ----------------------------------------------------------------


@dataclass
class HomVerdict:
    passed: bool
    stabilization: int
    k_bar: int | None  # max over f-distinct pairs of the minimal separating level
    failures: list  # inseparable f-distinct profile pairs
    table: HierarchyTable


def separating_level(verdict: HomVerdict, model: TypeSpaceModel, t, t_prime):
    """(agent, level) first separating a given profile pair, None if inseparable."""
    table = verdict.table
    for k in range(1, table.depth + 1):
        for agent, own, other in zip(model.agents, t, t_prime):
            if table.level(agent, own, k) != table.level(agent, other, k):
                return (agent, k)
    return None


def check_higher_order_measurability(model: TypeSpaceModel) -> HomVerdict:
    """Every f-distinct profile pair must be separated by some agent's belief
    hierarchy at a finite level (level 0, the endowment itself, does not count:
    separation must show up in beliefs for the scoring rules to elicit it).

    Endowment-only distinctions at the stabilized cumulative partition can
    surface in pure belief levels one step later, so the scan runs one level
    past stabilization; beyond that, push-forwards factor through the stable
    partition and nothing new appears.

    Profiles are grouped at level k by each agent's level-k token alone, so
    the check is linear in the profile count. That is the partition of belief
    levels 1..k: a level-k push-forward determines every lower belief level,
    since truncating its points' signatures by one level gives the level-(k-1)
    push-forward, whose interned token is then fixed too.
    """
    table, depth = build_to_stabilization(model)
    profiles = model.profiles()

    def classes_at(k):
        groups = {}
        for t in profiles:
            key = tuple(table.level(agent, own, k) for agent, own in zip(model.agents, t))
            groups.setdefault(key, []).append(t)
        return groups

    top = classes_at(table.depth)
    failures = []
    for members in top.values():
        outcomes = {model.scf[t] for t in members}
        if len(outcomes) > 1:
            first = members[0]
            witness = next(t for t in members if model.scf[t] != model.scf[first])
            failures.append((first, witness))
    if failures:
        return HomVerdict(False, depth, None, failures, table)

    k_bar = table.depth
    for k in range(1, table.depth + 1):
        if all(len({model.scf[t] for t in members}) == 1 for members in classes_at(k).values()):
            k_bar = k
            break
    return HomVerdict(True, depth, k_bar, [], table)


@dataclass
class EicVerdict:
    passed: bool
    failures: list  # (profile_idx, agent, type, better report, gain)


def report_values(model: TypeSpaceModel, idx, agent, type_id) -> dict:
    """Interim value to `agent`'s `type_id` under utility profile `idx` of each
    evidence-feasible report, in `feasible_reports` order, against truthful
    opponents: expected utility at the true profile of the reported profile's
    outcome (`ModelTables.interim_values` as `Fraction`s)."""
    denominator, values = model.tables().interim_values(idx, agent, type_id)
    return {report: Fraction(value, denominator) for report, value in values.items()}


def check_evidence_ic(model: TypeSpaceModel, profile_indices=None) -> EicVerdict:
    """Truth must be optimal among evidence-feasible reports in the direct game."""
    if profile_indices is None:
        profile_indices = range(len(model.utility_profiles))
    tables = model.tables()
    failures = []
    for idx in profile_indices:
        for agent in model.agents:
            for type_id in model.types[agent]:
                denominator, values = tables.interim_values(idx, agent, type_id)
                truth = values[type_id]
                for report, value in values.items():
                    if value > truth:
                        failures.append((idx, agent, type_id, report, Fraction(value - truth, denominator)))
    return EicVerdict(not failures, failures)


# -- JSON wire format -----------------------------------------------------------


def type_label(type_id):
    """A type id as the wire format writes it: "state|{a,b}" for an embedded (state, collection) type."""
    if isinstance(type_id, tuple):
        state, coll = type_id
        return f"{state}|{{{','.join(sorted(coll))}}}"
    return str(type_id)


def parse_model(data) -> TypeSpaceModel:
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be an object")
    # a key nothing reads may be a misspelling: flag it, do not drop it
    known = ("agents", "types", "articles", "evidence_map", "beliefs", "outcomes", "scf", "utility_profiles")
    unread = {}  # violation path -> messages about input nothing reads

    def declared(mapping, ids, path, kind):
        """`mapping`, each key naming no declared id flagged."""
        unread.update((f"{path}.{key}", {f"undeclared {kind}": None}) for key in mapping if key not in ids)
        return mapping

    def profile_of(row, expected, path, field):
        """A row's profile over the `expected` agents; a row holds its profile and `field` alone."""
        profile = row["profile"]
        for key in profile:
            if key not in expected:
                unread.setdefault(path, {})[f"unexpected profile key {key!r}"] = None
        for key in sorted(row.keys() - {"profile", field}):
            unread.setdefault(path, {})[f"unknown key {key!r}"] = None
        return tuple(str(profile[a]) for a in expected)

    try:
        agents = tuple(str(a) for a in data["agents"])
        type_map = declared(data["types"], agents, "types", "agent")
        types = {a: tuple(str(t) for t in type_map[a]) for a in agents}
        articles = tuple(str(a) for a in data.get("articles", []))
        evidence = {}
        evidence_map = declared(data["evidence_map"], agents, "evidence_map", "agent")
        for agent in agents:
            listed = declared(evidence_map[agent], types[agent], f"evidence_map.{agent}", "type")
            for type_id in types[agent]:
                evidence[(agent, type_id)] = frozenset(str(x) for x in listed[type_id])
        beliefs = {}
        belief_map = declared(data["beliefs"], agents, "beliefs", "agent")
        for agent in agents:
            others = tuple(a for a in agents if a != agent)
            per_type = declared(belief_map[agent], types[agent], f"beliefs.{agent}", "type")
            for type_id in types[agent]:
                entries = {}
                for row in per_type[type_id]:
                    profile = profile_of(row, others, f"beliefs.{agent}.{type_id}", "prob")
                    entries[profile] = entries.get(profile, Fraction(0)) + parse_rational(row["prob"])
                beliefs[(agent, type_id)] = entries
        outcomes = tuple(str(o) for o in data["outcomes"])
        scf = {}
        for row in data["scf"]:
            scf[profile_of(row, agents, "scf", "outcome")] = str(row["outcome"])
        utility_profiles = []
        for idx, prof in enumerate(data["utility_profiles"]):
            per_agent = {}
            declared(prof, agents, f"utility_profiles[{idx}]", "agent")
            for agent in agents:
                entries = {}
                for outcome, rows in prof[agent].items():
                    for row in rows:
                        profile = profile_of(row, agents, f"utility_profiles[{idx}].{agent}.{outcome}", "value")
                        entries[(str(outcome), profile)] = parse_rational(row["value"])
                per_agent[agent] = entries
            utility_profiles.append(per_agent)
    except RationalFormatError as exc:
        raise ModelFormatError(str(exc)) from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc
    return TypeSpaceModel(
        agents=agents,
        types=types,
        evidence=evidence,
        beliefs=beliefs,
        outcomes=outcomes,
        scf=scf,
        utility_profiles=tuple(utility_profiles),
        articles=articles,
        input_violations=tuple(f"{key}: unknown key" for key in data if key not in known)
        + tuple(f"{path}: {message}" for path, messages in unread.items() for message in messages),
    )


def model_to_json(model: TypeSpaceModel) -> dict:
    agents = list(model.agents)
    type_names = {
        (agent, t): type_label(t) for agent in model.agents for t in model.types[agent]
    }
    doc = {
        "agents": agents,
        "types": {a: [type_names[(a, t)] for t in model.types[a]] for a in agents},
        "articles": list(model.articles),
        "evidence_map": {
            a: {type_names[(a, t)]: sorted(model.evidence[(a, t)]) for t in model.types[a]}
            for a in agents
        },
        "beliefs": {},
        "outcomes": list(model.outcomes),
        "scf": [],
        "utility_profiles": [],
    }
    for agent in agents:
        others = model.opponents(agent)
        doc["beliefs"][agent] = {}
        for type_id in model.types[agent]:
            rows = []
            for t_other, prob in sorted(
                model.belief(agent, type_id).items(), key=lambda kv: str(kv[0])
            ):
                rows.append(
                    {
                        "profile": {o: type_names[(o, t)] for o, t in zip(others, t_other)},
                        "prob": format_rational(prob),
                    }
                )
            doc["beliefs"][agent][type_names[(agent, type_id)]] = rows
    for profile in model.profiles():
        doc["scf"].append(
            {
                "profile": {a: type_names[(a, t)] for a, t in zip(agents, profile)},
                "outcome": model.scf[profile],
            }
        )
    for prof in model.utility_profiles:
        entry = {}
        for agent in agents:
            entry[agent] = {}
            for outcome in model.outcomes:
                rows = []
                for profile in model.profiles():
                    rows.append(
                        {
                            "profile": {a: type_names[(a, t)] for a, t in zip(agents, profile)},
                            "value": format_rational(prof[agent][(outcome, profile)]),
                        }
                    )
                entry[agent][outcome] = rows
        doc["utility_profiles"].append(entry)
    return doc
