"""Reference for the load-path differential test: the flat scenario load
path before it kept each parsed `Fraction`, tested signs and ranges on
integer numerators and built the embedding's utility rows from one shared
key list.

These are `evimech.scenario.Distribution.__init__`, `parse_scenario` and
`validate_scenario`, `evimech.hierarchy.embed_flat_scenario` and
`evimech.hierarchy.ModelTables.utility_table` as they stood then, each copied
verbatim apart from the absolute imports: `Distribution` is a subclass of the
package's class with the old constructor, `parse_scenario` builds it,
`embed_flat_scenario` returns the package's `TypeSpaceModel`, and the method
`utility_table` is a function of whatever carries the `agents`,
`_utility_profiles` and `_utilities` it reads.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from evimech import scenario as _scenario
from evimech.hierarchy import TypeSpaceModel
from evimech.rationals import RationalFormatError, common_denominator, format_rational, joint, numerators, parse_rational
from evimech.scenario import (
    Scenario,
    ScenarioFormatError,
    ValidationReport,
    article_nomenclature,
    collection_key,
    consensus_else_first,
    format_collection,
    refutes_by_names,
)


class Distribution(_scenario.Distribution):
    """The package's distribution with the old constructor."""

    __slots__ = ()

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
                W, rows = joint(factors, ())
                by_state[state] = {profile: Fraction(n, W) for n, profile in rows}
            beliefs[(agent, (state, coll))] = by_state[state]
    # each type profile with the state its consensus-else-first report picks
    product = itertools.product(*(types[agent] for agent in agents))
    profiles = [(t, consensus_else_first(state for state, _ in t)) for t in product]
    utility_profiles = tuple(
        {
            agent: {
                (outcome, t): profile[agent][(outcome, chosen)]
                for outcome in scenario.outcomes
                for t, chosen in profiles
            }
            for agent in agents
        }
        for profile in scenario.utility_profiles
    )
    return TypeSpaceModel(
        agents=agents,
        types=types,
        evidence={(agent, type_id): type_id[1] for agent in agents for type_id in types[agent]},
        beliefs=beliefs,
        outcomes=scenario.outcomes,
        scf={t: scenario.scf[chosen] for t, chosen in profiles},
        utility_profiles=utility_profiles,
        articles=scenario.articles,
    )


def utility_table(self, idx):
    """(scale, agent -> {(outcome, full profile): numerator over scale})."""
    table = self._utilities.get(idx)
    if table is None:
        profile = self._utility_profiles[idx]
        scale = common_denominator(v for agent in self.agents for v in profile[agent].values())
        rows = {a: dict(zip(profile[a], numerators(profile[a].values(), scale))) for a in self.agents}
        table = self._utilities[idx] = (scale, rows)
    return table
