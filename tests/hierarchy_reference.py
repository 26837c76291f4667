"""Reference for the differential tests: belief hierarchies, HOM, EIC and the
small-transfer mechanism before one hierarchy table per model.

This is `evimech.hierarchy` (the hierarchy table and its builders, HOM and
EIC) and `evimech.smalltransfers` (the mechanism, its builder and the
elimination) as they stood before the table kept each level's push-forward
and the mechanism reused the HOM table, and `evimech.hierarchy.embed_flat_scenario`
as it stood before it was built on `rationals.joint`, with its own product loop
over the opponents' evidence; each copied verbatim apart from the absolute
imports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from evimech.hierarchy import TypeSpaceModel
from evimech.scenario import Scenario, collection_key, consensus_else_first


# -- belief hierarchies --------------------------------------------------------


@dataclass
class HierarchyTable:
    """Per-type signatures: level 0 is the endowment, level k >= 1 an interned
    push-forward over opponents' lower-level signature tuples."""

    model: TypeSpaceModel
    depth: int
    signatures: dict  # (agent, type) -> tuple of per-level keys

    def level(self, agent, type_id, k):
        return self.signatures[(agent, type_id)][k]

    def belief_prefix(self, agent, type_id, k):
        """Signature tuple at belief levels 1..k (endowment excluded)."""
        return self.signatures[(agent, type_id)][1 : k + 1]

    def level_distribution(self, agent, type_id, k) -> dict:
        """The level-k push-forward as an explicit point distribution."""
        model = self.model
        dist = {}
        for t_other, prob in model.belief(agent, type_id).items():
            point = self._point(agent, t_other, k - 1)
            dist[point] = dist.get(point, Fraction(0)) + prob
        return dist

    def _point(self, agent, opponent_profile, upto) -> tuple:
        others = self.model.opponents(agent)
        return tuple(
            self.signatures[(other, t)][: upto + 1]
            for other, t in zip(others, opponent_profile)
        )


def _level_zero_table(model: TypeSpaceModel) -> HierarchyTable:
    signatures = {}
    for agent in model.agents:
        for type_id in model.types[agent]:
            endowment = model.evidence[(agent, type_id)]
            signatures[(agent, type_id)] = (("ev", collection_key(endowment)),)
    return HierarchyTable(model, 0, signatures)


def extend_hierarchy(table: HierarchyTable, intern: dict) -> HierarchyTable:
    model = table.model
    k = table.depth + 1
    new = {}
    for agent in model.agents:
        for type_id in model.types[agent]:
            dist = table.level_distribution(agent, type_id, k)
            key = tuple(sorted(dist.items()))
            token = intern.setdefault((k, key), ("lvl", k, len(intern)))
            new[(agent, type_id)] = table.signatures[(agent, type_id)] + (token,)
    return HierarchyTable(model, k, new)


def build_hierarchy(model: TypeSpaceModel, depth: int) -> HierarchyTable:
    """Exact hierarchies up to `depth`, canonically interned level by level."""
    table = _level_zero_table(model)
    intern = {}
    for _ in range(depth):
        table = extend_hierarchy(table, intern)
    return table


def _partitions(model, table, k):
    out = {}
    for agent in model.agents:
        cells = {}
        for type_id in model.types[agent]:
            cells.setdefault(table.signatures[(agent, type_id)][: k + 1], []).append(type_id)
        out[agent] = sorted(tuple(sorted(map(str, cell))) for cell in cells.values())
    return out


def build_to_stabilization(model: TypeSpaceModel):
    """(table, k_stable): grown one level at a time until partitions stop refining."""
    bound = sum(len(model.types[a]) for a in model.agents) + 1
    table = _level_zero_table(model)
    intern = {}
    previous = _partitions(model, table, 0)
    for k in range(1, bound + 1):
        table = extend_hierarchy(table, intern)
        current = _partitions(model, table, k)
        if current == previous:
            # one more level: endowment-only splits surface in beliefs one step late
            table = extend_hierarchy(table, intern)
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
    partition and nothing new appears. Profiles are grouped by their
    belief-signature vectors, so the check is linear in the profile count.
    """
    table, depth = build_to_stabilization(model)
    profiles = model.profiles()

    def classes_at(k):
        groups = {}
        for t in profiles:
            key = tuple(table.belief_prefix(agent, own, k) for agent, own in zip(model.agents, t))
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


def check_evidence_ic(model: TypeSpaceModel, profile_indices=None) -> EicVerdict:
    """Truth must be optimal among evidence-feasible reports in the direct game."""
    if profile_indices is None:
        profile_indices = range(len(model.utility_profiles))
    failures = []
    for idx in profile_indices:
        for agent in model.agents:
            for type_id in model.types[agent]:
                belief = model.belief(agent, type_id)

                def value(report):
                    total = Fraction(0)
                    for t_other, prob in belief.items():
                        full = model.full_profile(agent, report, t_other)
                        true_full = model.full_profile(agent, type_id, t_other)
                        total += prob * model.utility(idx, agent, model.scf[full], true_full)
                    return total

                truth = value(type_id)
                for report in model.feasible_reports(agent, type_id):
                    gain = value(report) - truth
                    if gain > 0:
                        failures.append((idx, agent, type_id, report, gain))
    return EicVerdict(not failures, failures)


# -- small-transfer mechanism ---------------------------------------------------


AM_TRANSFER_KEYS = ("evidence_reward", "scoring", "first_deviant_fine", "mismatch_fine")


class HomViolation(ValueError):
    def __init__(self, verdict):
        super().__init__("model fails higher-order measurability")
        self.verdict = verdict


class EicViolation(ValueError):
    def __init__(self, verdict):
        super().__init__("model fails evidence incentive compatibility")
        self.verdict = verdict


class TransferBoundExceeded(RuntimeError):
    """The built mechanism's exact transfer bound is above eps."""


@dataclass(frozen=True)
class AmMessage:
    evidence: frozenset
    belief_reports: tuple  # length k_bar + 1, type ids
    outcome_reports: tuple  # length J, type ids


@dataclass
class SmallTransferMechanism:
    model: TypeSpaceModel
    eps: Fraction
    k_bar: int
    beta: Fraction
    beta_bar: dict  # agent -> Fraction | None
    rounds: int  # J
    first_deviant_fine: Fraction  # > 1/J
    mismatch_fine: Fraction
    hierarchy: HierarchyTable
    level_bounds: list  # per level 1..k_bar+1, max |score| over achievable reports
    hom: object
    min_beta_bar: Fraction | None

    def with_params(self, **overrides) -> "SmallTransferMechanism":
        return replace(self, **overrides)

    def truthful_message(self, agent, type_id) -> AmMessage:
        return AmMessage(
            evidence=self.model.evidence[(agent, type_id)],
            belief_reports=tuple([type_id] * (self.k_bar + 1)),
            outcome_reports=tuple([type_id] * self.rounds),
        )

    # -- pointwise evaluation -------------------------------------------------

    def outcome_lottery(self, transcript: dict) -> dict:
        model = self.model
        lottery = {}
        for j in range(self.rounds):
            profile = tuple(transcript[a].outcome_reports[j] for a in model.agents)
            outcome = model.scf[profile]
            lottery[outcome] = lottery.get(outcome, Fraction(0)) + Fraction(1, self.rounds)
        return lottery

    def transfers(self, transcript: dict) -> dict:
        model = self.model
        table = self.hierarchy
        result = {}
        anchor = {a: transcript[a].belief_reports[self.k_bar] for a in model.agents}
        first_deviation_round = None
        for j in range(self.rounds):
            if any(transcript[a].outcome_reports[j] != anchor[a] for a in model.agents):
                first_deviation_round = j
                break
        for agent in model.agents:
            msg = transcript[agent]
            items = dict.fromkeys(AM_TRANSFER_KEYS, Fraction(0))
            items["evidence_reward"] = self.beta * len(msg.evidence)
            others = model.opponents(agent)
            for k in range(1, self.k_bar + 2):
                report = msg.belief_reports[k - 1]
                dist = table.level_distribution(agent, report, k)
                point = tuple(
                    (("ev", collection_key(transcript[o].evidence)),)
                    + tuple(
                        table.level(o, transcript[o].belief_reports[j - 1], j)
                        for j in range(1, k)
                    )
                    for o in others
                )
                sq = sum((p * p for p in dist.values()), Fraction(0))
                items["scoring"] += self.beta * (2 * dist.get(point, Fraction(0)) - sq)
            if first_deviation_round is not None:
                j = first_deviation_round
                if msg.outcome_reports[j] != anchor[agent]:
                    items["first_deviant_fine"] = -self.first_deviant_fine
            mismatches = sum(
                1 for j in range(self.rounds) if msg.outcome_reports[j] != anchor[agent]
            )
            items["mismatch_fine"] = -self.mismatch_fine * mismatches
            items["total"] = sum((items[k] for k in AM_TRANSFER_KEYS), Fraction(0))
            result[agent] = items
        return result

    def transfer_bound(self) -> Fraction:
        """Exact component-wise maximum of |transfer| over every message profile."""
        evidence_max = self.beta * self.model.max_evidence_size()
        scoring_max = self.beta * sum(self.level_bounds, Fraction(0))
        return evidence_max + scoring_max + self.first_deviant_fine + self.rounds * self.mismatch_fine


def _level_score_bound(table: HierarchyTable, model: TypeSpaceModel, k) -> Fraction:
    """Max |2 r(z) - r.r| over achievable level-k reports r and any point z."""
    worst = Fraction(0)
    for agent in model.agents:
        for type_id in model.types[agent]:
            dist = table.level_distribution(agent, type_id, k)
            sq = sum((p * p for p in dist.values()), Fraction(0))
            peak = max(dist.values())
            worst = max(worst, abs(2 * peak - sq), sq)
    return worst


def _squared_distance(own: dict, other: dict) -> Fraction:
    """Exact squared euclidean distance between two level distributions, over
    the union of their points."""
    points = own.keys() | other.keys()
    return sum(((own.get(p, Fraction(0)) - other.get(p, Fraction(0))) ** 2 for p in points), Fraction(0))


def build_small_transfer_mechanism(model: TypeSpaceModel, eps: Fraction) -> SmallTransferMechanism:
    """Scale the mechanism so every transfer stays within eps while the
    elimination chain (score gaps > fines > outcome stakes) holds strictly."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be strictly positive")
    hom = check_higher_order_measurability(model)
    if not hom.passed:
        raise HomViolation(hom)
    eic = check_evidence_ic(model)
    if not eic.passed:
        raise EicViolation(eic)

    k_bar = hom.k_bar if hom.k_bar and hom.k_bar > 0 else 1
    table = build_hierarchy(model, k_bar + 1)
    level_bounds = [_level_score_bound(table, model, k) for k in range(1, k_bar + 2)]
    evidence_max = model.max_evidence_size()
    beta = (eps / 2) / (evidence_max + sum(level_bounds, Fraction(0)))

    beta_bar = {}
    for agent in model.agents:
        candidates = []
        if any(len(model.evidence[(agent, t)]) > 0 for t in model.types[agent]):
            candidates.append(Fraction(1))
        top = k_bar + 1
        for type_id in model.types[agent]:
            own = table.level_distribution(agent, type_id, top)
            own_sig = table.level(agent, type_id, top)
            for report in model.feasible_reports(agent, type_id):
                if report == type_id or table.level(agent, report, top) == own_sig:
                    continue
                candidates.append(_squared_distance(own, table.level_distribution(agent, report, top)))
        beta_bar[agent] = beta * min(candidates) if candidates else None

    defined = [v for v in beta_bar.values() if v is not None]
    min_beta_bar = min(defined) if defined else None
    budget = min(min_beta_bar, eps / 2) if min_beta_bar is not None else eps / 2
    rounds = (2 / budget).__floor__() + 1
    gap = budget - Fraction(1, rounds)
    first_deviant_fine = Fraction(1, rounds) + gap / 2
    mismatch_fine = gap / (4 * rounds)

    mech = SmallTransferMechanism(
        model=model,
        eps=eps,
        k_bar=k_bar,
        beta=beta,
        beta_bar=beta_bar,
        rounds=rounds,
        first_deviant_fine=first_deviant_fine,
        mismatch_fine=mismatch_fine,
        hierarchy=table,
        level_bounds=level_bounds,
        hom=hom,
        min_beta_bar=min_beta_bar,
    )
    bound = mech.transfer_bound()
    if bound > eps:
        raise TransferBoundExceeded(f"transfer bound {bound} exceeds eps {eps}")
    return mech


# -- component-factored rationalizability --------------------------------------


@dataclass
class StageReport:
    name: str
    passed: bool
    details: dict


@dataclass
class RationalizabilityReport:
    stages: list
    survivors: dict  # (agent, type) -> {"evidence": [...], "belief": [per slot], "outcome": [...]}
    outcome_ok: bool
    transfer_bound: Fraction
    transfer_bound_ok: bool
    stamp: str = "EXHAUSTIVE (factored by message component)"

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.stages) and self.outcome_ok and self.transfer_bound_ok


def eliminate_rationalizable(mech: SmallTransferMechanism) -> RationalizabilityReport:
    """Replay the elimination chain slot by slot with exact inequalities.

    Stage 1: maximal evidence strictly dominant (evidence reward).
    Stage 2: each belief slot pinned to level-truthful reports (scoring rules);
             the final slot additionally beats the combined fines.
    Stage 3: outcome rounds pinned to the final belief report: against truthful
             opponents a lie costs the mismatch fine with no outcome gain
             (evidence incentive compatibility); against deviating opponents
             truth banks the first-deviant fine, which exceeds any 1/J outcome
             stake.
    """
    model = mech.model
    table = mech.hierarchy
    stages = []
    survivors = {}
    for agent in model.agents:
        for type_id in model.types[agent]:
            survivors[(agent, type_id)] = {
                "evidence": [model.evidence[(agent, type_id)]],
                "belief": [],
                "outcome": None,
            }

    stages.append(
        StageReport(
            "maximal_evidence",
            mech.beta > 0,
            {"beta": mech.beta},
        )
    )

    chain_ok = True
    fines_total = mech.first_deviant_fine + mech.rounds * mech.mismatch_fine
    belief_ok = True
    belief_details = {"eliminations": 0, "failures": []}
    for k in range(1, mech.k_bar + 2):
        final_slot = k == mech.k_bar + 1
        for agent in model.agents:
            for type_id in model.types[agent]:
                own_sig = table.level(agent, type_id, k)
                own_dist = table.level_distribution(agent, type_id, k)
                keep = []
                for report in model.feasible_reports(agent, type_id):
                    if table.level(agent, report, k) == own_sig:
                        keep.append(report)
                        continue
                    loss = mech.beta * _squared_distance(own_dist, table.level_distribution(agent, report, k))
                    belief_details["eliminations"] += 1
                    required = fines_total if final_slot else Fraction(0)
                    if loss <= required:
                        belief_ok = False
                        belief_details["failures"].append((agent, type_id, report, k, loss))
                survivors[(agent, type_id)]["belief"].append(keep)
    if mech.min_beta_bar is not None and mech.min_beta_bar <= fines_total:
        belief_ok = False
        belief_details["failures"].append(("chain", "min_beta_bar", mech.min_beta_bar, fines_total))
    stages.append(StageReport("belief_pinning", belief_ok, belief_details))

    outcome_stage_ok = True
    outcome_details = {"chain": {}, "failures": [], "checked": 0}
    outcome_details["chain"]["fine_exceeds_stake"] = mech.first_deviant_fine > Fraction(1, mech.rounds)
    if not outcome_details["chain"]["fine_exceeds_stake"]:
        outcome_stage_ok = False
        outcome_details["failures"].append(("chain", "first_deviant_fine <= 1/J"))
    for idx in range(len(model.utility_profiles)):
        for agent in model.agents:
            span = model.utility_span(idx, agent)
            stake = span / mech.rounds
            if mech.first_deviant_fine + mech.mismatch_fine <= stake:
                outcome_stage_ok = False
                outcome_details["failures"].append((idx, agent, "fines below outcome stake", stake))
            for type_id in model.types[agent]:
                belief = model.belief(agent, type_id)
                cell = survivors[(agent, type_id)]["belief"][mech.k_bar]
                for anchor in cell:
                    for lie in model.feasible_reports(agent, type_id):
                        if lie == anchor:
                            continue
                        outcome_details["checked"] += 1
                        # others truthful in the round: outcome gain bounded by
                        # the EIC slack of the lie, fine strictly negative
                        gain = Fraction(0)
                        for t_other, prob in belief.items():
                            full_lie = model.full_profile(agent, lie, t_other)
                            full_anchor = model.full_profile(agent, anchor, t_other)
                            true_full = model.full_profile(agent, type_id, t_other)
                            gain += prob * (
                                model.utility(idx, agent, model.scf[full_lie], true_full)
                                - model.utility(idx, agent, model.scf[full_anchor], true_full)
                            )
                        if gain / mech.rounds - mech.mismatch_fine >= 0:
                            outcome_stage_ok = False
                            outcome_details["failures"].append((idx, agent, type_id, lie, "EIC case"))
    stages.append(StageReport("outcome_rounds", outcome_stage_ok, outcome_details))

    pinned = outcome_stage_ok and belief_ok
    for agent in model.agents:
        for type_id in model.types[agent]:
            cell = survivors[(agent, type_id)]["belief"][mech.k_bar]
            survivors[(agent, type_id)]["outcome"] = (
                list(cell) if pinned else list(model.feasible_reports(agent, type_id))
            )

    outcome_ok = True
    if pinned:
        for profile in model.profiles():
            expected = model.scf[profile]
            pools = [survivors[(a, t)]["outcome"] for a, t in zip(model.agents, profile)]
            for combo in itertools.product(*pools):
                if model.scf[tuple(combo)] != expected:
                    outcome_ok = False
                    break
            if not outcome_ok:
                break
    else:
        outcome_ok = False

    bound = mech.transfer_bound()
    return RationalizabilityReport(
        stages=stages,
        survivors=survivors,
        outcome_ok=outcome_ok,
        transfer_bound=bound,
        transfer_bound_ok=bound <= mech.eps,
    )


# -- embedding ----------------------------------------------------------------


def embed_flat_scenario(scenario: Scenario) -> TypeSpaceModel:
    """Independent embedding: types are (state, support collection) pairs,
    beliefs concentrate on the own state with product evidence probabilities,
    and the choice function extends by consensus-else-first-report."""
    agents = scenario.agents
    types = {}
    evidence = {}
    for agent in agents:
        rows = []
        for state in scenario.states:
            for coll in scenario.support(agent, state):
                rows.append((state, coll))
                evidence[(agent, (state, coll))] = coll
        types[agent] = tuple(rows)

    # a type's belief depends on its state alone: each entry is one integer
    # product over the opponents' evidence probabilities
    beliefs = {}
    for agent in agents:
        others = tuple(a for a in agents if a != agent)
        by_state = {}
        for state, coll in types[agent]:
            entries = by_state.get(state)
            if entries is None:
                entries = by_state[state] = {}
                option_lists = [
                    [((state, c), p.numerator, p.denominator) for c, p in scenario.dist(other, state).items()]
                    for other in others
                ]
                for combo in itertools.product(*option_lists):
                    numerator = denominator = 1
                    for _, n, d in combo:
                        numerator *= n
                        denominator *= d
                    if numerator > 0:
                        entries[tuple(type_id for type_id, _, _ in combo)] = Fraction(numerator, denominator)
            beliefs[(agent, (state, coll))] = entries

    model_profiles = [
        tuple(combo) for combo in itertools.product(*(types[a] for a in agents))
    ]
    chosen = {t: consensus_else_first(state for state, _ in t) for t in model_profiles}
    scf = {t: scenario.scf[chosen[t]] for t in model_profiles}
    utility_profiles = []
    for idx in range(len(scenario.utility_profiles)):
        per_agent = {}
        for agent in agents:
            utility = scenario.utility_profiles[idx][agent]
            per_agent[agent] = {
                (outcome, t): utility[(outcome, chosen[t])] for outcome in scenario.outcomes for t in model_profiles
            }
        utility_profiles.append(per_agent)
    return TypeSpaceModel(
        agents=agents,
        types=types,
        evidence=evidence,
        beliefs=beliefs,
        outcomes=scenario.outcomes,
        scf=scf,
        utility_profiles=tuple(utility_profiles),
        articles=scenario.articles,
    )
