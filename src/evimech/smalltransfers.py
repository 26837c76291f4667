"""Multi-round small-transfer mechanism for general type spaces: evidence
reward, per-level scoring rules, first-deviant and mismatch fines, and the
component-factored rationalizability verification."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .hierarchy import HierarchyTable, TypeSpaceModel, check_evidence_ic, check_higher_order_measurability
from .hierarchy import evidence_token
from .rationals import quadratic_scores, squared_distance

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
    hierarchy: HierarchyTable  # the HOM table, at least k_bar + 1 levels deep
    level_bounds: list  # per level 1..k_bar+1, max |score| over achievable reports
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
                    (evidence_token(transcript[o].evidence),)
                    + tuple(
                        table.level(o, transcript[o].belief_reports[j - 1], j)
                        for j in range(1, k)
                    )
                    for o in others
                )
                items["scoring"] += self.beta * quadratic_scores(dist, [point])[0]
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
        return evidence_max + scoring_max + self.fines()

    def fines(self) -> Fraction:
        """The most an agent can be fined: the first-deviant fine plus a
        mismatch fine in each of the J rounds."""
        return self.first_deviant_fine + self.rounds * self.mismatch_fine

    def chain_slack(self) -> dict:
        """The elimination chain's margins, each positive when its link holds:
        the first-deviant fine over one round's outcome stake 1/J, and the
        least belief-pinning gain `min_beta_bar` (0 when no type has one) over
        the fines."""
        return {
            "fine_over_stake": self.first_deviant_fine - Fraction(1, self.rounds),
            "budget_over_fines": (self.min_beta_bar or Fraction(0)) - self.fines(),
        }


def _level_score_bound(table: HierarchyTable, model: TypeSpaceModel, k) -> Fraction:
    """Max |2 r(z) - r.r| over achievable level-k reports r and any point z,
    found over L^2 from each distinct level-k push-forward's numerators over L."""
    L = model.tables().L
    worst = 0
    for token in {table.level(a, t, k) for a in model.agents for t in model.types[a]}:
        dist = table.numerators[token]
        # the extremes: at the heaviest point, and -r.r (r's squared distance from 0) off the support
        (top,) = quadratic_scores(dist, [max(dist, key=dist.get)], L)
        worst = max(worst, abs(top), squared_distance(dist, {}))
    return Fraction(worst, L * L)


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

    # a passing verdict's k_bar is at least 1 and, since level-k classes stop
    # refining one level below the HOM table's depth, k_bar + 1 <= depth
    k_bar = hom.k_bar
    table = hom.table
    level_bounds = [_level_score_bound(table, model, k) for k in range(1, k_bar + 2)]
    evidence_max = model.max_evidence_size()
    beta = (eps / 2) / (evidence_max + sum(level_bounds, Fraction(0)))

    L = model.tables().L
    top = k_bar + 1
    beta_bar = {}
    for agent in model.agents:
        candidates = []
        if any(len(model.evidence[(agent, t)]) > 0 for t in model.types[agent]):
            candidates.append(Fraction(1))
        distances = []  # over L^2
        for type_id in model.types[agent]:
            own = table.level_numerators(agent, type_id, top)
            own_sig = table.level(agent, type_id, top)
            for report in model.feasible_reports(agent, type_id):
                if report == type_id or table.level(agent, report, top) == own_sig:
                    continue
                distances.append(squared_distance(own, table.level_numerators(agent, report, top)))
        if distances:
            candidates.append(Fraction(min(distances), L * L))
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
    stamp: str = "PROOF_REPLAY"  # the proof's inequalities on closed-form bounds

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
    tables = model.tables()
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

    fines_total = mech.fines()
    chain = mech.chain_slack()
    belief_ok = True
    belief_details = {"eliminations": 0, "failures": []}
    L2 = tables.L**2
    for k in range(1, mech.k_bar + 2):
        final_slot = k == mech.k_bar + 1
        for agent in model.agents:
            for type_id in model.types[agent]:
                own_sig = table.level(agent, type_id, k)
                own_dist = table.level_numerators(agent, type_id, k)
                keep = []
                for report in model.feasible_reports(agent, type_id):
                    if table.level(agent, report, k) == own_sig:
                        keep.append(report)
                        continue
                    distance = squared_distance(own_dist, table.level_numerators(agent, report, k))
                    loss = mech.beta * Fraction(distance, L2)
                    belief_details["eliminations"] += 1
                    required = fines_total if final_slot else Fraction(0)
                    if loss <= required:
                        belief_ok = False
                        belief_details["failures"].append((agent, type_id, report, k, loss))
                survivors[(agent, type_id)]["belief"].append(keep)
    if mech.min_beta_bar is not None and chain["budget_over_fines"] <= 0:
        belief_ok = False
        belief_details["failures"].append(("chain", "min_beta_bar", mech.min_beta_bar, fines_total))
    stages.append(StageReport("belief_pinning", belief_ok, belief_details))

    outcome_stage_ok = True
    outcome_details = {"chain": {}, "failures": [], "checked": 0}
    outcome_details["chain"]["fine_exceeds_stake"] = chain["fine_over_stake"] > 0
    if not outcome_details["chain"]["fine_exceeds_stake"]:
        outcome_stage_ok = False
        outcome_details["failures"].append(("chain", "first_deviant_fine <= 1/J"))
    fine = mech.mismatch_fine
    for idx in range(len(model.utility_profiles)):
        for agent in model.agents:
            span = model.utility_span(idx, agent)
            stake = span / mech.rounds
            if mech.first_deviant_fine + mech.mismatch_fine <= stake:
                outcome_stage_ok = False
                outcome_details["failures"].append((idx, agent, "fines below outcome stake", stake))
            for type_id in model.types[agent]:
                denominator, values = tables.interim_values(idx, agent, type_id)
                # gain / J >= mismatch fine, with the gain over `denominator`
                threshold = fine.numerator * denominator * mech.rounds
                cell = survivors[(agent, type_id)]["belief"][mech.k_bar]
                for anchor in cell:
                    for lie in values:
                        if lie == anchor:
                            continue
                        outcome_details["checked"] += 1
                        # others truthful in the round: outcome gain bounded by
                        # the EIC slack of the lie, fine strictly negative
                        if (values[lie] - values[anchor]) * fine.denominator >= threshold:
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
