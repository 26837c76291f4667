"""Reference for the differential tests: the game layer before the kernel.

These are `evimech.mechanism`'s outcome and transfer rules and
`evimech.game`'s payoff, best-response, search and audit code as they stood
before both moved onto the compiled integer kernel, copied verbatim apart
from three bindings: `BayesianGame.evaluate` calls this module's `outcome`
and `transfers` (and `direct_outcome` for a `DirectMechanism`, whose own
`outcome` method was folded into the kernel), and helpers that never touched
payoffs (subset enumeration, plan composition, the report classes) are
imported from `evimech`; `_fixed_profile` and `_profile_key` (profile keys),
which `evimech` no longer has, are copied here. Messages carry one claim
slot, `Message.claim`, read where the old code read `state_claim` or
`challenge`, and the audits build lie-consistent messages with
`Mechanism.truthful_message` at the lie state. Bets are read from the one
table `Mechanism.bets`, keyed by (claim, consensus state), with each bet's
subject its own `agent`, where the old code read the per-variant bet,
challenge and agent tables.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from evimech import mechanism as mech_mod
from evimech.deception import TransportPlan
from evimech.game import (
    AuditResult,
    AuditSuite,
    DirectMechanism,
    DirectMessage,
    EquilibriumReport,
    _refutable_pairs,
    canonical_perfect_plans,
    compose_with_truthful,
)
from evimech.mechanism import TRANSFER_KEYS, Challenge, Mechanism, Message
from evimech.mechanism import subsets as _subsets
from evimech.scenario import Distribution, Scenario, classify_lie, collection_key, refutes



def _profile_key(game, profile):
    rows = []
    for agent in game.scenario.agents:
        for coll in game.types[agent]:
            mixture = profile[agent][coll]
            rows.append(
                (agent, collection_key(coll), tuple(sorted(((repr(m), w) for m, w in mixture.items()))))
            )
    return tuple(rows)

# -- mechanism rules ----------------------------------------------------------


def consistency(mech: Mechanism, transcript: dict) -> str | None:
    """Canonically-least state every distributional claim matches, if any."""
    scn = mech.scenario
    for state in scn.states:
        ok = True
        for agent in scn.agents:
            msg = transcript[agent]
            right = scn.right_neighbor(agent)
            if msg.p_own != scn.dist(agent, state) or msg.p_right != scn.dist(right, state):
                ok = False
                break
        if ok:
            return state
    return None


def right_claim_state(mech: Mechanism, transcript: dict) -> str | None:
    """State matched by the right-neighbor claims alone (drives the refutation fine)."""
    scn = mech.scenario
    for state in scn.states:
        if all(
            transcript[agent].p_right == scn.dist(scn.right_neighbor(agent), state)
            for agent in scn.agents
        ):
            return state
    return None


def outcome(mech: Mechanism, transcript: dict) -> str:
    state = consistency(mech, transcript)
    if state is None:
        return mech.arbitrary_outcome
    return mech.scenario.scf[state]


# -- transfers ----------------------------------------------------------------


def _quadratic_score(report: Distribution, evidence) -> Fraction:
    self_dot = sum((p * p for _, p in report.items()), Fraction(0))
    return 2 * report.prob(evidence) - self_dot


def _active_bet_payment(mech: Mechanism, transcript: dict, agent, consensus):
    """(active, payment) for the agent's whistle slot given the consensus.

    A bet whose subject is the bettor is void (the bettor could steer its
    value through its own presentation), and never feeds the evidence trigger.
    """
    msg = transcript[agent]
    if consensus is None:
        return False, Fraction(0)
    if mech.variant == "bne":
        claim = msg.claim
        if claim is None or claim == consensus:
            return False, Fraction(0)
        bet = mech.bets.get((claim, consensus))
        if bet is None:
            return False, Fraction(0)
        target = bet.agent
        if target == agent:
            return False, Fraction(0)
        return True, mech.scaling.eps * bet.value(transcript[target].evidence)
    challenge = msg.claim
    if challenge is None or challenge.target_state != consensus:
        return False, Fraction(0)
    if challenge.source_state == consensus:
        return False, Fraction(0)
    two_point = mech.bets.get((challenge, challenge.target_state))
    if two_point is None:
        return False, Fraction(0)
    target = two_point.agent
    if target == agent:
        return False, Fraction(0)
    return True, mech.scaling.eps * two_point.value(transcript[target].evidence)


def transfers(mech: Mechanism, transcript: dict) -> dict:
    """Itemized exact transfers per agent for one message profile."""
    scn = mech.scenario
    scaling = mech.scaling
    consensus = consistency(mech, transcript)

    bet_state = {}
    for agent in scn.agents:
        bet_state[agent] = _active_bet_payment(mech, transcript, agent, consensus)

    rc_state = right_claim_state(mech, transcript)
    refuters = []
    if rc_state is not None:
        refuters = [
            agent
            for agent in scn.agents
            if refutes(scn, transcript[agent].evidence, rc_state, agent)
        ]

    result = {}
    for agent in scn.agents:
        msg = transcript[agent]
        right = scn.right_neighbor(agent)
        left = scn.left_neighbor(agent)
        items = dict.fromkeys(TRANSFER_KEYS, Fraction(0))

        own_refutes_consensus = consensus is not None and refutes(scn, msg.evidence, consensus, agent)
        others_bet = any(bet_state[a][0] for a in scn.agents if a != agent)
        if consensus is None or others_bet or own_refutes_consensus:
            items["evidence_incentive"] = scaling.eps * len(msg.evidence)

        neighbor_evidence = transcript[right].evidence
        items["scoring"] = scaling.tau_low * (
            _quadratic_score(msg.p_right, neighbor_evidence)
            - _quadratic_score(transcript[right].p_own, neighbor_evidence)
        )

        if msg.p_own != transcript[left].p_right:
            items["crosscheck"] = -scaling.tau_low

        if rc_state is not None and any(r != agent for r in refuters):
            items["refutation_fine"] = -scaling.tau_high

        active, payment = bet_state[agent]
        if active:
            items["bet"] = payment

        items["total"] = sum((items[k] for k in TRANSFER_KEYS), Fraction(0))
        result[agent] = items
    return result


# -- game layer ---------------------------------------------------------------


def direct_outcome(mech: DirectMechanism, transcript: dict) -> str:
    reports = [transcript[a].state_report for a in mech.scenario.agents]
    state = reports[0]
    if all(r == state for r in reports):
        return mech.scenario.scf[state]
    return mech.scenario.scf[reports[0]]


def _zero_transfers(scenario):
    items = dict.fromkeys(TRANSFER_KEYS, Fraction(0))
    items["total"] = Fraction(0)
    return {agent: dict(items) for agent in scenario.agents}


@dataclass
class BayesianGame:
    scenario: Scenario
    mech: object
    state: str
    profile_idx: int
    types: dict = field(init=False)
    actions: dict = field(init=False)
    _payoffs: dict = field(init=False, default_factory=dict)
    _transfers: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        scn = self.scenario
        self.types = {agent: scn.support(agent, self.state) for agent in scn.agents}
        self.actions = {}
        for agent in scn.agents:
            for coll in self.types[agent]:
                self.actions[(agent, coll)] = tuple(self._enumerate_actions(agent, coll))

    def _enumerate_actions(self, agent, endowment):
        scn = self.scenario
        if isinstance(self.mech, DirectMechanism):
            for state in scn.states:
                for sub in _subsets(endowment):
                    yield DirectMessage(state, sub)
            return
        right = scn.right_neighbor(agent)
        claims: list
        if self.mech.variant == "bne":
            claims = list(scn.states)
        else:
            claims = [None] + sorted((c for c, _ in self.mech.bets), key=mech_mod.challenge_key)
        for p_own in scn.alphabet(agent):
            for p_right in scn.alphabet(right):
                for sub in _subsets(endowment):
                    for claim in claims:
                        yield Message(p_own, p_right, sub, claim=claim)

    def type_prob(self, agent, coll) -> Fraction:
        return self.scenario.dist(agent, self.state).prob(coll)

    def transcript_key(self, transcript):
        return tuple(transcript[a] for a in self.scenario.agents)

    def evaluate(self, transcript: dict):
        """(outcome, itemized transfers) for a message profile, cached."""
        key = self.transcript_key(transcript)
        if key not in self._payoffs:
            if isinstance(self.mech, DirectMechanism):
                out = direct_outcome(self.mech, transcript)
                tr = _zero_transfers(self.scenario)
            else:
                out = outcome(self.mech, transcript)
                tr = transfers(self.mech, transcript)
            self._payoffs[key] = (out, tr)
        return self._payoffs[key]

    def payoff(self, agent, transcript: dict) -> Fraction:
        out, tr = self.evaluate(transcript)
        base = self.scenario.utility(self.profile_idx, agent, out, self.state)
        return base + tr[agent]["total"]


def truthful_profile(game: BayesianGame) -> dict:
    profile = {}
    for agent in game.scenario.agents:
        per_type = {}
        for coll in game.types[agent]:
            msg = game.mech.truthful_message(agent, game.state, coll)
            per_type[coll] = {msg: Fraction(1)}
        profile[agent] = per_type
    return profile


def _opponent_realizations(game: BayesianGame, agent, profile):
    """Yield (prob, partial transcript) over opponents' types and mixed messages."""
    others = [a for a in game.scenario.agents if a != agent]
    type_lists = [
        [(coll, game.type_prob(other, coll)) for coll in game.types[other]]
        for other in others
    ]
    for type_combo in itertools.product(*type_lists):
        type_prob = Fraction(1)
        for _, p in type_combo:
            type_prob *= p
        message_lists = []
        for other, (coll, _) in zip(others, type_combo):
            message_lists.append(list(profile[other][coll].items()))
        for message_combo in itertools.product(*message_lists):
            weight = type_prob
            transcript = {}
            for other, (msg, w) in zip(others, message_combo):
                weight *= w
                transcript[other] = msg
            if weight != 0:
                yield weight, transcript


def expected_utility(game: BayesianGame, agent, type_coll, message, profile) -> Fraction:
    """Exact interim expected utility of a pure message for one type."""
    total = Fraction(0)
    for weight, partial in _opponent_realizations(game, agent, profile):
        transcript = dict(partial)
        transcript[agent] = message
        total += weight * game.payoff(agent, transcript)
    return total


@dataclass
class EquilibriumReport:
    is_bne: bool
    slacks: dict
    witness: tuple | None
    on_path_outcomes: dict
    transfer_extremes: dict
    transfers_zero: bool
    stamp: str = "EXHAUSTIVE"


def verify_bne(game: BayesianGame, profile: dict) -> EquilibriumReport:
    """Exhaustive exact best-response check for every positive-probability type."""
    witness = None
    slacks = {}
    for agent in game.scenario.agents:
        for coll in game.types[agent]:
            mixture = profile[agent][coll]
            values = {}
            for action in game.actions[(agent, coll)]:
                values[action] = expected_utility(game, agent, coll, action, profile)
            for msg in mixture:
                if msg not in values:
                    values[msg] = expected_utility(game, agent, coll, msg, profile)
            best = max(values.values())
            current = sum((w * values[m] for m, w in mixture.items()), Fraction(0))
            slacks[(agent, coll)] = best - current
            if best > current and witness is None:
                best_msg = min(
                    (m for m, v in values.items() if v == best),
                    key=lambda m: repr(m),
                )
                witness = (agent, coll, best_msg, best - current)

    outcome_dist = {}
    extremes = {
        agent: dict.fromkeys(TRANSFER_KEYS, Fraction(0)) for agent in game.scenario.agents
    }
    agents = game.scenario.agents
    type_lists = [
        [(coll, game.type_prob(a, coll)) for coll in game.types[a]] for a in agents
    ]
    for type_combo in itertools.product(*type_lists):
        joint = Fraction(1)
        for _, p in type_combo:
            joint *= p
        message_lists = [list(profile[a][coll].items()) for a, (coll, _) in zip(agents, type_combo)]
        for message_combo in itertools.product(*message_lists):
            weight = joint
            transcript = {}
            for a, (msg, w) in zip(agents, message_combo):
                weight *= w
                transcript[a] = msg
            if weight == 0:
                continue
            out, tr = game.evaluate(transcript)
            outcome_dist[out] = outcome_dist.get(out, Fraction(0)) + weight
            for a in agents:
                for comp in TRANSFER_KEYS:
                    extremes[a][comp] = max(extremes[a][comp], abs(tr[a][comp]))
    transfers_zero = all(
        value == 0 for per_agent in extremes.values() for value in per_agent.values()
    )
    return EquilibriumReport(
        is_bne=witness is None,
        slacks=slacks,
        witness=witness,
        on_path_outcomes=outcome_dist,
        transfer_extremes=extremes,
        transfers_zero=transfers_zero,
    )


@dataclass
class SearchBudget:
    pure_cap: int = 4096
    plan_cap: int = 256
    seeds: tuple = (0, 1, 2)
    max_rounds: int = 40


def search_equilibria(game: BayesianGame, budget: SearchBudget = SearchBudget(), seed=0):
    """Three-strategy equilibrium search; every hit is re-verified exactly.

    (a) exhaustive pure-profile enumeration under `pure_cap`;
    (b) truthful play composed with deception profiles (canonical perfect plans
        per target plus pure deception profiles under `plan_cap`);
    (c) best-response dynamics from seeded random starts (heuristic).
    """
    scenario = game.scenario
    found = {}
    flags = {}

    def consider(profile, stamp):
        key = _profile_key(game, profile)
        if key in found:
            return
        report = verify_bne(game, profile)
        if report.is_bne:
            report.stamp = stamp
            found[key] = (profile, report)

    # (a) exhaustive pure enumeration
    slots = [(agent, coll) for agent in scenario.agents for coll in game.types[agent]]
    total = 1
    for slot in slots:
        total *= len(game.actions[slot])
    if total <= budget.pure_cap:
        flags["pure_enumeration"] = "EXHAUSTIVE"
        for combo in itertools.product(*(game.actions[s] for s in slots)):
            profile = {a: {} for a in scenario.agents}
            for (agent, coll), msg in zip(slots, combo):
                profile[agent][coll] = {msg: Fraction(1)}
            consider(profile, "EXHAUSTIVE")
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
        for combo in itertools.product(*(rows for _, rows in pure_assignment_lists)):
            for target in scenario.states:
                if target == game.state:
                    continue
                plans = {}
                for (agent, _), rows in zip(pure_assignment_lists, combo):
                    dist = scenario.dist(agent, game.state)
                    flows = tuple((src, dst, dist.prob(src)) for src, dst in rows)
                    plans[agent] = TransportPlan(agent, game.state, target, flows)
                consider(compose_with_truthful(game, plans), "CLOSURE_FAMILY")
    else:
        flags["closure_family"] = f"BUDGET_EXCEEDED({pure_total})"

    # (c) best-response dynamics, heuristic
    flags["dynamics"] = "HEURISTIC"
    rng = random.Random(seed)
    for trial in budget.seeds:
        rng.seed(seed * 1000003 + trial)
        profile = {a: {} for a in scenario.agents}
        for agent, coll in slots:
            profile[agent][coll] = {rng.choice(game.actions[(agent, coll)]): Fraction(1)}
        for _ in range(budget.max_rounds):
            changed = False
            for agent, coll in slots:
                best = None
                best_value = None
                for action in game.actions[(agent, coll)]:
                    value = expected_utility(game, agent, coll, action, profile)
                    if best_value is None or value > best_value:
                        best, best_value = action, value
                current = next(iter(profile[agent][coll]))
                if best != current and best_value > expected_utility(
                    game, agent, coll, current, profile
                ):
                    profile[agent][coll] = {best: Fraction(1)}
                    changed = True
            if not changed:
                break
        consider(profile, "HEURISTIC")

    return [
        {"profile": profile, "report": report, "stamp": report.stamp}
        for profile, report in found.values()
    ], flags


def _fixed_profile(game, messages_by_agent):
    """Profile where each type of each agent plays a fixed evidence-dependent message."""
    profile = {}
    for agent in game.scenario.agents:
        per_type = {}
        for coll in game.types[agent]:
            per_type[coll] = {messages_by_agent[agent](coll): Fraction(1)}
        profile[agent] = per_type
    return profile


def _audit_scoring_dominance(scenario, mech, profile_idx):
    """Maximal evidence by the subject forces truthful predictions (score gap)."""
    details = {"checked": 0, "failures": []}
    slacks = mech.scaling.slacks()
    ok = slacks.get("score_gap", Fraction(1)) > 0
    for state in scenario.states:
        game = BayesianGame(scenario, mech, state, profile_idx)
        truthful = truthful_profile(game)
        for predictor in scenario.agents:
            subject = scenario.right_neighbor(predictor)
            for wrong in scenario.alphabet(subject):
                if wrong == scenario.dist(subject, state):
                    continue
                def deviant(coll, wrong=wrong, predictor=predictor, state=state):
                    msg = game.mech.truthful_message(predictor, state, coll)
                    return Message(msg.p_own, wrong, msg.evidence, msg.claim)
                for coll in game.types[predictor]:
                    truth_msg = game.mech.truthful_message(predictor, state, coll)
                    gain = expected_utility(game, predictor, coll, truth_msg, truthful) - expected_utility(
                        game, predictor, coll, deviant(coll), truthful
                    )
                    details["checked"] += 1
                    if gain <= 0:
                        ok = False
                        details["failures"].append((state, predictor, repr(wrong), gain))
    return AuditResult("scoring_dominance", ok, details["checked"] == 0, details)


def _audit_crosscheck(scenario, mech, profile_idx):
    """A self-report contradicting the left neighbor is corrected (crosscheck fine)."""
    details = {"checked": 0, "failures": []}
    slacks = mech.scaling.slacks()
    ok = slacks["eps_dominance"] > 0
    for state in scenario.states:
        game = BayesianGame(scenario, mech, state, profile_idx)
        for agent in scenario.agents:
            alphabet = [d for d in scenario.alphabet(agent) if d != scenario.dist(agent, state)]
            if not alphabet:
                continue
            wrong = alphabet[0]
            messages = {}
            for other in scenario.agents:
                def plain(coll, other=other, state=state):
                    return game.mech.truthful_message(other, state, coll)
                messages[other] = plain
            def self_liar(coll, agent=agent, state=state, wrong=wrong):
                msg = game.mech.truthful_message(agent, state, coll)
                return Message(wrong, msg.p_right, msg.evidence, msg.claim)
            messages[agent] = self_liar
            profile = _fixed_profile(game, messages)
            for coll in game.types[agent]:
                truth_msg = game.mech.truthful_message(agent, state, coll)
                gain = expected_utility(game, agent, coll, truth_msg, profile) - expected_utility(
                    game, agent, coll, self_liar(coll), profile
                )
                details["checked"] += 1
                if gain <= 0:
                    ok = False
                    details["failures"].append((state, agent, gain))
    return AuditResult("crosscheck_consistency", ok, details["checked"] == 0, details)


def _refutable_pairs(scenario):
    for state in scenario.states:
        for lie in scenario.states:
            if lie == state:
                continue
            cls = classify_lie(scenario, state, lie)
            if cls.verdict == "refutable":
                yield state, lie, cls


def _audit_refutation_escape(scenario, mech, profile_idx):
    """Consensus on a refutable lie is broken by truthfully reporting the refuter."""
    details = {"checked": 0, "failures": [], "refutation_slack": None}
    slack = mech.scaling.slacks().get("refutation")
    details["refutation_slack"] = slack
    ok = True
    if mech.scaling.rho_min is not None and (slack is None or slack < 0):
        ok = False
    for state, lie, cls in _refutable_pairs(scenario):
        refuter = cls.refuters[0]
        deviator = scenario.left_neighbor(refuter)
        if deviator == refuter:
            continue
        game = BayesianGame(scenario, mech, state, profile_idx)
        messages = {
            other: (lambda coll, other=other: mech.truthful_message(other, lie, coll))
            for other in scenario.agents
        }
        profile = _fixed_profile(game, messages)
        for coll in game.types[deviator]:
            base = mech.truthful_message(deviator, lie, coll)
            honest = Message(
                base.p_own, scenario.dist(refuter, state), base.evidence, base.claim
            )
            gain = expected_utility(game, deviator, coll, honest, profile) - expected_utility(
                game, deviator, coll, base, profile
            )
            details["checked"] += 1
            if gain <= 0:
                ok = False
                details["failures"].append((state, lie, deviator, gain))
    return AuditResult("refutation_escape", ok, details["checked"] == 0, details)


def _audit_whistle_profit(scenario, mech, profile_idx):
    """Consensus on a nonrefutable lie with a different outcome invites a bet."""
    details = {"checked": 0, "failures": []}
    ok = True
    for state in scenario.states:
        for lie in scenario.states:
            if lie == state or scenario.scf[lie] == scenario.scf[state]:
                continue
            if classify_lie(scenario, state, lie).verdict != "nonrefutable":
                continue
            game = BayesianGame(scenario, mech, state, profile_idx)
            if mech.variant == "bne":
                pair = (state, lie)
                if pair not in mech.bets:
                    continue
                challenger_target = mech.bets[pair].agent
            else:
                identity = Challenge(
                    target_state=lie,
                    source_state=state,
                    assignments=tuple(
                        (agent, tuple((src, src) for src in scenario.support(agent, state)))
                        for agent in scenario.agents
                    ),
                )
                if (identity, lie) not in mech.bets:
                    continue
                challenger_target = mech.bets[(identity, lie)].agent
            messages = {
                other: (lambda coll, other=other: mech.truthful_message(other, lie, coll))
                for other in scenario.agents
            }
            profile = _fixed_profile(game, messages)
            deviator = next(a for a in scenario.agents if a != challenger_target)
            for coll in game.types[deviator]:
                base = mech.truthful_message(deviator, lie, coll)
                if mech.variant == "bne":
                    whistle = Message(base.p_own, base.p_right, base.evidence, claim=state)
                else:
                    whistle = Message(base.p_own, base.p_right, base.evidence, claim=identity)
                gain = expected_utility(game, deviator, coll, whistle, profile) - expected_utility(
                    game, deviator, coll, base, profile
                )
                details["checked"] += 1
                if gain <= 0:
                    ok = False
                    details["failures"].append((state, lie, deviator, gain))
    return AuditResult("whistle_profit", ok, details["checked"] == 0, details)


def _audit_zero_on_truth(scenario, mech, profile_idx):
    """Truthful maximal-evidence play: equilibrium, correct outcome, no transfers,
    and every bet against the truth strictly loses."""
    details = {"states": {}, "losing_bets_checked": 0, "failures": []}
    ok = True
    for state in scenario.states:
        game = BayesianGame(scenario, mech, state, profile_idx)
        profile = truthful_profile(game)
        report = verify_bne(game, profile)
        good = (
            report.is_bne
            and report.transfers_zero
            and report.on_path_outcomes == {scenario.scf[state]: Fraction(1)}
        )
        details["states"][state] = {
            "is_bne": report.is_bne,
            "transfers_zero": report.transfers_zero,
            "outcomes": report.on_path_outcomes,
        }
        if not good:
            ok = False
            details["failures"].append((state, "truthful profile not clean"))
        if mech.variant == "bne":
            for claim in scenario.states:
                pair = (claim, state)
                bet = mech.bets.get(pair)
                if bet is None:
                    continue
                target = bet.agent
                expectation = scenario.dist(target, state).dot(bet.weight_map())
                details["losing_bets_checked"] += 1
                if expectation >= 0:
                    ok = False
                    details["failures"].append((state, claim, "bet against truth does not lose"))
    return AuditResult("zero_on_truth", ok, False, details)


def claim_audits(scenario: Scenario, mech: Mechanism, profile_indices=None) -> AuditSuite:
    """Replay the implementation proof's deviation arguments on a built mechanism."""
    if profile_indices is None:
        profile_indices = list(range(len(scenario.utility_profiles)))
    results = []
    for idx in profile_indices:
        results.append(_audit_scoring_dominance(scenario, mech, idx))
        results.append(_audit_crosscheck(scenario, mech, idx))
        results.append(_audit_refutation_escape(scenario, mech, idx))
        results.append(_audit_whistle_profit(scenario, mech, idx))
        results.append(_audit_zero_on_truth(scenario, mech, idx))
    return AuditSuite(results, list(profile_indices))
