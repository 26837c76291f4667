"""Implementing mechanisms: message spaces, outcome rule, the five transfer
components, scaling parameters, and the pure-strategy identifier variant."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType

from .conditions import Verdict, check_npd, check_nppd, check_stochastic_measurability
from .deception import (
    PurePlan,
    induced_distribution,
    perfect_deception,
    synthesize_gamma_delta,
    witness_bet,
)
from .rationals import common_denominator, numerators, quadratic_scores, squared_distance
from .scenario import Distribution, Scenario, ScenarioError, collection_key, subsets

TRANSFER_KEYS = ("evidence_incentive", "scoring", "crosscheck", "refutation_fine", "bet")
Z_CAP = 10**6  # default cap on the pure variant's deception profile count z


class NpdViolation(ValueError):
    def __init__(self, verdict: Verdict):
        super().__init__("scenario admits a perfect deception across an outcome boundary")
        self.verdict = verdict


class NppdViolation(ValueError):
    def __init__(self, verdict: Verdict):
        super().__init__("scenario admits a pure-perfect deception across an outcome boundary")
        self.verdict = verdict


class ZOverflow(RuntimeError):
    pass


class DegenerateGap(ValueError):
    """Identical distribution profiles with distinct outcomes (SM failure)."""


class SlackViolation(ValueError):
    """Scaling parameters under which a proof inequality fails: `slacks` maps
    each failing slack's name to its value."""

    def __init__(self, slacks: dict):
        failing = ", ".join(f"{name} = {value}" for name, value in slacks.items())
        super().__init__(f"scaling slacks fail their tests: {failing}")
        self.slacks = slacks


class MessageOutsideSpace(ScenarioError):
    """A message outside a mechanism's finite message space: a distribution
    outside the alphabet, a state not declared, or evidence the agent cannot
    present."""


def outside_space(scenario: Scenario, agent, msg) -> MessageOutsideSpace:
    """The error for a message of `agent` outside its message space, naming
    any undeclared article ids its evidence holds."""
    unknown = sorted(frozenset(msg.evidence) - scenario.article_set())
    detail = f": unknown article ids {unknown}" if unknown else ""
    return MessageOutsideSpace(f"{msg!r} is outside the message space of agent {agent!r}{detail}")


@dataclass(frozen=True)
class Message:
    """One agent's report: its own and its right neighbour's evidence
    distribution, the evidence it presents, and the whistle slot `claim`,
    which the mechanism's variant reads (see `Mechanism.claims`)."""

    p_own: Distribution
    p_right: Distribution
    evidence: frozenset
    claim: object = None


@dataclass(frozen=True)
class Challenge:
    """Pure-variant whistle: names the consensus it contests, the claimed true
    state, and the pure deception profile allegedly being played there."""

    target_state: str
    source_state: str
    assignments: tuple  # ((agent, ((src, dst), ...)), ...) in agent order


def challenge_key(challenge: "Challenge") -> tuple:
    """Total-order sort key (frozensets themselves only partially order)."""
    return (
        challenge.target_state,
        challenge.source_state,
        tuple(
            (agent, tuple((collection_key(src), collection_key(dst)) for src, dst in rows))
            for agent, rows in challenge.assignments
        ),
    )


@dataclass(frozen=True)
class ScalingParams:
    eps: Fraction
    tau_low: Fraction
    tau_high: Fraction
    tau2_max: Fraction
    gap_min: Fraction | None
    rho_min: Fraction | None
    collection_max: int
    bet_max: Fraction
    span: Fraction

    def slacks(self) -> dict:
        out = {}
        if self.gap_min is not None:
            out["score_gap"] = self.tau_low * self.gap_min - 1
        if self.rho_min is not None:
            out["refutation"] = self.tau_high * self.rho_min - (1 + self.tau2_max)
        out["eps_dominance"] = (self.tau_low - 1) - self.eps * (self.collection_max + self.bet_max)
        out["one_dollar"] = 1 - self.span - self.eps * (self.collection_max + 2 * self.bet_max)
        return out

    def failed_slacks(self) -> dict:
        """The slacks that fail their test: the refutation slack may be zero
        (the fine exactly covers the loss), every other must be positive."""
        return {
            name: value
            for name, value in self.slacks().items()
            if value < 0 or (value == 0 and name != "refutation")
        }


@dataclass(frozen=True)
class Mechanism:
    variant: str  # "bne" | "pure"
    scenario: Scenario
    scaling: ScalingParams
    # (claim, consensus state) -> the bet the claim activates there, on the
    # evidence of its subject `bet.agent`: (truth, lie) -> Bet (bne) or
    # (challenge, challenge.target_state) -> TwoPointBet (pure)
    bets: dict  # stored read-only: the kernel compiled from it must not go stale
    z_count: int
    arbitrary_outcome: str

    def __post_init__(self):
        object.__setattr__(self, "bets", MappingProxyType(dict(self.bets)))

    def with_scaling(self, **overrides) -> "Mechanism":
        return replace(self, scaling=replace(self.scaling, **overrides))

    def kernel(self) -> "Kernel":
        """The integer kernel compiled from this mechanism, built on first use."""
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            kernel = self.__dict__["_kernel"] = Kernel(self)
        return kernel

    def claims(self) -> list:
        """The claim slot's menu: every state (bne, a claim of the true state),
        or no challenge and every valid challenge (pure)."""
        if self.variant == "bne":
            return list(self.scenario.states)
        return [None] + sorted((claim for claim, _ in self.bets), key=challenge_key)

    def truthful_message(self, agent, state, evidence) -> Message:
        """The type's truthful report at `state`: claims of both distributions,
        the whole endowment, and the state (bne) or no challenge (pure)."""
        scn = self.scenario
        claim = state if self.variant == "bne" else None
        return Message(scn.dist(agent, state), scn.dist(scn.right_neighbor(agent), state), frozenset(evidence), claim)

    def claim_bet(self, claim, state):
        """The bet `claim` activates when every distribution claim agrees on
        `state`, or None. The table holds no bet whose claimed and consensus
        states are equal."""
        return self.bets.get((claim, state))

    def whistle(self, state, lie):
        """(claim, bet subject) of the whistle that contests a consensus on
        `lie` at the true `state`: the claim of `state` (bne) or the identity
        challenge from `state` (pure); None when no bet backs it."""
        scn = self.scenario
        if self.variant == "bne":
            claim = state
        else:
            identity = tuple(
                (agent, tuple((src, src) for src in scn.support(agent, state))) for agent in scn.agents
            )
            claim = Challenge(target_state=lie, source_state=state, assignments=identity)
        bet = self.claim_bet(claim, lie)
        return None if bet is None else (claim, bet.agent)


# -- compiled kernel ----------------------------------------------------------


# Game code packs one message code per agent into an int, agent i's code at bit
# KEY_BITS * i: codes count the messages coded so far, held in memory, so they
# stay far below 2**KEY_BITS.
KEY_BITS = 32

_NO_BETS = {}  # the bets of a claim the bet table does not name


def _lowest_state(mask: int) -> int:
    """Index of the least state in a state bitmask; -1 for the empty mask."""
    return (mask & -mask).bit_length() - 1


class KernelBase:
    """Shared interface of compiled mechanisms.

    A subclass compiles its finite message space once, in `__init__`, where
    it calls `KernelBase.__init__` with its scenario and fixes the common
    denominator `D`, and
    provides three methods: `_menu(i, endowment)` enumerates agent i's
    messages for an endowment; `code(i, message)` looks up one of agent i's
    messages as a small int and raises `MessageOutsideSpace` for a message
    outside the space; `evaluate(codes)` takes one code per agent, in agent
    order, and returns the outcome and, per agent, the five `TRANSFER_KEYS`
    components as integer numerators over `D`.

    `evaluate` reads neither a state nor utilities, so its results are kept
    in one transcript table, `table`, shared by every game of the mechanism:
    `payoff(key)` evaluates each packed transcript once.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.agents = scenario.agents
        self._menus = {}
        self._outcome_codes = {outcome: k for k, outcome in enumerate(scenario.outcomes)}
        # packed transcript -> (the outcome's position in scenario.outcomes,
        # per-agent transfer totals, per-agent components), every transfer a
        # numerator over D
        self.table = {}

    def actions(self, i: int, endowment) -> tuple:
        """(messages, their codes, the codes as a set): agent i's action menu
        for an endowment, built on first use and shared by every game of the
        mechanism."""
        menu = self._menus.get((i, endowment))
        if menu is None:
            messages = tuple(self._menu(i, endowment))
            codes = tuple(self.code(i, m) for m in messages)
            menu = self._menus[(i, endowment)] = (messages, codes, frozenset(codes))
        return menu

    def encode(self, transcript: dict) -> tuple:
        return tuple(self.code(i, transcript[agent]) for i, agent in enumerate(self.agents))

    def key(self, transcript: dict) -> int:
        """The transcript's codes packed into one int, `KEY_BITS` per agent."""
        key = 0
        for i, code in enumerate(self.encode(transcript)):
            key |= code << (KEY_BITS * i)
        return key

    def payoff(self, key: int) -> tuple:
        """The `table` entry of a packed transcript, evaluated on first use."""
        entry = self.table.get(key)
        if entry is None:
            mask = (1 << KEY_BITS) - 1
            outcome, items = self.evaluate([key >> (KEY_BITS * i) & mask for i in range(len(self.agents))])
            entry = self.table[key] = (self._outcome_codes[outcome], tuple(map(sum, items)), tuple(items))
        return entry

    def itemized(self, transcript: dict):
        """(outcome, agent -> itemized exact transfers with their total)."""
        outcome_code, totals, items = self.payoff(self.key(transcript))
        table = {}
        for agent, total, row in zip(self.agents, totals, items):
            entry = {key: Fraction(value, self.D) for key, value in zip(TRANSFER_KEYS, row)}
            entry["total"] = Fraction(total, self.D)
            table[agent] = entry
        return self.scenario.outcomes[outcome_code], table


class Kernel(KernelBase):
    """A mechanism compiled into exact integer tables over its finite message
    space.

    A message's transfers depend only on its two claimed distributions, drawn
    from the alphabets, the evidence it presents, drawn from its agent's
    presentable collections, and its claim slot. `__init__` codes every
    alphabet member, takes each presentable collection's position and
    refuted-state mask from `Scenario.evidence`, and fills tables of integer
    numerators over one common denominator `D`, fixed there:

    - `score[j][p][e]`: tau_low times the quadratic score of agent j's
      alphabet member p at j's presentable collection e;
    - `incentive[j][e]`: eps times the size of e;
    - bet payments: eps times a bet's value at each presentable collection of
      its subject;
    - `tau_low` and `tau_high`.

    `code` only looks messages up. A distribution outside the alphabet or
    evidence the agent cannot present raises `MessageOutsideSpace`; a claim
    the bet table does not name activates no bet, so an invalid challenge acts
    like no challenge. Each coded message records the states its claims match
    as bitmasks, the states its evidence refutes and the bets its claim slot
    activates per consensus state. The kernel holds no reference to its
    mechanism.
    """

    def __init__(self, mech: "Mechanism"):
        scn = mech.scenario
        super().__init__(scn)
        index = {agent: i for i, agent in enumerate(scn.agents)}
        self.right = [index[scn.right_neighbor(agent)] for agent in scn.agents]
        self.left = [index[scn.left_neighbor(agent)] for agent in scn.agents]
        self.states = scn.states
        self.outcomes = [scn.scf[state] for state in scn.states]
        self.arbitrary_outcome = mech.arbitrary_outcome
        self._all_states = (1 << len(scn.states)) - 1
        self._claim_menu = mech.claims()
        self._message_codes = [{} for _ in scn.agents]
        self._records = [[] for _ in scn.agents]

        self._alphabets = alphabets = [scn.alphabet(agent) for agent in scn.agents]
        evidence, self._positions, self._refuted_states = ([scn.evidence(a)[c] for a in scn.agents] for c in range(3))
        self._dist_codes = [{dist: p for p, dist in enumerate(alphabet)} for alphabet in alphabets]
        self._state_masks = [[0] * len(alphabet) for alphabet in alphabets]
        for j, agent in enumerate(scn.agents):
            for k, state in enumerate(scn.states):
                self._state_masks[j][self._dist_codes[j][scn.dist(agent, state)]] |= 1 << k

        # exact values first, then every table as numerators over their lcm D
        eps, tau_low = mech.scaling.eps, mech.scaling.tau_low
        probs = [[dict(p.items()) for p in alphabet] for alphabet in alphabets]
        score = [[[tau_low * s for s in quadratic_scores(p, evidence[j])] for p in row] for j, row in enumerate(probs)]
        incentive = [[eps * len(e) for e in row] for row in evidence]
        # claim -> consensus state index -> (subject index, payments by the
        # subject's evidence code)
        claims = {}
        state_index = {state: k for k, state in enumerate(scn.states)}
        for (claim, state), bet in mech.bets.items():
            j = index[bet.agent]
            claims.setdefault(claim, {})[state_index[state]] = (j, [eps * bet.value(e) for e in evidence[j]])
        taus = [mech.scaling.tau_low, mech.scaling.tau_high]
        rows = [taus, *incentive, *(row for table in score for row in table)]
        rows.extend(payments for bets in claims.values() for _, payments in bets.values())
        self.D = D = common_denominator(value for row in rows for value in row)
        self.tau_low, self.tau_high = numerators(taus, D)
        self.incentive = [numerators(row, D) for row in incentive]
        self.score = [[numerators(row, D) for row in table] for table in score]
        self._claims = {c: {k: (j, numerators(row, D)) for k, (j, row) in bets.items()} for c, bets in claims.items()}

    def _menu(self, i: int, endowment):
        """Own claim x right-neighbour claim x presented subset x claim slot."""
        for p_own in self._alphabets[i]:
            for p_right in self._alphabets[self.right[i]]:
                for sub in subsets(endowment):
                    for claim in self._claim_menu:
                        yield Message(p_own, p_right, sub, claim)

    # -- coding -------------------------------------------------------------

    def code(self, i: int, msg: Message) -> int:
        """Agent i's code for `msg`; MessageOutsideSpace outside the message space."""
        codes = self._message_codes[i]
        code = codes.get(msg)
        if code is None:
            right = self.right[i]
            own = self._dist_codes[i].get(msg.p_own)
            claimed = self._dist_codes[right].get(msg.p_right)
            evidence = self._positions[i].get(msg.evidence)
            if None in (own, claimed, evidence):
                raise outside_space(self.scenario, self.agents[i], msg)
            right_mask = self._state_masks[right][claimed]
            record = (
                own,
                claimed,
                evidence,
                self._state_masks[i][own] & right_mask,
                right_mask,
                self._refuted_states[i][evidence],
                self._claims.get(msg.claim, _NO_BETS),
            )
            code = codes[msg] = len(self._records[i])
            self._records[i].append(record)
        return code

    # -- rules --------------------------------------------------------------

    def _claimed_states(self, records) -> tuple:
        """(consensus, right-claim state) indices, -1 where none: the least
        state every claim, or every right-neighbour claim, matches."""
        consensus = right_claims = self._all_states
        for record in records:
            consensus &= record[3]
            right_claims &= record[4]
        return _lowest_state(consensus), _lowest_state(right_claims)

    def consensus_state(self, transcript: dict) -> str | None:
        codes = self.encode(transcript)
        state, _ = self._claimed_states([self._records[i][code] for i, code in enumerate(codes)])
        return self.states[state] if state >= 0 else None

    def evaluate(self, codes):
        records = [self._records[i][code] for i, code in enumerate(codes)]
        consensus, right_claims = self._claimed_states(records)
        n = len(records)

        # A bet on the bettor's own evidence is void (the bettor could steer
        # its value through its own presentation) and never feeds the
        # evidence trigger.
        payment = [0] * n
        active = [False] * n
        if consensus >= 0:
            for i, record in enumerate(records):
                bet = record[6].get(consensus)
                if bet is not None and bet[0] != i:
                    subject, payments = bet
                    active[i] = True
                    payment[i] = payments[records[subject][2]]
        bettors = sum(active)

        refuting = [False] * n
        if right_claims >= 0:
            for i, record in enumerate(records):
                refuting[i] = bool(record[5] >> right_claims & 1)
        refuters = sum(refuting)

        items = []
        for i, (own, claimed, evidence, _, _, refuted, _) in enumerate(records):
            if consensus < 0 or bettors > active[i] or refuted >> consensus & 1:
                incentive = self.incentive[i][evidence]
            else:
                incentive = 0
            right = self.right[i]
            score = self.score[right]
            shown = records[right][2]
            scoring = score[claimed][shown] - score[records[right][0]][shown]
            crosscheck = -self.tau_low if own != records[self.left[i]][1] else 0
            fine = -self.tau_high if refuters > refuting[i] else 0
            items.append((incentive, scoring, crosscheck, fine, payment[i]))
        outcome = self.outcomes[consensus] if consensus >= 0 else self.arbitrary_outcome
        return outcome, items


# -- outcome rule and transfers -----------------------------------------------


def consistency(mech: Mechanism, transcript: dict) -> str | None:
    """Canonically-least state every distributional claim matches, if any."""
    return mech.kernel().consensus_state(transcript)


def outcome(mech: Mechanism, transcript: dict) -> str:
    return mech.kernel().itemized(transcript)[0]


def transfers(mech: Mechanism, transcript: dict) -> dict:
    """Itemized exact transfers per agent for one message profile."""
    return mech.kernel().itemized(transcript)[1]


# -- scaling ------------------------------------------------------------------


def _integer_alphabet(scenario: Scenario, agent) -> tuple:
    """The agent's alphabet over one common denominator L, the lcm of its
    probability denominators: (L, [n_p, ...]) with n_p = L p as a map from
    collection to int, in alphabet order."""
    rows = [dict(dist.items()) for dist in scenario.alphabet(agent)]
    scale = common_denominator(prob for row in rows for prob in row.values())
    return scale, [dict(zip(row, numerators(row.values(), scale))) for row in rows]


def _closest_pair(scale, rows) -> Fraction | None:
    """Least squared distance between two alphabet members; None for fewer than two."""
    closest = None
    for i, p in enumerate(rows):
        for q in rows[i + 1 :]:
            gap = squared_distance(p, q)
            if closest is None or gap < closest:
                closest = gap
    return None if closest is None else Fraction(closest, scale * scale)


def _widest_score_gap(scale, rows) -> Fraction:
    """max over presentable evidence e and alphabet pairs (p, q) of
    S(p, e) - S(q, e), for the quadratic score S(p, e) = 2 p(e) - |p|^2.

    For each e the pair maximum is max_p S(p, e) - min_q S(q, e), and
    S(p, e) L^2 = 2 L n_p(e) - |n_p|^2 is an integer.

    The maximum is reached on a support collection of the alphabet, so only
    those are scanned. Evidence outside every support scores -|p|^2, a gap of
    at most |q|^2 - |p|^2 for p of least and q of greatest |.|^2. Because
    distributions sum to 1, some e in supp(p) has p(e) >= q(e), and the gap
    S(p, e) - S(q, e) = 2 (p(e) - q(e)) + |q|^2 - |p|^2 there is at least as wide.
    """
    points = list({coll for row in rows for coll in row})
    table = [quadratic_scores(row, points, scale) for row in rows]
    widest = max((max(scores) - min(scores) for scores in zip(*table)), default=0)
    return Fraction(widest, scale * scale)


def compute_scaling(scenario: Scenario, bet_values) -> ScalingParams:
    """Canonical parameters satisfying the score-gap and refutation inequalities.

    bet_values: iterable of absolute bet entries that the whistle slot can pay.
    """
    sm = check_stochastic_measurability(scenario)
    if not sm.passed:
        raise DegenerateGap("identical distribution profiles with distinct outcomes")

    alphabets = {agent: _integer_alphabet(scenario, agent) for agent in scenario.agents}
    gap_min = None
    for agent in scenario.agents:
        gap = _closest_pair(*alphabets[agent])
        if gap is not None and (gap_min is None or gap < gap_min):
            gap_min = gap

    collection_max = scenario.max_collection_size()
    bet_max = Fraction(0)
    for value in bet_values:
        bet_max = max(bet_max, abs(Fraction(value)))
    span = scenario.utility_span()

    if gap_min is None:
        return ScalingParams(
            eps=Fraction(1, 100),
            tau_low=Fraction(2),
            tau_high=Fraction(1),
            tau2_max=Fraction(0),
            gap_min=None,
            rho_min=None,
            collection_max=collection_max,
            bet_max=bet_max,
            span=span,
        )

    tau_low = Fraction(max(2, math.floor(1 / gap_min) + 1))

    tau2_max = Fraction(0)
    for agent in scenario.agents:
        right = scenario.right_neighbor(agent)
        widest = _widest_score_gap(*alphabets[right])
        tau2_max = max(tau2_max, tau_low * widest)

    # the least probability of a collection refuting some lie: a refutable lie's witnesses
    witnesses = [found for lie in scenario.lie_table().values() if lie.witnesses for found in lie.witnesses.values()]
    rho_min = min((prob for found in witnesses for _, prob in found), default=None)

    tau_high = Fraction(1) if rho_min is None else Fraction(math.ceil((1 + tau2_max) / rho_min))

    denom = collection_max + bet_max
    candidates = []
    if denom > 0:
        candidates.append((tau_low - 1) / (2 * denom))
    if span < 1 and collection_max + 2 * bet_max > 0:
        candidates.append((1 - span) / (2 * (collection_max + 2 * bet_max)))
    eps = min(candidates) if candidates else Fraction(1, 100)

    return ScalingParams(
        eps=eps,
        tau_low=tau_low,
        tau_high=tau_high,
        tau2_max=tau2_max,
        gap_min=gap_min,
        rho_min=rho_min,
        collection_max=collection_max,
        bet_max=bet_max,
        span=span,
    )


# -- builders -----------------------------------------------------------------


def _synthesize_bet_table(scenario: Scenario):
    """(bets, bet values): the bne bet table and every weight its bets pay.

    Each (truth, lie) pair gets the witness bet of the first agent with no
    perfect deception from truth to lie, read off that transport's Hall
    witness; a pair every agent can deceive gets no bet."""
    bets = {}
    for truth, lie in itertools.permutations(scenario.states, 2):
        for agent in scenario.agents:
            result = perfect_deception(scenario, agent, truth, lie)
            if not result.exists:
                bets[(truth, lie)] = witness_bet(scenario, agent, truth, lie, result.witness)
                break
    return bets, [w for bet in bets.values() for _, w in bet.weights]


def build_bne_mechanism(scenario: Scenario) -> Mechanism:
    verdict = check_npd(scenario)
    if not verdict.passed:
        raise NpdViolation(verdict)
    return assemble_bne_mechanism(scenario)


def _checked_scaling(scenario: Scenario, bet_values) -> ScalingParams:
    """`compute_scaling`, refused with `SlackViolation` when a slack fails."""
    scaling = compute_scaling(scenario, bet_values)
    failed = scaling.failed_slacks()
    if failed:
        raise SlackViolation(failed)
    return scaling


def assemble_bne_mechanism(scenario: Scenario) -> Mechanism:
    """Mechanism assembly without the NPD gate (negative controls, audits);
    a failing scaling slack still raises `SlackViolation`."""
    bets, values = _synthesize_bet_table(scenario)
    return Mechanism(
        variant="bne",
        scenario=scenario,
        scaling=_checked_scaling(scenario, values),
        bets=bets,
        z_count=0,
        arbitrary_outcome=scenario.outcomes[0],
    )


def _assignments_for(scenario: Scenario, agent, state):
    """All pure single-state assignments: support collection -> a subset."""
    sources = scenario.support(agent, state)
    per_source = [[(src, sub) for sub in subsets(src)] for src in sources]
    return [tuple(choice) for choice in itertools.product(*per_source)]


def pure_profile_count(scenario: Scenario) -> int:
    """Number of pure deception profiles over positive-probability types."""
    count = 1
    for agent in scenario.agents:
        for state in scenario.states:
            for src in scenario.support(agent, state):
                count *= len(scenario.states) * (2 ** len(src))
    return count


def enumerate_challenges(scenario: Scenario):
    """(bets, bet values): every valid challenge's two-point bet, keyed by
    (challenge, its target state), and the gammas and deltas they pay."""
    bets = {}
    for source_state in scenario.states:
        profiles = [
            _assignments_for(scenario, agent, source_state) for agent in scenario.agents
        ]
        for combo in itertools.product(*profiles):
            for target_state in scenario.states:
                if target_state == source_state:
                    continue
                # the first agent whose plan misses its target marginal is the
                # subject of the challenge's bet
                for agent, rows in zip(scenario.agents, combo):
                    plan = PurePlan(agent, source_state, target_state, rows)
                    if induced_distribution(plan.as_transport(scenario)) != scenario.dist(agent, target_state):
                        break
                else:
                    continue
                challenge = Challenge(
                    target_state=target_state,
                    source_state=source_state,
                    assignments=tuple(zip(scenario.agents, combo)),
                )
                bets[(challenge, target_state)] = synthesize_gamma_delta(scenario, plan)
    return bets, [value for bet in bets.values() for value in (bet.gamma, bet.delta)]


def build_pure_mechanism(scenario: Scenario, z_cap: int = Z_CAP) -> Mechanism:
    verdict = check_nppd(scenario)
    if not verdict.passed:
        raise NppdViolation(verdict)
    return assemble_pure_mechanism(scenario, z_cap=z_cap)


def assemble_pure_mechanism(scenario: Scenario, z_cap: int = Z_CAP) -> Mechanism:
    z = pure_profile_count(scenario)
    if z > z_cap:
        raise ZOverflow(f"{z} pure deception profiles exceed cap {z_cap}")
    bets, values = enumerate_challenges(scenario)
    return Mechanism(
        variant="pure",
        scenario=scenario,
        scaling=_checked_scaling(scenario, values),
        bets=bets,
        z_count=z,
        arbitrary_outcome=scenario.outcomes[0],
    )


# -- reporting ----------------------------------------------------------------


def mechanism_report(mech: Mechanism) -> dict:
    from .rationals import format_rational
    from .scenario import format_collection

    scn = mech.scenario
    sizes = {}
    for agent in scn.agents:
        right = scn.right_neighbor(agent)
        claims = len(scn.states) if mech.variant == "bne" else mech.z_count + 1
        sizes[agent] = {
            "own_alphabet": len(scn.alphabet(agent)),
            "right_alphabet": len(scn.alphabet(right)),
            "evidence_universe": len(scn.presentable(agent)),
            "claim_slot": claims,
        }
    scaling = {
        "eps": format_rational(mech.scaling.eps),
        "tau_low": format_rational(mech.scaling.tau_low),
        "tau_high": format_rational(mech.scaling.tau_high),
        "tau2_max": format_rational(mech.scaling.tau2_max),
        "slack": {k: format_rational(v) for k, v in mech.scaling.slacks().items()},
    }
    report = {
        "variant": mech.variant,
        "message_space": sizes,
        "scaling": scaling,
        "arbitrary_outcome": mech.arbitrary_outcome,
    }
    if mech.variant == "bne":
        bets = sorted(mech.bets.items())
        report["bets"] = [
            {
                "truth_state": truth,
                "lie_state": lie,
                "agent": bet.agent,
                "margin": format_rational(bet.margin),
                "weights": {format_collection(coll): format_rational(w) for coll, w in bet.weights},
            }
            for (truth, lie), bet in bets
        ]
        report["challenger_table"] = {f"{truth}->{lie}": bet.agent for (truth, lie), bet in bets}
    else:
        report["identifier_count"] = mech.z_count
        report["valid_challenges"] = len(mech.bets)
    return report
