"""Implementing mechanisms: message spaces, outcome rule, the five transfer
components, scaling parameters, and the pure-strategy identifier variant."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType

from .conditions import Verdict, check_npd, check_nppd, check_stochastic_measurability
from .deception import PurePlan, induced_masses, perfect_deception, synthesize_gamma_delta, witness_bet
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
    try:
        unknown = sorted(frozenset(msg.evidence) - scenario.article_set())
    except (AttributeError, TypeError):  # not a message with a collection
        unknown = []
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
    """The scaling of a mechanism's transfers for bets paying at most
    `bet_max`; a scenario's bet-free one (`bet_max` 0) is its
    `scaling_terms`."""

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

    def claims(self) -> tuple:
        """The claim slot's menu, built on first use: every state (bne, a
        claim of the true state), or no challenge and every valid challenge
        in `challenge_key` order (pure)."""
        menu = self.__dict__.get("_claims")
        if menu is None:
            if self.variant == "bne":
                menu = self.scenario.states
            else:
                menu = (None, *sorted((claim for claim, _ in self.bets), key=challenge_key))
            self.__dict__["_claims"] = menu
        return menu

    @property
    def inert_claims(self) -> tuple:
        """The types of the claims off the menu that fit the claim slot and
        activate no bet: none (bne) or any `Challenge` (pure)."""
        return (type(None),) if self.variant == "bne" else (Challenge,)

    def truthful_claim(self, state):
        """The claim of the truthful report at `state`: the state (bne) or no
        challenge (pure)."""
        return state if self.variant == "bne" else None

    def truthful_message(self, agent, state, evidence) -> Message:
        """The type's truthful report at `state`: claims of both distributions,
        the whole endowment, and its truthful claim."""
        scn = self.scenario
        right = scn.right_neighbor(agent)
        return Message(scn.dist(agent, state), scn.dist(right, state), frozenset(evidence), self.truthful_claim(state))

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
# KEY_BITS * i. A code is computed from its message's indices, so a large
# message space holds codes at or above 2**KEY_BITS: the kernel raises
# OverflowError (`KernelBase._fits`) before it hands one out, so no packed key
# aliases another.
KEY_BITS = 32
_CODE_MASK = (1 << KEY_BITS) - 1

_NO_BETS = {}  # the bets of a claim the bet table does not name


def _lowest_state(mask: int) -> int:
    """Index of the least state in a state bitmask; -1 for the empty mask."""
    return (mask & -mask).bit_length() - 1


class Menu(Sequence):
    """One agent's action menu: a read-only sequence of messages held as
    their `codes`, each message decoded (`message`) when it is read, with
    `positions` mapping each code to its menu position."""

    __slots__ = ("codes", "positions", "_i", "_message")

    def __init__(self, kernel: "KernelBase", i: int, codes: tuple):
        self.codes = codes
        self.positions = dict(zip(codes, range(len(codes))))
        self._i = i
        self._message = kernel.message

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._message(self._i, code) for code in self.codes[index])
        return self._message(self._i, self.codes[index])

    def __iter__(self):
        return (self._message(self._i, code) for code in self.codes)


class KernelBase:
    """Shared interface of compiled mechanisms.

    A subclass compiles its finite message space once, in `__init__`, where
    it calls `KernelBase.__init__` with its scenario and fixes the common
    denominator `D`. A message's code is computed from its indices (its parts'
    positions in the compiled tables, the evidence's in `Scenario.evidence`),
    never looked up, and stays below 2**KEY_BITS (`_fits`). The subclass
    provides five methods:

    - `_menu_codes(i, endowment)`: agent i's codes for an endowment, in menu
      order, built from indices and ready for `evaluate_row`;
    - `message(i, code)`: the message of one of agent i's codes;
    - `code(i, message)`: a handed-in message's code, `MessageOutsideSpace`
      for a message outside the space;
    - `truthful_code(i, state, position)`: agent i's truthful message at
      `state` presenting its collection at evidence `position`;
    - `evaluate_row(i, codes, others)`: takes agent i's message codes and the
      other agents' codes packed `KEY_BITS` per agent (agent i's bits zero)
      and returns, per code of agent i, the outcome's position in
      `scenario.outcomes` and agent i's five `TRANSFER_KEYS` components as
      integer numerators over `D`.

    `actions(i, endowment)` returns the one `Menu` of `_menu_codes`, which
    holds the codes and their menu positions.

    Every certificate is a unilateral deviation: one agent's messages are
    valued while the others' stay fixed. `evaluate_row` reads neither a state
    nor utilities, so `row(i, codes, others)` keeps each code's (outcome
    position, agent i's transfer total) in the per-agent payoff rows `rows`,
    shared by every game of the mechanism, and evaluates each entry once. A
    whole transcript (`transcript`, `itemized`) is assembled from one
    single-code row per agent and is not kept.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.agents = scenario.agents
        # per agent: presentable collection -> its position in Scenario.evidence
        self.positions = [scenario.evidence(agent)[1] for agent in scenario.agents]
        self._menus = {}
        self._outcome_codes = {outcome: k for k, outcome in enumerate(scenario.outcomes)}
        # per agent i: packed others' codes -> {code of agent i: (the
        # outcome's position in scenario.outcomes, agent i's transfer total
        # as a numerator over D)}
        self.rows = [{} for _ in scenario.agents]

    def _fits(self, i: int, code: int) -> int:
        """Agent i's `code`, or OverflowError when it would not fit its
        `KEY_BITS` field of a packed key."""
        if code >= 1 << KEY_BITS:
            raise OverflowError(f"message code {code} of agent {self.agents[i]!r} does not fit in {KEY_BITS} bits")
        return code

    def actions(self, i: int, endowment) -> Menu:
        """Agent i's action menu for an endowment, built on first use and
        shared by every game of the mechanism."""
        menu = self._menus.get((i, endowment))
        if menu is None:
            menu = self._menus[(i, endowment)] = Menu(self, i, self._menu_codes(i, endowment))
        return menu

    def key(self, transcript: dict) -> int:
        """The transcript's codes packed into one int, `KEY_BITS` per agent."""
        key = 0
        for i, agent in enumerate(self.agents):
            key |= self.code(i, transcript[agent]) << (KEY_BITS * i)
        return key

    def unpack(self, key: int) -> list:
        """Every agent's code from a packed key, in agent order."""
        return [key >> (KEY_BITS * i) & _CODE_MASK for i in range(len(self.agents))]

    def row(self, i: int, codes, others: int) -> list:
        """Agent i's payoff row against the packed `others`: (outcome
        position, transfer total) per code of `codes`, each entry evaluated
        on first use."""
        rows = self.rows[i]
        entries = rows.get(others)
        if entries is None:
            entries = rows[others] = {}
        else:
            try:
                return [entries[code] for code in codes]
            except KeyError:
                pass
        missing = [code for code in dict.fromkeys(codes) if code not in entries]
        for code, (outcome, items) in zip(missing, self.evaluate_row(i, missing, others)):
            entries[code] = (outcome, sum(items))
        return [entries[code] for code in codes]

    def transcript(self, key: int) -> tuple:
        """(outcome position, per-agent components) of a packed transcript,
        from one single-code row per agent (each row gives the outcome)."""
        items = []
        for i, code in enumerate(self.unpack(key)):
            ((outcome, row),) = self.evaluate_row(i, (code,), key & ~(_CODE_MASK << (KEY_BITS * i)))
            items.append(row)
        return outcome, items

    def itemized(self, transcript: dict):
        """(outcome, agent -> itemized exact transfers with their total)."""
        outcome_code, items = self.transcript(self.key(transcript))
        table = {}
        for agent, row in zip(self.agents, items):
            entry = {key: Fraction(value, self.D) for key, value in zip(TRANSFER_KEYS, row)}
            entry["total"] = Fraction(sum(row), self.D)
            table[agent] = entry
        return self.scenario.outcomes[outcome_code], table


class Kernel(KernelBase):
    """A mechanism compiled into exact integer tables over its finite message
    space.

    A message's transfers depend only on its two claimed distributions, drawn
    from the alphabets, the evidence it presents, drawn from its agent's
    presentable collections, and its claim slot. `__init__` reads the
    alphabets from `Scenario.alphabet_table`, each presentable collection's
    position and refuted-state mask from `Scenario.evidence`, and fills tables
    of integer numerators over one common denominator `D`, fixed there:

    - `score[j][p][e]`: tau_low times the quadratic score of agent j's
      alphabet member p (its integer masses) at j's presentable collection e;
    - `incentive[j][e]`: eps times the size of e;
    - bet payments: eps times a bet's weight at each presentable collection
      of its subject (`bet.weights`, read once per bet);
    - `tau_low` and `tau_high`.

    Agent i's code for the message of own alphabet index `own`, right
    neighbour's alphabet index `claimed`, evidence position `position` and
    claim slot `slot` is

        slot * block + (own * |right alphabet| + claimed) * width + position

    with `width` agent i's presentable count and `block` the codes of one
    slot. The claim menu (`Mechanism.claims`) fills the first slots; an
    inert claim (`Mechanism.inert_claims`) off it, handed in, takes the next
    free slot and activates no bet, so an invalid challenge acts like no
    challenge. Anything but a `Message`, a distribution outside the alphabet,
    evidence the agent cannot present, any other claim or an unhashable part
    raises `MessageOutsideSpace`. Each
    code's record, made from its indices on first use (`_index_code`), holds
    the states its claims match as bitmasks, the states its evidence refutes,
    the bets its claim slot activates per consensus state (keyed by the
    state's bit) and the states where those bets are live. The kernel holds
    no reference to its mechanism.

    `evaluate_row` decodes the other agents' records once per row: their
    consensus and right-claim masks are ANDed, and their live bets and
    refuting evidence ORed, so each of agent i's codes only adds its own.
    """

    def __init__(self, mech: "Mechanism"):
        scn = mech.scenario
        super().__init__(scn)
        index = {agent: i for i, agent in enumerate(scn.agents)}
        self.right = [index[scn.right_neighbor(agent)] for agent in scn.agents]
        self.left = [index[scn.left_neighbor(agent)] for agent in scn.agents]
        self.states = scn.states
        self._state_index = state_index = {state: k for k, state in enumerate(scn.states)}
        # the outcome's position in scn.outcomes by the consensus state's bit,
        # and with no consensus
        self._bit_outcomes = {1 << k: self._outcome_codes[scn.scf[state]] for k, state in enumerate(scn.states)}
        self._arbitrary_code = self._outcome_codes[mech.arbitrary_outcome]
        self._all_states = (1 << len(scn.states)) - 1
        # per agent: code -> record (see `_index_code`)
        self._records = [{} for _ in scn.agents]

        compiled = [scn.alphabet_table(agent) for agent in scn.agents]
        self._alphabets = alphabets = [table.members for table in compiled]
        evidence, _, self._refuted_states = ([scn.evidence(a)[c] for a in scn.agents] for c in range(3))
        self._presentable = evidence
        # per agent j and state k: the alphabet index of j's distribution at k
        self._truth = [table.truth for table in compiled]
        self._state_masks = [[0] * len(alphabet) for alphabet in alphabets]
        for masks, truth in zip(self._state_masks, self._truth):
            for k, p in enumerate(truth):
                masks[p] |= 1 << k
        # per agent i: the strides of `_index_code` (block, the codes of one
        # claim slot; the right neighbour's alphabet size; width, i's
        # presentable count)
        self._strides = [
            (len(alphabet) * len(alphabets[right]) * len(presentable), len(alphabets[right]), len(presentable))
            for alphabet, right, presentable in zip(alphabets, self.right, evidence)
        ]

        # every table as integer numerators over one common denominator D.
        # Each table is first (M, its numerators over M); a value n/M reduces
        # to a denominator dividing M // gcd(M, n), so D, the lcm of every
        # value's reduced denominator, is the lcm over tables of
        # M // gcd(M, n, ...)
        scaling_terms(scn)  # a scenario failing SM compiles no kernel either
        eps, tau_low, tau_high = mech.scaling.eps, mech.scaling.tau_low, mech.scaling.tau_high
        # agent j's scores: tau_low times the quadratic scores of j's members'
        # masses over L_j, numerators over L_j^2
        score = []
        for presentable, alphabet in zip(evidence, compiled):
            L = alphabet.scale
            table = [[tau_low.numerator * q for q in quadratic_scores(row, presentable, L)] for row in alphabet.masses]
            score.append((tau_low.denominator * L * L, table))
        incentive = [(eps.denominator, [eps.numerator * len(e) for e in row]) for row in evidence]
        # claim -> consensus state's bit -> (subject index, (M, payments by the
        # subject's evidence position)); each bet's weights are read once
        claims = {}
        for (claim, state), bet in mech.bets.items():
            j = index[bet.agent]
            at = self.positions[j]
            weights = {at[coll]: w for coll, w in dict(bet.weights).items() if coll in at}
            W = common_denominator(weights.values())
            paid = [0] * len(evidence[j])
            for position, n in zip(weights, numerators(weights.values(), W)):
                paid[position] = eps.numerator * n
            claims.setdefault(claim, {})[1 << state_index[state]] = (j, (eps.denominator * W, paid))
        tables = [(M, values) for M, table in score for values in table]
        tables += incentive
        tables += [payments for bets in claims.values() for _, payments in bets.values()]
        reduced = (M // math.gcd(M, *values) for M, values in tables)
        self.D = D = math.lcm(tau_low.denominator, tau_high.denominator, *reduced)

        def over_D(M, values):
            return [n * D // M for n in values]

        self.tau_low, self.tau_high = numerators((tau_low, tau_high), D)
        self.incentive = [over_D(*row) for row in incentive]
        self.score = [[over_D(M, values) for values in table] for M, table in score]
        self._claims = {
            claim: {bit: (j, over_D(*payments)) for bit, (j, payments) in bets.items()}
            for claim, bets in claims.items()
        }

        # claim slots: the claim menu's, then each inert claim off it in the
        # order handed in
        self._slot_claims = list(mech.claims())
        self._menu_slots = len(self._slot_claims)
        self._slots = {claim: slot for slot, claim in enumerate(self._slot_claims)}
        self._inert_claims = mech.inert_claims
        self._truth_slots = [self._slots[mech.truthful_claim(state)] for state in scn.states]
        # per agent i and slot: (the bets its claim activates, the states
        # where they are live). A bet on the bettor's own evidence is void:
        # the bettor could steer its value through its own presentation
        bets_by_slot = [self._claims.get(claim, _NO_BETS) for claim in self._slot_claims]
        self._slot_bets = [
            [(bets, sum(bit for bit, (subject, _) in bets.items() if subject != i)) for bets in bets_by_slot]
            for i in range(len(scn.agents))
        ]

    # -- coding -------------------------------------------------------------

    def _index_code(self, i: int, own: int, claimed: int, position: int, slot: int) -> int:
        """Agent i's code for the message of own alphabet index `own`, right
        neighbour's alphabet index `claimed`, evidence `position` and claim
        `slot`; its record is made on first use."""
        block, right_size, width = self._strides[i]
        code = slot * block + (own * right_size + claimed) * width + position
        records = self._records[i]
        if code not in records:
            right_mask = self._state_masks[self.right[i]][claimed]
            records[self._fits(i, code)] = (
                own,
                claimed,
                position,
                self._state_masks[i][own] & right_mask,
                right_mask,
                self._refuted_states[i][position],
                *self._slot_bets[i][slot],
            )
        return code

    def _menu_codes(self, i: int, endowment) -> tuple:
        """Own claim x right-neighbour claim x presented subset x claim slot,
        each code and its record made by `_index_code`."""
        shown = [self.positions[i][sub] for sub in subsets(endowment)]
        _, right_size, _ = self._strides[i]
        return tuple(
            self._index_code(i, own, claimed, position, slot)
            for own in range(len(self._alphabets[i]))
            for claimed in range(right_size)
            for position in shown
            for slot in range(self._menu_slots)
        )

    def _slot(self, claim) -> int:
        """The claim's slot; an inert claim off the claim menu takes the next
        free one and activates no bet, and any other raises
        `MessageOutsideSpace`."""
        slot = self._slots.get(claim)
        if slot is None:
            if not isinstance(claim, self._inert_claims):
                raise MessageOutsideSpace(f"claim {claim!r} is outside the claim slot")
            slot = self._slots[claim] = len(self._slot_claims)
            self._slot_claims.append(claim)
            for slot_bets in self._slot_bets:
                slot_bets.append((_NO_BETS, 0))
        return slot

    def message(self, i: int, code: int) -> Message:
        """The message of agent i's `code`, decoded from its indices."""
        block, right_size, width = self._strides[i]
        slot, pair = divmod(code, block)
        pair, position = divmod(pair, width)
        own, claimed = divmod(pair, right_size)
        right = self._alphabets[self.right[i]]
        return Message(self._alphabets[i][own], right[claimed], self._presentable[i][position], self._slot_claims[slot])

    def code(self, i: int, msg: Message) -> int:
        """Agent i's code for `msg`; MessageOutsideSpace outside the message space."""
        if isinstance(msg, Message):
            try:
                indices = (
                    self._alphabets[i].index(msg.p_own),
                    self._alphabets[self.right[i]].index(msg.p_right),
                    self.positions[i][msg.evidence],
                    self._slot(msg.claim),
                )
            except (ValueError, KeyError, TypeError):  # a part off its table, or unhashable
                pass
            else:
                return self._index_code(i, *indices)
        raise outside_space(self.scenario, self.agents[i], msg)

    def truthful_code(self, i: int, state, position: int, **changes) -> int:
        """Agent i's code for its truthful message at `state` presenting the
        collection at evidence `position`; `changes` replace its own alphabet
        index (`own`), its right neighbour's (`claimed`) or its claim
        (`claim`)."""
        k = self._state_index[state]
        own = changes.get("own", self._truth[i][k])
        claimed = changes.get("claimed", self._truth[self.right[i]][k])
        slot = self._slot(changes["claim"]) if "claim" in changes else self._truth_slots[k]
        return self._index_code(i, own, claimed, position, slot)

    # -- rules --------------------------------------------------------------

    def _others(self, i: int, others: int) -> tuple:
        """The fixed part of agent i's row: (records, every agent's but i's;
        the states every other claim matches; those every other
        right-neighbour claim matches; those where another agent's bet is
        live; those another agent's evidence refutes), as state bitmasks."""
        records = []
        consensus = right_claims = self._all_states
        betting = refuting = 0
        for j, code in enumerate(self.unpack(others)):
            record = None if j == i else self._records[j][code]
            records.append(record)
            if record is not None:
                consensus &= record[3]
                right_claims &= record[4]
                refuting |= record[5]
                betting |= record[7]
        return records, consensus, right_claims, betting, refuting

    def consensus_state(self, transcript: dict) -> str | None:
        key = self.key(transcript)
        _, consensus, _, _, _ = self._others(0, key & ~_CODE_MASK)
        state = _lowest_state(consensus & self._records[0][key & _CODE_MASK][3])
        return self.states[state] if state >= 0 else None

    def evaluate_row(self, i: int, codes, others: int) -> list:
        records, consensus_others, right_others, betting, refuting = self._others(i, others)
        right, left = self.right[i], self.left[i]
        incentive, score, mine = self.incentive[i], self.score[right], self._records[i]
        row = []
        for code in codes:
            # i's record joins the others' for its neighbours' lookups (a
            # single agent is its own neighbour)
            own, claimed, evidence, claims, right_claimed, refuted, bets, _ = records[i] = mine[code]
            # a state is read as its bit: the least one set, 0 for none
            consensus = consensus_others & claims
            consensus &= -consensus
            right_claims = right_others & right_claimed
            shown = records[right][2]
            scoring = score[claimed][shown] - score[records[right][0]][shown]
            crosscheck = -self.tau_low if own != records[left][1] else 0
            fine = -self.tau_high if refuting & right_claims & -right_claims else 0
            if not consensus:
                row.append((self._arbitrary_code, (incentive[evidence], scoring, crosscheck, fine, 0)))
                continue
            bet = bets.get(consensus)
            payment = 0 if bet is None or bet[0] == i else bet[1][records[bet[0]][2]]
            triggered = (betting | refuted) & consensus
            items = (incentive[evidence] if triggered else 0, scoring, crosscheck, fine, payment)
            row.append((self._bit_outcomes[consensus], items))
        return row


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


def _widest_score_gap(alphabet) -> Fraction:
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
    points = list({coll for row in alphabet.masses for coll in row})
    table = [quadratic_scores(row, points, alphabet.scale) for row in alphabet.masses]
    widest = max((max(scores) - min(scores) for scores in zip(*table)), default=0)
    return Fraction(widest, alphabet.scale**2)


def scaling_terms(scenario: Scenario) -> ScalingParams:
    """The scenario's bet-free `ScalingParams` (`bet_max` 0), computed on
    first use and kept, read-only, in the scenario's cache, so both builders
    and every kernel share one pass. A scenario failing stochastic
    measurability keeps None there, and every call raises `DegenerateGap`."""
    key = "scaling_terms"
    if key not in scenario._cache:
        scenario._cache[key] = _scaling_terms(scenario)
    terms = scenario._cache[key]
    if terms is None:
        raise DegenerateGap("identical distribution profiles with distinct outcomes")
    return terms


def _scaling_terms(scenario: Scenario) -> ScalingParams | None:
    if not check_stochastic_measurability(scenario).passed:
        return None
    alphabets = [scenario.alphabet_table(agent) for agent in scenario.agents]
    gaps = []  # per alphabet of two or more: the least squared distance between two members
    for alphabet in alphabets:
        distances = [squared_distance(p, q) for p, q in itertools.combinations(alphabet.masses, 2)]
        if distances:
            gaps.append(Fraction(min(distances), alphabet.scale**2))
    gap_min = min(gaps, default=None)
    tau_low, tau2_max, rho_min, tau_high = Fraction(2), Fraction(0), None, Fraction(1)
    if gap_min is not None:
        tau_low = Fraction(max(2, math.floor(1 / gap_min) + 1))
        # each agent scores its right neighbour, and every agent is one
        tau2_max = max([tau2_max] + [tau_low * _widest_score_gap(alphabet) for alphabet in alphabets])
        # the least probability of a collection refuting some lie: a refutable lie's witnesses
        lies = scenario.lie_table().values()
        witnesses = [found for lie in lies if lie.witnesses for found in lie.witnesses.values()]
        rho_min = min((prob for found in witnesses for _, prob in found), default=None)
        if rho_min is not None:
            tau_high = Fraction(math.ceil((1 + tau2_max) / rho_min))
    collection_max, span = scenario.max_collection_size(), scenario.utility_span()
    bet_free = ScalingParams(None, tau_low, tau_high, tau2_max, gap_min, rho_min, collection_max, None, span)
    return _for_bets(bet_free, Fraction(0))


def _for_bets(params: ScalingParams, bet_max: Fraction) -> ScalingParams:
    """`params` for bets paying at most `bet_max`, with the eps of the one
    eps rule: half the least bound that the eps_dominance and one_dollar
    slacks put on eps (with a score gap), or 1/100 without one."""
    candidates = []
    if params.gap_min is not None:
        weight = params.collection_max + bet_max  # eps's weight in eps_dominance; one_dollar's adds bet_max
        if weight > 0:
            candidates.append((params.tau_low - 1) / (2 * weight))
        if params.span < 1 and weight + bet_max > 0:
            candidates.append((1 - params.span) / (2 * (weight + bet_max)))
    eps = min(candidates) if candidates else Fraction(1, 100)
    return replace(params, eps=eps, bet_max=bet_max)


def compute_scaling(scenario: Scenario, bet_values) -> ScalingParams:
    """Canonical parameters satisfying the score-gap and refutation inequalities:
    the scenario's `scaling_terms` for these bets.

    bet_values: iterable of absolute bet entries that the whistle slot can pay.
    """
    return _for_bets(scaling_terms(scenario), max((abs(Fraction(value)) for value in bet_values), default=Fraction(0)))


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


def pure_assignments(scenario: Scenario, agent, state):
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
    (challenge, its target state), and the gammas and deltas they pay.

    Challenges come in (source state, combination of the agents' pure
    assignments, target state) order, each on the first agent whose plan
    misses its target marginal. Each (agent, source state, assignment) is
    judged once, on first use, against every target marginal, in the integer
    masses of the agent's `Scenario.alphabet_table`, and each subject plan's
    bet is synthesized once."""
    agents, states = scenario.agents, scenario.states
    alphabets = [scenario.alphabet_table(agent) for agent in agents]
    bets = {}
    for s, source_state in enumerate(states):
        profiles = [pure_assignments(scenario, agent, source_state) for agent in agents]
        targets = [t for t in range(len(states)) if t != s]
        # per agent and assignment, per target state: True when the plan meets
        # the target marginal, else False, or its bet once it is a subject
        verdicts = [[None] * len(rows) for rows in profiles]
        for combo in itertools.product(*(range(len(rows)) for rows in profiles)):
            for t in targets:
                for i, a in enumerate(combo):
                    judged = verdicts[i][a]
                    if judged is None:
                        masses, truth = alphabets[i].masses, alphabets[i].truth
                        induced = induced_masses(profiles[i][a], masses[truth[s]])
                        judged = verdicts[i][a] = [induced == masses[p] for p in truth]
                    if judged[t] is not True:
                        break
                else:
                    continue
                if judged[t] is False:
                    plan = PurePlan(agents[i], source_state, states[t], profiles[i][a])
                    judged[t] = synthesize_gamma_delta(scenario, plan)
                assignments = tuple(zip(agents, (rows[a] for rows, a in zip(profiles, combo))))
                challenge = Challenge(target_state=states[t], source_state=source_state, assignments=assignments)
                bets[(challenge, states[t])] = judged[t]
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
