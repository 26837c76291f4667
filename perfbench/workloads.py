"""The benchmark's four workloads: input generation and per-item output checks.

Every workload turns its seed into a pool of serialised inputs during set-up.
The timed phase hands one pool entry at a time to the item's runner, which
parses the input, calls into evimech and checks the output; a failed check
raises `CheckFailed`. README.md in this directory says why each workload
exists and which layers it loads.

Inputs come from `generators.random_scenario` under its documented draw
protocol, driven by scenario seeds drawn from the workload seed, plus the
fixture documents under `tests/data`. Where a workload selects among drawn
scenarios, it does so by a size computed from the input alone (transcripts
an item evaluates, bet-LP cells, type-space profiles), so the same seed always
gives the same pool. Each pool draws a fixed number of scenarios per seed and
keeps those that qualify, so its set-up work does not depend on how soon the
seed's draws happen to qualify.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from evimech import cli, conditions, deception, game, generators, mechanism, scenario

# Flat scenario fixtures among the eight documents in tests/data; the other two
# (broken_sum: invalid on purpose, micro_model: a type-space model) are read by
# the cli workload.
SCENARIO_FIXTURES = ("leading", "perturbed", "pure_deception", "projection", "micro", "appended_article")

# `build pure` at its default cap, as the CLI and the library use it.
Z_CAP = 10**6
PURE_CAP = game.SearchBudget().pure_cap


class CheckFailed(AssertionError):
    """An item's output broke the property its check asserts."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Item:
    label: str  # where the input came from, for failure messages
    args: tuple  # serialised inputs handed to the runner


@dataclass
class Pool:
    items: list
    run: object  # callable(*item.args)
    notes: dict  # input statistics, reported as unmetered run metadata


def _rng(workload, seed):
    return random.Random(f"perfbench:{workload}:{seed}")


def _scenario_seeds(rng, count=None):
    """`count` scenario seeds drawn by `rng`; endless when count is None."""
    drawn = 0
    while count is None or drawn < count:
        drawn += 1
        yield rng.randrange(10**9)


def _document(scn) -> str:
    return json.dumps(scenario.scenario_to_json(scn), sort_keys=True)


def _load(text):
    scn = scenario.parse_scenario(json.loads(text))
    report = scenario.validate_scenario(scn)
    require(report.valid, f"fixture or generated scenario is invalid: {report.violations[:3]}")
    return scn


def _clean(report, scn, state):
    return (
        report.is_bne
        and report.transfers_zero
        and report.on_path_outcomes == {scn.scf[state]: Fraction(1)}
    )


# -- size predictors ------------------------------------------------------------
#
# Each counts, from the scenario alone, work an item does, so that a pool can
# hold items of similar cost. The game counts mirror how game.BayesianGame
# enumerates actions: own report x right-neighbour report x presented subset x
# claim slot.


def _actions(scn, agent, coll, claims):
    right = scn.right_neighbor(agent)
    return len(scn.alphabet(agent)) * len(scn.alphabet(right)) * 2 ** len(coll) * claims


def _truthful_transcripts(scn, state, claims):
    """Transcripts verify_bne evaluates on the truthful profile at one state."""
    types = {a: scn.support(a, state) for a in scn.agents}
    total = 0
    for agent in scn.agents:
        opponents = math.prod(len(types[b]) for b in scn.agents if b != agent)
        total += sum(_actions(scn, agent, coll, claims) for coll in types[agent]) * opponents
    return total


def _pure_profiles(scn, state, claims):
    """Pure profiles search_equilibria would enumerate at one state."""
    return math.prod(
        _actions(scn, agent, coll, claims) for agent in scn.agents for coll in scn.support(agent, state)
    )


def _bet_lp_cells(scn):
    """Rows x columns summed over the bet LPs a population item solves: one
    per agent and ordered state pair, shaped as deception.synthesize_bet
    builds it (lie-support weights, per-source minima and the margin)."""
    cells = 0
    for agent in scn.agents:
        for truth in scn.states:
            sources = scn.support(agent, truth)
            for lie in scn.states:
                if lie == truth:
                    continue
                lie_support = scn.support(agent, lie)
                rows = 2 + len(sources) + sum(c <= src for src in sources for c in lie_support)
                cells += rows * (len(lie_support) + len(sources) + 1)
    return cells


# -- population -----------------------------------------------------------------


def check_duality(scn):
    """Criterion 9 on one scenario: for every agent and ordered state pair,
    a perfect deception exists exactly when no bet has a positive margin."""
    for agent in scn.agents:
        for s in scn.states:
            for s_prime in scn.states:
                if s == s_prime:
                    continue
                plan = deception.find_perfect_deception(scn, agent, s, s_prime)
                try:
                    separated = deception.synthesize_bet(scn, agent, s, s_prime).margin > 0
                except deception.InfeasibleSeparation:
                    separated = False
                require((plan is None) == separated, f"duality broken for {agent} {s}->{s_prime}")


def population_item(text):
    """Conditions, the bet LP over every agent and ordered pair, both builders."""
    scn = _load(text)
    sm = conditions.check_stochastic_measurability(scn).passed
    npd = conditions.check_npd(scn).passed
    nppd = conditions.check_nppd(scn).passed
    require((not npd or nppd) and (not nppd or sm), f"NPD=>NPPD=>SM broken: {npd} {nppd} {sm}")
    check_duality(scn)
    try:
        mechanism.build_bne_mechanism(scn)
        built = True
    except mechanism.NpdViolation:
        built = False
    require(built == npd, f"build_bne {'built' if built else 'refused'} with NPD={npd}")
    try:
        mechanism.build_pure_mechanism(scn, z_cap=Z_CAP)
        require(nppd, "build_pure built without NPPD")
    except mechanism.NppdViolation:
        require(not nppd, "build_pure refused NPPD-passing input")
    except mechanism.ZOverflow:
        pass


# Vigintiles (5 % quantiles) of _bet_lp_cells over random_scenario(0..19999),
# the protocol's own distribution. Each bin gets the same quota, so a pool keeps
# the population's mix of LP sizes and loses most of the cost spread that
# plain sampling would carry from seed to seed.
LP_CELL_VIGINTILES = (
    80, 105, 126, 150, 176, 206, 251, 299, 348, 391, 440, 502, 555, 613, 688, 765, 850, 984, 1174,
)
POPULATION_PER_BIN = 7
# Each bin holds about 5 % of draws, so 400 draws fill nearly every quota (on
# two of twenty seeds tried, one bin fell a scenario short).
POPULATION_DRAWS = 400


def population_pool(seed, data_dir, workdir):
    rng = _rng("population", seed)
    fixtures = [Item(f"fixture:{name}", ((data_dir / f"{name}.json").read_text(),)) for name in SCENARIO_FIXTURES]
    quota = POPULATION_PER_BIN
    bins = [[] for _ in range(len(LP_CELL_VIGINTILES) + 1)]
    for scn_seed in _scenario_seeds(rng, POPULATION_DRAWS):
        scn = generators.random_scenario(scn_seed)
        bucket = bins[bisect.bisect_right(LP_CELL_VIGINTILES, _bet_lp_cells(scn))]
        if len(bucket) < quota:
            bucket.append(Item(f"random_scenario({scn_seed})", (_document(scn),)))
    # Round-robin over the bins so that any prefix of the pool keeps the mix.
    items = list(fixtures)
    for rank in range(quota):
        order = list(bins)
        rng.shuffle(order)
        items.extend(b[rank] for b in order if rank < len(b))
    return Pool(items, population_item, {"scenarios": len(items), "fixtures": len(fixtures)})


# -- game-verify ----------------------------------------------------------------


def game_verify_item(text):
    """Build bne, verify truthful play everywhere, replay the proof audits, and
    verify truthful play of the pure variant where it fits the z cap."""
    scn = _load(text)
    mech = mechanism.build_bne_mechanism(scn)
    profiles = range(len(scn.utility_profiles))
    for state in scn.states:
        for idx in profiles:
            g = game.BayesianGame(scn, mech, state, idx)
            require(_clean(game.verify_bne(g, game.truthful_profile(g)), scn, state), f"bne truthful unclean at {state}")
    suite = game.claim_audits(scn, mech)
    require(suite.passed, "claim_audits failed")
    require(any(not r.vacuous for r in suite.results), "every claim audit was vacuous")
    try:
        pure = mechanism.build_pure_mechanism(scn, z_cap=Z_CAP)
    except mechanism.ZOverflow:
        return
    for state in scn.states:
        for idx in profiles:
            g = game.BayesianGame(scn, pure, state, idx)
            require(_clean(game.verify_bne(g, game.truthful_profile(g)), scn, state), f"pure truthful unclean at {state}")


# An item evaluates about this many fresh transcripts (truthful verification
# of bne at every state and profile, again in the zero-on-truth audit, plus
# the pure variant's). The band keeps items at 0.1 to 0.2 s on a 2-core
# machine. Within it, 3-agent scenarios are the slowest items, so the pool
# holds a fixed number of each agent count: left to chance, their number
# moves the tail from seed to seed. About one draw in 60 qualifies with two
# agents and one in 160 with three, so 3400 draws fill both quotas on nearly
# every seed (on 19 of 20 seeds tried; the other fell two scenarios short).
VERIFY_TRANSCRIPTS = (600, 1000)
VERIFY_QUOTAS = {2: 45, 3: 15}  # agents -> scenarios
VERIFY_DRAWS = 3400


def verify_transcripts(scn):
    """Predicted transcripts of a game-verify item; None once it exceeds the band."""
    profiles = len(scn.utility_profiles)
    count = 2 * profiles * sum(_truthful_transcripts(scn, s, len(scn.states)) for s in scn.states)
    if mechanism.pure_profile_count(scn) <= Z_CAP:
        # The pure variant's claim slot is "no challenge" or one of its challenges.
        per_claim = profiles * sum(_truthful_transcripts(scn, s, 1) for s in scn.states)
        if count + per_claim > VERIFY_TRANSCRIPTS[1]:
            return None
        challenges, _ = mechanism.enumerate_challenges(scn)
        count += per_claim * (1 + len(challenges))
    return count if count <= VERIFY_TRANSCRIPTS[1] else None


def game_verify_pool(seed, data_dir, workdir):
    rng = _rng("game-verify", seed)
    kept = {agents: [] for agents in VERIFY_QUOTAS}
    for scn_seed in _scenario_seeds(rng, VERIFY_DRAWS):
        # Four-state scenarios almost never fit the band; skip drawing them.
        scn = generators.random_scenario(scn_seed, max_states=3)
        size = verify_transcripts(scn)
        if size is None or size < VERIFY_TRANSCRIPTS[0]:
            continue
        group = kept[len(scn.agents)]
        if len(group) < VERIFY_QUOTAS[len(scn.agents)] and conditions.check_npd(scn).passed:
            group.append((Item(f"random_scenario({scn_seed})", (_document(scn),)), size))
    chosen = [entry for group in kept.values() for entry in group]
    notes = {
        "scenarios": len(chosen),
        "by_agents": {agents: len(group) for agents, group in kept.items()},
        "transcripts": sum(size for _, size in chosen),
    }
    return Pool([item for item, _ in chosen], game_verify_item, notes)


# -- game-search ----------------------------------------------------------------


def game_search_item(text, state, profile_idx):
    """search_equilibria under the default budget; every hit must be on-path and
    clean, and an exhaustive stamp must come with at least one hit."""
    scn = _load(text)
    mech = mechanism.build_bne_mechanism(scn)
    g = game.BayesianGame(scn, mech, state, profile_idx)
    results, flags = game.search_equilibria(g)
    for hit in results:
        require(_clean(hit["report"], scn, state), f"search hit off-path or with transfers at {state}")
    exhaustive = any(stamp == "EXHAUSTIVE" for stamp in flags.values())
    require(results or not exhaustive, f"exhaustive search at {state} found nothing")


# Pure profiles x transcripts per verification: the work of the exhaustive
# enumeration, which dominates a game whose profile count fits the default cap.
# About one draw in 85 gives such a game, so 3400 draws give about 40, but in
# clumps (a scenario can give a game per state): the pool keeps the first 24.
SEARCH_WORK = (1800, 2600)
SEARCH_DRAWS = 3400
SEARCH_ITEMS = 24

# Games above the default pure_cap: pure enumeration reports BUDGET_EXCEEDED
# and the closure family and best-response dynamics do the work, as on the
# ROADMAP stress seeds. Their cost depends on how many dynamics rounds the
# seeded starts need, which no size computed from the input predicts: at equal
# profile and transcript counts it varies tenfold. Drawn from the seed, a few
# such games would decide a run's tail. So they are one fixed set, drawn once
# from workload seed 0 like a fixture set, just over the cap
# (profiles at most 4 x pure_cap) and with at most 96 transcripts per
# verification (one best-response round). They outnumber the seed's games, so
# that the tail falls among them.
WIDE_PROFILES = 4 * PURE_CAP
WIDE_TRANSCRIPTS = 96
WIDE_ITEMS = 32


def _search_games(seeds, fits, want=None):
    """(label, args, size) of NPD-passing games, up to `want`, from the
    scenarios of `seeds`; `fits(profiles, transcripts)` returns the size of a
    game that qualifies, or None."""
    games = []
    for scn_seed in seeds:
        if want is not None and len(games) >= want:
            break
        # Four-state games almost never fit; skip drawing them.
        scn = generators.random_scenario(scn_seed, max_states=3)
        claims = len(scn.states)
        sized = []
        for state in scn.states:
            size = fits(_pure_profiles(scn, state, claims), _truthful_transcripts(scn, state, claims))
            if size is not None:
                sized.append((state, size))
        if not sized or not conditions.check_npd(scn).passed:
            continue
        text = _document(scn)
        # The last profile is the scenario's own random utilities (the first
        # is the constant profile every scenario carries).
        profile_idx = len(scn.utility_profiles) - 1
        for state, size in sized:
            games.append((f"random_scenario({scn_seed}) state {state}", (text, state, profile_idx), size))
    return games[:want]


def _enumerated(profiles, transcripts):
    work = profiles * transcripts
    return work if profiles <= PURE_CAP and SEARCH_WORK[0] <= work <= SEARCH_WORK[1] else None


def _wide(profiles, transcripts):
    return profiles if PURE_CAP < profiles <= WIDE_PROFILES and transcripts <= WIDE_TRANSCRIPTS else None


def game_search_pool(seed, data_dir, workdir):
    enumerated = _search_games(_scenario_seeds(_rng("game-search", seed), SEARCH_DRAWS), _enumerated)[:SEARCH_ITEMS]
    wide = _search_games(_scenario_seeds(_rng("game-search-wide", 0)), _wide, WIDE_ITEMS)
    # Spread the wide games evenly through the pool so any prefix keeps the mix.
    merged = sorted(
        [((i + 0.5) / len(enumerated), game) for i, game in enumerate(enumerated)]
        + [((i + 0.5) / len(wide), game) for i, game in enumerate(wide)],
        key=lambda pair: pair[0],
    )
    items = [Item(label, args) for _, (label, args, _) in merged]
    notes = {
        "games": len(items),
        "wide_games": len(wide),
        "work": sum(size for _, _, size in enumerated),
    }
    return Pool(items, game_search_item, notes)


# -- cli ------------------------------------------------------------------------

# The twelve README commands, with the exit code the README gives each.
README_COMMANDS = (
    (("validate", "leading.json"), 0),
    (("check", "npd", "leading.json"), 3),
    (("check", "nppd", "leading.json"), 0),
    (("check", "hom", "leading.json"), 0),
    (("build", "bne", "perturbed.json"), 0),
    (("build", "pure", "leading.json"), 0),
    (("build", "am", "micro_model.json", "--eps", "1/100"), 0),
    (("audit", "claims", "perturbed.json"), 0),
    (("audit", "closure", "leading.json"), 0),
    (("audit", "search", "micro.json", "--budget-pure", "100000"), 0),
    (("audit", "icr", "micro_model.json", "--eps", "1/100"), 0),
    (("hierarchy", "leading.json", "--depth", "2"), 0),
)

# The type-space commands, run on each generated scenario, and the payload
# field whose truth must agree with exit code 0 (None: always exit 0).
TYPE_SPACE_COMMANDS = (
    (("check", "hom"), "passed"),
    (("check", "eic"), "passed"),
    (("build", "am"), "mechanism"),
    (("audit", "icr"), "passed"),
    (("hierarchy",), None),
)
# Generated scenarios whose product type space (the profiles embed_flat_scenario
# enumerates) lies in this band; above it the type-space commands take tenths
# of a second each and a few such scenarios would decide a run's numbers.
# About one draw in four qualifies, so 450 draws give about 120 scenarios.
CLI_TYPE_PROFILES = (30, 60)
CLI_DRAWS = 450


def type_profiles(scn):
    return math.prod(sum(len(scn.support(a, s)) for s in scn.states) for a in scn.agents)


def cli_item(argv, expected_code, verdict_key, sm_passed):
    """One in-process `evimech ... --format machine` call."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([*argv, "--format", "machine"])
    report = json.loads(out.getvalue())
    require(report.get("exit_code") == code, f"{argv}: report exit_code {report.get('exit_code')} != {code}")
    payload = report["payload"]
    if expected_code is not None:
        require(code == expected_code, f"{argv}: exit {code}, README says {expected_code}")
    elif verdict_key is None:
        require(code == 0, f"{argv}: exit {code}")
    else:
        verdict = payload.get(verdict_key)
        require(code in (0, 3) and (code == 0) == bool(verdict), f"{argv}: exit {code} with {verdict_key}={verdict!r}")
    if argv[:2] == ("check", "hom") and sm_passed is not None:
        # HOM of the product embedding equals SM of the flat scenario.
        require(payload["passed"] == sm_passed, f"{argv}: HOM {payload['passed']} but SM {sm_passed}")


def cli_pool(seed, data_dir, workdir):
    rng = _rng("cli", seed)
    items = [
        Item(" ".join(argv), (tuple(str(data_dir / a) if a.endswith(".json") else a for a in argv), code, None, None))
        for argv, code in README_COMMANDS
    ]
    written = 0
    for scn_seed in _scenario_seeds(rng, CLI_DRAWS):
        scn = generators.random_scenario(scn_seed)
        if not CLI_TYPE_PROFILES[0] <= type_profiles(scn) <= CLI_TYPE_PROFILES[1]:
            continue
        written += 1
        path = workdir / f"random_{scn_seed}.json"
        path.write_text(_document(scn))
        sm = conditions.check_stochastic_measurability(scn).passed
        for command, verdict_key in TYPE_SPACE_COMMANDS:
            argv = (*command, str(path))
            items.append(Item(f"{' '.join(command)} random_scenario({scn_seed})", (argv, None, verdict_key, sm)))
    return Pool(items, cli_item, {"commands": len(items), "scenarios": written})


WORKLOADS = {
    "population": population_pool,
    "game-verify": game_verify_pool,
    "game-search": game_search_pool,
    "cli": cli_pool,
}
