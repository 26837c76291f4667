"""Re-measure the ROADMAP baseline rows under the tracer.

    python3 perfbench/baseline.py

The timed workloads in run.py hold items of tenths of a second so that a
25-second run completes dozens of them. The ROADMAP's standing stress cases
are far larger (random seeds 5 and 27: 3 agents x 4 states, several seconds
per call), so this script measures them once each, with the same tracer, and
prints one row per ROADMAP baseline figure: wall seconds, seconds at
reference speed (scaled as run.py scales, by reference runs before and after
the row) and the layer counts behind it. README.md sets these rows beside
the ROADMAP's numbers. Takes about one and a half minutes on a 2-core x86-64
VM.
"""

import json
import random
import sys
import time

from run import DATA, OUT, REFERENCE_S, ROOT, import_program, reference_time


def timed(tracer, label, fn, rows):
    """Run `fn` once under a fresh trace; record wall time and call counts."""
    before = {name: calls for name, (calls, _) in tracer.layer_totals().items()}
    ref_before = reference_time(3)
    t0 = time.perf_counter()
    note = fn()
    wall = time.perf_counter() - t0
    scaled = wall * REFERENCE_S / ((ref_before + reference_time(3)) / 2)
    after = tracer.layer_totals()
    calls = {
        name: calls - before.get(name, 0)
        for name, (calls, _) in after.items()
        if calls - before.get(name, 0)
    }
    rows.append({"row": label, "wall_s": wall, "scaled_s": scaled, "note": note, "calls": calls})
    print(f"{label}: {wall:.2f} s wall, {scaled:.2f} s at reference speed {note or ''}", flush=True)


def main():
    workloads, tracing = import_program()
    from evimech import fixtures, game, generators, mechanism, scenario

    def criterion_9():
        population = [build() for build in fixtures.ALL_FIXTURES.values()]
        population.extend(generators.random_scenario(seed) for seed in range(500))
        for scn in population:
            workloads.check_duality(scn)

    perturbed = scenario.parse_scenario(json.loads((DATA / "perturbed.json").read_text()))
    perturbed_mech = mechanism.build_bne_mechanism(perturbed)
    rng = random.Random(0)
    games = [game.BayesianGame(perturbed, perturbed_mech, state, 0) for state in perturbed.states]
    transcripts = []
    for _ in range(20000):
        g = rng.choice(games)
        transcripts.append(
            {agent: rng.choice(g.actions[(agent, rng.choice(g.types[agent]))]) for agent in perturbed.agents}
        )

    def transfers_on_perturbed():
        for transcript in transcripts:
            mechanism.transfers(perturbed_mech, transcript)
        return f"{len(transcripts)} random transcripts"

    stress = {seed: generators.random_scenario(seed) for seed in (5, 27)}
    mechs = {seed: mechanism.build_bne_mechanism(scn) for seed, scn in stress.items()}

    def verify_all_states(seed):
        scn, mech = stress[seed], mechs[seed]
        for state in scn.states:
            g = game.BayesianGame(scn, mech, state, 0)
            report = game.verify_bne(g, game.truthful_profile(g))
            workloads.require(report.is_bne, f"truthful play is not a BNE at {state}")

    def audits(seed):
        suite = game.claim_audits(stress[seed], mechs[seed])
        workloads.require(suite.passed, "claim audits failed")

    def search_s0(seed):
        g = game.BayesianGame(stress[seed], mechs[seed], "s0", 0)
        results, flags = game.search_equilibria(g)
        return f"{len(results)} hits, flags {flags}"

    def pure_reach():
        nppd = refused = 0
        for seed in range(500):
            scn = generators.random_scenario(seed)
            try:
                mechanism.build_pure_mechanism(scn)
                nppd += 1
            except mechanism.NppdViolation:
                pass
            except mechanism.ZOverflow:
                nppd += 1
                refused += 1
        return f"refused {refused} of {nppd} NPPD-passing scenarios"

    rows = []
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        timed(tracer, "criterion 9 bet LPs (fixtures + seeds 0-499)", criterion_9, rows)
        timed(tracer, "transfers on perturbed", transfers_on_perturbed, rows)
        timed(tracer, "seed 27 truthful verify_bne, all states, profile 0", lambda: verify_all_states(27), rows)
        timed(tracer, "seed 27 claim_audits", lambda: audits(27), rows)
        timed(tracer, "seed 5 claim_audits", lambda: audits(5), rows)
        timed(tracer, "seed 27 search_equilibria s0", lambda: search_s0(27), rows)
        timed(tracer, "seed 5 search_equilibria s0", lambda: search_s0(5), rows)
        timed(tracer, "build pure over seeds 0-499", pure_reach, rows)
    finally:
        tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "baseline.json"
    path.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
