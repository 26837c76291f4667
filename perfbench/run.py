"""Run one workload of the evimech benchmark and print its metrics.

    python3 perfbench/run.py --workload population --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/` of the
checkout this file sits in, never from an installed copy. The run

1. imports evimech and builds the workload's input pool from `--seed`, three
   times, and reports the import time plus the median build time as `setup_s`;
2. with `--trace 0`, runs pool items in order (cycling) until `--seconds` have
   passed, one at a time in this single thread (a closed loop with one
   client), checking every item's output, and reports the end-to-end metrics
   over the complete passes;
3. with `--trace 1`, runs items untraced for a third of `--seconds`, then runs
   the same items once more untraced and once traced, and reports the
   per-layer metrics, per traced item, and the tracing overhead.

Every time the run reports is scaled to reference speed: a fixed loop of
Fraction arithmetic (`reference_loop`) is timed between items and between
set-up steps, and a time t measured next to a reference time r is reported as
t * REFERENCE_S / r, the time it would take where the loop takes REFERENCE_S.
The speed of a shared machine drifts by tens of percent over seconds to
minutes; the program and the loop drift together, so the ratio does not.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Earlier lines give the tail percentile
with its sample count and the unmetered run metadata. A full report (and,
traced, the spans) is written under `perfbench/_out/`.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
OUT = ROOT / "perfbench" / "_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # items the tail percentile must leave above it
REFERENCE_S = 0.002  # nominal duration of reference_loop: about its time on an unloaded 2-core x86-64 VM


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (program or fixtures missing)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import evimech from this checkout's src/ and the benchmark modules."""
    for path in (SRC, ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if not (SRC / "evimech" / "__init__.py").is_file():
        raise SetupError(f"no evimech package under {SRC}")
    if not DATA.is_dir():
        raise SetupError(f"no fixture directory {DATA}")
    import evimech

    if Path(evimech.__file__).resolve().parent != (SRC / "evimech").resolve():
        raise SetupError(f"evimech was imported from {evimech.__file__}, not from {SRC}")
    from perfbench import tracing, workloads

    return workloads, tracing


def reference_loop():
    """Fixed work of the program's kind (Fraction arithmetic, tuple-keyed dict
    updates), about 2 ms; it calls nothing in evimech."""
    total = Fraction(0)
    table = {}
    for i in range(1, 400):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
        table[(i, i % 7)] = total
    return total


def reference_time(repeats=1):
    """The median time of `repeats` reference runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runs:
    """Item runs of one phase: scaled and wall latencies, reference times, failures."""

    def __init__(self):
        self.scaled, self.wall, self.references, self.failures = [], [], [], []
        self.elapsed = 0.0


def run_items(pool, deadline=None, count=None, tracer=None):
    """Run pool items in order, cycling, until `deadline` or `count` items.

    An item's latency covers parsing its input, the program calls and the
    output check. It is scaled by the mean of the reference times measured
    just before and just after it.
    """
    runs = Runs()
    begin = time.perf_counter()
    before = reference_time()
    runs.references.append(before)
    index = 0
    while count is None or index < count:
        item = pool.items[index % len(pool.items)]
        if tracer is not None:
            tracer.item = index
        t0 = time.perf_counter()
        try:
            pool.run(*item.args)
        except Exception as exc:  # an item failure is counted, not fatal
            runs.failures.append((item.label, "".join(traceback.format_exception_only(type(exc), exc)).strip()))
        t1 = time.perf_counter()
        after = reference_time()
        runs.references.append(after)
        runs.wall.append(t1 - t0)
        runs.scaled.append((t1 - t0) * REFERENCE_S / ((before + after) / 2))
        before = after
        index += 1
        if deadline is not None and t1 >= deadline:
            break
    runs.elapsed = time.perf_counter() - begin
    return runs


def tail(latencies, beyond):
    """(value, percentile, samples beyond) at the highest percentile that still
    leaves `beyond` samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - beyond - 1 if n > beyond else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def src_lines():
    return sum(len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py")))


def metadata(args, pool):
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(),
        "pool": {"items": len(pool.items), **pool.notes},
    }


def layer_metrics(tracing, tracer, items, scale, overhead, failed):
    """Per-layer metrics of a traced pass of `items` items; self times are
    multiplied by `scale`, the pass's reference scale."""
    totals = tracer.layer_totals()
    calls = {name: count for name, (count, _) in totals.items()}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ratio(part, name):
        return part / calls[name] if calls.get(name) else 0.0

    for name in [tracing.span_name(m, a) for m, a in tracing.SPANNED]:
        count, self_s = totals.get(name, (0, 0.0))
        put(f"{name}.calls", count / items, "count/item")
        put(f"{name}.self_s", self_s * scale / items, "s/item")
    put("perfbench.item.self_s", totals["perfbench.item"][1] * scale / items, "s/item")
    put("simplex.maximize.cells", tracer.lp_cells / items, "count/item")
    put("game.BayesianGame.evaluate.calls", calls.get("game.BayesianGame.evaluate", 0) / items, "count/item")
    hits = calls.get("game.BayesianGame.evaluate", 0) - calls.get("mechanism.transfers", 0)
    put("game.payoff_cache_hit_ratio", ratio(hits, "game.BayesianGame.evaluate"), "ratio")
    put("deception.bet_separated_ratio", ratio(tracer.bets_separated, "deception.synthesize_bet"), "ratio")
    put("mechanism.pure_refused_ratio", ratio(tracer.pure_refused, "mechanism.build_pure_mechanism"), "ratio")
    put(
        "game.search_budget_exceeded_ratio",
        ratio(tracer.search_budget_exceeded, "game.search_equilibria"),
        "ratio",
    )
    actions = tracer.action_counts
    put("game.actions_per_type.max", max(actions, default=0), "count")
    put("game.actions_per_type.mean", statistics.fmean(actions) if actions else 0.0, "count")
    put("trace.overhead_ratio", overhead, "ratio")
    put("failed_ratio", failed, "ratio")
    return metrics


def top_layers(metrics, count=6):
    rows = [(v["value"], k[: -len(".self_s")]) for k, v in metrics.items() if k.endswith(".self_s")]
    return [f"{name} {value * 1e3:.2f} ms/item" for value, name in sorted(rows, reverse=True)[:count]]


def main(argv=None, started=None):
    started = time.perf_counter() if started is None else started
    args = parse_args(argv)
    try:
        workloads, tracing = import_program()
        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        imported = time.perf_counter() - started
        OUT.mkdir(parents=True, exist_ok=True)
        workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
        workdir.mkdir()
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    try:
        build = workloads.WORKLOADS[args.workload]
        # Medians of three: the first reference runs of a process are often slow.
        references = [reference_time(3)]
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pool = build(args.seed, DATA, workdir)
            builds.append(time.perf_counter() - t0)
            references.append(reference_time(3))
        if not pool.items:
            print("perfbench: the workload built an empty pool", file=sys.stderr)
            return 2
        setup_wall = imported + statistics.median(builds)
        # The import is scaled by the reference time after it, each build by
        # the mean of the times around it.
        scaled_builds = [
            t * REFERENCE_S / ((before + after) / 2)
            for t, before, after in zip(builds, references, references[1:])
        ]
        setup_s = imported * REFERENCE_S / references[0] + statistics.median(scaled_builds)

        if args.trace == 0:
            runs = run_items(pool, deadline=time.perf_counter() + args.seconds)
            failures = runs.failures
            attempted = len(runs.scaled)
            # Timings count complete passes only, so every item weighs the
            # same; the tail leaves TAIL_BEYOND items' runs above it.
            passes = attempted // len(pool.items)
            scaled = runs.scaled[: passes * len(pool.items)] if passes else runs.scaled
            value, percentile, beyond = tail(scaled, TAIL_BEYOND * max(passes, 1))
            metrics = {
                "items_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
                "item_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
                "item_tail_ms": {"value": value * 1e3, "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
            print(
                f"item_tail_ms {value * 1e3:.3f} at p{percentile:.2f}: {beyond} of {len(scaled)} item runs"
                f" ({passes} complete passes over {len(pool.items)} items) beyond it"
            )
            extra = {
                "item_runs": attempted,
                "complete_passes": passes,
                "elapsed_s": runs.elapsed,
                "wall_items_per_s": attempted / sum(runs.wall),
                "wall_item_p50_ms": statistics.median(runs.wall) * 1e3,
                "reference_ms": [r * 1e3 for r in runs.references],
                "tail_percentile": percentile,
                "tail_beyond": beyond,
                "scaled_ms": [x * 1e3 for x in runs.scaled],
            }
        else:
            warmup = run_items(pool, deadline=time.perf_counter() + args.seconds / 3)
            covered = min(len(warmup.scaled), len(pool.items))
            # The overhead compares two warm passes over the same items.
            plain = run_items(pool, count=covered)
            tracer = tracing.Tracer()
            tracer.install(extra_modules=[workloads])
            traced_pool = workloads.Pool(pool.items, tracer.spanned("perfbench.item", pool.run), pool.notes)
            try:
                traced = run_items(traced_pool, count=covered, tracer=tracer)
            finally:
                tracer.uninstall()
            failures = warmup.failures + plain.failures + traced.failures
            attempted = len(warmup.scaled) + 2 * covered
            overhead = sum(plain.scaled) / sum(traced.scaled)
            scale = REFERENCE_S / statistics.median(traced.references)
            metrics = layer_metrics(tracing, tracer, covered, scale, overhead, len(failures) / attempted)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write_spans(spans)
            for row in top_layers(metrics):
                print(f"self time: {row}")
            extra = {
                "items": covered,
                "reference_scale": scale,
                "spans": str(spans.relative_to(ROOT)),
                "span_count": len(tracer.span_start),
            }

        for label, message in failures[:5]:
            print(f"perfbench: item {label} failed: {message}", file=sys.stderr)
        meta = metadata(args, pool)
        meta["setup"] = {
            "import_s": imported,
            "builds_s": builds,
            "wall_s": setup_wall,
            "reference_ms": [r * 1e3 for r in references],
        }
        print("meta " + json.dumps(meta, sort_keys=True))
        result = {
            "correct": not failures and attempted > 0,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }
        report = {"meta": meta, "extra": extra, "failures": failures, **result}
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(started=STARTED))
