"""Patching tracer: spans around calls into evimech's public functions.

The tracer measures each layer from outside. It replaces a traced function by
a wrapper at every module that binds it (the defining module, each module that
imported it by name, the package root) and records one span per call: name,
start, end, parent span and the id of the benchmark item that caused it. Spans
are kept in compact arrays in memory and written out once, at the end of a
run. A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, attribute path) of every traced call. A dotted path names a method.
SPANNED = (
    ("evimech.scenario", "parse_scenario"),
    ("evimech.scenario", "validate_scenario"),
    ("evimech.transport", "solve_transport"),
    ("evimech.simplex", "maximize"),
    ("evimech.deception", "find_perfect_deception"),
    ("evimech.deception", "find_pure_perfect_deception"),
    ("evimech.deception", "synthesize_bet"),
    ("evimech.deception", "synthesize_gamma_delta"),
    ("evimech.conditions", "check_stochastic_measurability"),
    ("evimech.conditions", "check_npd"),
    ("evimech.conditions", "check_nppd"),
    ("evimech.mechanism", "transfers"),
    ("evimech.mechanism", "build_bne_mechanism"),
    ("evimech.mechanism", "build_pure_mechanism"),
    ("evimech.game", "expected_utility"),
    ("evimech.game", "verify_bne"),
    ("evimech.game", "claim_audits"),
    ("evimech.game", "search_equilibria"),
    ("evimech.hierarchy", "embed_flat_scenario"),
    ("evimech.hierarchy", "build_hierarchy"),
    ("evimech.hierarchy", "check_higher_order_measurability"),
    ("evimech.hierarchy", "check_evidence_ic"),
    ("evimech.smalltransfers", "build_small_transfer_mechanism"),
    ("evimech.smalltransfers", "eliminate_rationalizable"),
    ("evimech.reporting", "render"),
    ("evimech.cli", "main"),
)

def span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    """Records spans and counters while installed; `uninstall` restores every
    patched binding."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_item = array("l")
        self._stack = []
        self.item = -1
        self.counts = {}
        self.lp_cells = 0
        self.bets_separated = 0
        self.pure_refused = 0
        self.search_budget_exceeded = 0
        self.action_counts = []
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()):
        """Patch every traced callable wherever it is bound: in the evimech
        modules and in `extra_modules` (the benchmark's own callers)."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "evimech"]
        modules.extend(extra_modules)
        for module_name, attr in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.spanned(span_name(module_name, attr), original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        game_cls = sys.modules["evimech.game"].BayesianGame
        # Called too often for a span each: counted only, its time stays in
        # the caller's self time.
        self._patch(game_cls, "evaluate", self._counted("game.BayesianGame.evaluate", game_cls.evaluate))
        self._patch(game_cls, "__post_init__", self._on_game(game_cls.__post_init__))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name, fn):
        """`fn` wrapped to record one span per call under `name`."""
        name_id = self._name_id(name)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self.span_item.append(self.item)
            stack.append(index)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.span_start[index] = start
                self.span_end[index] = end
                if observe is not None:
                    observe(args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        self.counts[name] = 0
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_game(self, fn):
        def wrapper(game):
            fn(game)
            self.action_counts.extend(len(actions) for actions in game.actions.values())

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_simplex_maximize(self, args, result, exc):
        objective, constraints = args[0], args[1]
        self.lp_cells += len(constraints) * len(objective)

    def _observe_deception_synthesize_bet(self, args, result, exc):
        if exc is None and result.margin > 0:
            self.bets_separated += 1

    def _observe_mechanism_build_pure_mechanism(self, args, result, exc):
        if exc is not None:
            self.pure_refused += 1

    def _observe_game_search_equilibria(self, args, result, exc):
        if exc is None and any("BUDGET_EXCEEDED" in stamp for stamp in result[1].values()):
            self.search_budget_exceeded += 1

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """name -> (calls, self seconds) over every recorded span."""
        child = array("d", bytes(8 * len(self.span_start)))
        for index in range(len(self.span_start)):
            parent = self.span_parent[index]
            if parent >= 0:
                child[parent] += self.span_end[index] - self.span_start[index]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for index in range(len(self.span_start)):
            name_id = self.span_name[index]
            calls[name_id] += 1
            self_s[name_id] += self.span_end[index] - self.span_start[index] - child[index]
        totals = {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}
        totals.update((name, (count, 0.0)) for name, count in self.counts.items())
        return totals

    def write_spans(self, path):
        """One tab-separated line per span: name, start, end, parent index, item."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_s\tend_s\tparent\titem\n")
            for index in range(len(self.span_start)):
                out.write(
                    f"{self.names[self.span_name[index]]}\t{self.span_start[index]:.9f}\t"
                    f"{self.span_end[index]:.9f}\t{self.span_parent[index]}\t{self.span_item[index]}\n"
                )
