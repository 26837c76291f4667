"""Each deception is solved once per scenario: the memoized transports and
pure plans, what their readers share, and the read-only scenario cache."""

import dataclasses
import itertools
from types import MappingProxyType

import pytest

from evimech import deception, fixtures, mechanism
from evimech.conditions import check_npd, check_nppd, pair_blocking_report
from evimech.deception import find_perfect_deception, find_pure_perfect_deception, perfect_deception
from evimech.game import canonical_perfect_plans
from evimech.generators import random_scenario
from evimech.mechanism import build_bne_mechanism, build_pure_mechanism
from evimech.scenario import contested_lies

BUILD_REFUSALS = (mechanism.NpdViolation, mechanism.NppdViolation, mechanism.ZOverflow)


def _count_calls(monkeypatch, module, name):
    """Wrap `module.name` and return the list of argument tuples it sees."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _ordered_pairs(scn):
    return [
        (agent, s, t) for agent in scn.agents for s, t in itertools.permutations(scn.states, 2)
    ]


def _all_pairs_pass(scn):
    for agent, s, t in _ordered_pairs(scn):
        find_perfect_deception(scn, agent, s, t)


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
def test_readers_never_solve_a_transport_twice(monkeypatch, name):
    scn = fixtures.ALL_FIXTURES[name]()
    solves = _count_calls(monkeypatch, deception, "solve_transport")
    asked = _count_calls(monkeypatch, deception, "_solve_perfect_deception")
    check_npd(scn)
    after_check = len(asked)
    try:
        build_bne_mechanism(scn)
    except mechanism.NpdViolation:
        pass
    pairs = [args[1:] for args in asked]
    # the builder re-solves none of the pairs the check solved
    assert not set(pairs[:after_check]) & set(pairs[after_check:])
    for s, t, _ in contested_lies(scn, None):
        pair_blocking_report(scn, s, t)
        canonical_perfect_plans(scn, s, t)
    _all_pairs_pass(scn)
    pairs = [args[1:] for args in asked]
    assert sorted(pairs) == sorted(_ordered_pairs(scn)) and len(solves) == len(pairs)


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
def test_after_an_all_pairs_pass_check_and_build_solve_nothing(monkeypatch, name):
    scn = fixtures.ALL_FIXTURES[name]()
    _all_pairs_pass(scn)
    solves = _count_calls(monkeypatch, deception, "solve_transport")
    check_npd(scn)
    assert solves == []
    try:
        build_bne_mechanism(scn)
    except mechanism.NpdViolation:
        pass
    assert solves == []


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
def test_after_check_nppd_the_pure_builder_backtracks_nothing(monkeypatch, name):
    scn = fixtures.ALL_FIXTURES[name]()
    check_nppd(scn)
    steps = _count_calls(monkeypatch, deception, "_assign_sources")
    try:
        build_pure_mechanism(scn)
    except BUILD_REFUSALS:
        pass
    assert steps == []


def test_a_check_on_a_fresh_scenario_still_solves(monkeypatch):
    scn = fixtures.leading_example()
    check_npd(scn)
    check_nppd(scn)
    solves = _count_calls(monkeypatch, deception, "solve_transport")
    steps = _count_calls(monkeypatch, deception, "_assign_sources")
    fresh = dataclasses.replace(scn)
    assert check_npd(fresh).passed == check_npd(scn).passed
    assert check_nppd(fresh).passed == check_nppd(scn).passed
    assert solves and steps


def _scenarios():
    for name in sorted(fixtures.ALL_FIXTURES):
        yield name, fixtures.ALL_FIXTURES[name]()
    for seed in range(200):
        yield f"random_scenario({seed})", random_scenario(seed)


def test_memoized_results_equal_fresh_solves():
    for label, scn in _scenarios():
        check_npd(scn)
        check_nppd(scn)
        for agent, s, t in _ordered_pairs(scn):
            cached = perfect_deception(scn, agent, s, t)
            assert perfect_deception(scn, agent, s, t) is cached
            fresh = perfect_deception(dataclasses.replace(scn), agent, s, t)
            assert cached.flow_value == fresh.flow_value, label
            if fresh.exists:
                assert cached.plan.flows == fresh.plan.flows, label
                assert cached.witness is None
            else:
                assert cached.plan is None, label
                mine, theirs = cached.witness, fresh.witness
                assert (mine.targets, mine.demand, mine.sources, mine.supply) == (
                    theirs.targets,
                    theirs.demand,
                    theirs.sources,
                    theirs.supply,
                ), label
            pure = find_pure_perfect_deception(scn, agent, s, t)
            assert find_pure_perfect_deception(scn, agent, s, t) is pure
            assert pure == find_pure_perfect_deception(dataclasses.replace(scn), agent, s, t), label


def test_cached_results_are_read_only():
    scn = fixtures.leading_example()
    blocked = perfect_deception(scn, "A", "L", "H")
    perfect = perfect_deception(scn, "A", "H", "M")
    assert not blocked.exists and perfect.exists
    for result in (blocked, perfect):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.plan = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.flow_value = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        blocked.witness.demand = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        perfect.plan.flows = ()


def _read_only(value) -> bool:
    if value is None or isinstance(value, (tuple, frozenset, MappingProxyType)):
        return True
    params = getattr(type(value), "__dataclass_params__", None)
    return params is not None and params.frozen


@pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
def test_every_cached_value_is_read_only(name):
    scn = fixtures.ALL_FIXTURES[name]()
    check_npd(scn)
    check_nppd(scn)
    for build in (build_bne_mechanism, build_pure_mechanism):
        try:
            build(scn)
        except BUILD_REFUSALS:
            pass
    mechanism.scaling_terms(scn)  # a fixture both builders refuse early
    for agent in scn.agents:
        scn.presentable(agent)
        scn.alphabet(agent)
    kinds = {key[0] if isinstance(key, tuple) else key for key in scn._cache}
    assert {"perfect_deception", "pure_perfect_deception", "evidence", "alphabet", "lie_table", "scaling_terms"} <= kinds
    mutable = {key: type(value).__name__ for key, value in scn._cache.items() if not _read_only(value)}
    assert mutable == {}

