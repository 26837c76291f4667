"""Differential tests: the integer max-flow against the `Fraction` max-flow
it replaced (`transport_reference.py`). `solve_transport` takes integer
masses over a scale L; the reference gets the same masses as `Fraction`s
n / L. Feasibility, flow value, arc flows (as `Fraction`s, in the same dict
order) and the Hall witness must be identical, on every transport of
criterion 9's population, on the fixtures and on fuzzed networks.
`solve_transport` takes its masses keyed in canonical collection order: the
package passes them so (checked on every captured call), and the fuzzed
masses are sorted into it here."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transport_reference
from evimech import deception, fixtures, transport
from evimech.deception import find_perfect_deception
from evimech.rationals import common_denominator, numerators
from evimech.scenario import collection_key
from test_acceptance import _population


def _typed(value):
    return type(value), value


def _fields(result):
    witness = result.witness
    if witness is not None:
        witness = (witness.targets, _typed(witness.demand), witness.sources, _typed(witness.supply))
    arcs = [(arc, _typed(flow)) for arc, flow in result.arc_flows.items()]
    return result.feasible, _typed(result.flow_value), arcs, witness


def _canonical(masses):
    return sorted(masses, key=collection_key)


def assert_matches_reference(supplies, demands, scale):
    """supplies / demands: integer masses over `scale`."""
    reference = transport_reference.solve_transport(
        *({coll: Fraction(n, scale) for coll, n in masses.items()} for masses in (supplies, demands))
    )
    if reference.witness is not None and not reference.witness.verify():
        # every demand met with supply left over (unequal totals): no target
        # set is scarce, and a Hall witness refuses to be built
        with pytest.raises(transport.NotScarce):
            transport.solve_transport(supplies, demands, scale)
        return reference
    new = transport.solve_transport(supplies, demands, scale)
    assert _fields(new) == _fields(reference), (supplies, demands, scale)
    return new


@contextmanager
def captured_transports():
    """Collect the distinct (supplies, demands, scale) calls solved inside the block."""
    seen = {}
    original = deception.solve_transport

    def capture(supplies, demands, scale):
        for masses in (supplies, demands):
            assert list(masses) == _canonical(masses)
        key = repr([list(supplies.items()), list(demands.items()), scale])
        seen.setdefault(key, (dict(supplies), dict(demands), scale))
        return original(supplies, demands, scale)

    deception.solve_transport = capture
    try:
        yield seen
    finally:
        deception.solve_transport = original


def _solve_every_ordered_pair(scenarios):
    with captured_transports() as seen:
        for scn in scenarios:
            for agent in scn.agents:
                for s in scn.states:
                    for s_prime in scn.states:
                        if s != s_prime:
                            find_perfect_deception(scn, agent, s, s_prime)
    return seen


def test_every_criterion_9_transport_matches_the_reference():
    seen = _solve_every_ordered_pair(_population())
    assert len(seen) > 5000
    feasible = sum(assert_matches_reference(*pair).feasible for pair in seen.values())
    assert 0 < feasible < len(seen)


def test_fixture_transports_match_the_reference():
    seen = _solve_every_ordered_pair([build() for build in fixtures.ALL_FIXTURES.values()])
    assert len(seen) >= 20
    for pair in seen.values():
        assert_matches_reference(*pair)


_collection = st.frozensets(st.sampled_from("abcd"), max_size=3)  # the empty one too
_mass = st.fractions(min_value=0, max_value=2, max_denominator=12)
_masses = st.dictionaries(_collection, _mass, max_size=6)


@st.composite
def equal_totals(draw):
    """Demands rescaled to the supply total: feasible exactly when the
    subset arcs can carry it."""
    supplies = draw(_masses)
    weights = draw(st.dictionaries(_collection, st.fractions(min_value=1, max_value=5, max_denominator=7), min_size=1, max_size=6))
    total = sum(supplies.values(), Fraction(0))
    scale = total / sum(weights.values())
    return supplies, {coll: w * scale for coll, w in weights.items()}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.tuples(_masses, _masses), equal_totals()), st.integers(1, 3))
def test_fuzzed_transports_match_the_reference(pair, factor):
    """The masses as numerators over `factor` times their common denominator,
    keyed in canonical collection order."""
    supplies, demands = ({coll: masses[coll] for coll in _canonical(masses)} for masses in pair)
    scale = factor * common_denominator([*supplies.values(), *demands.values()])
    assert_matches_reference(
        *(dict(zip(masses, numerators(masses.values(), scale))) for masses in (supplies, demands)), scale
    )
