from fractions import Fraction

import pytest

from evimech.rationals import common_denominator, numerators
from evimech.scenario import collection_key
from evimech.transport import HallWitness, NotScarce
from evimech.transport import solve_transport as solve_integer_transport

F = Fraction
C_TOP = frozenset({"mh", "lmh"})
C_LOW = frozenset({"lmh"})


def solve_transport(supplies, demands):
    """`solve_transport` on `Fraction` masses, passed as numerators over
    their L and keyed in canonical collection order, as it takes them."""
    scale = common_denominator([*supplies.values(), *demands.values()])
    supplies, demands = ({c: m[c] for c in sorted(m, key=collection_key)} for m in (supplies, demands))
    supplies, demands = (dict(zip(m, numerators(m.values(), scale))) for m in (supplies, demands))
    return solve_integer_transport(supplies, demands, scale)


def test_feasible_leading_h_to_m():
    result = solve_transport({C_TOP: F(3, 5), C_LOW: F(2, 5)}, {C_TOP: F(2, 5), C_LOW: F(3, 5)})
    assert result.feasible
    assert result.flow_value == 1
    by_target = {}
    for (_, dst), f in result.arc_flows.items():
        by_target[dst] = by_target.get(dst, F(0)) + f
    assert by_target == {C_TOP: F(2, 5), C_LOW: F(3, 5)}


def test_infeasible_leading_m_to_h_with_witness():
    result = solve_transport({C_TOP: F(2, 5), C_LOW: F(3, 5)}, {C_TOP: F(3, 5), C_LOW: F(2, 5)})
    assert not result.feasible
    assert result.flow_value < 1
    witness = result.witness
    assert witness is not None and witness.verify()
    assert C_TOP in witness.targets
    # witness family is closed under supersets within the target support
    for scarce in witness.targets:
        for other in (C_TOP, C_LOW):
            if scarce <= other and other != scarce:
                assert other in witness.targets


@pytest.mark.parametrize("demand, supply", [(F(2, 5), F(3, 5)), (F(1, 2), F(1, 2))])
def test_witness_refuses_demand_at_most_supply(demand, supply):
    with pytest.raises(NotScarce):
        HallWitness((C_TOP,), demand, (C_TOP,), supply)


def test_identity_is_feasible():
    result = solve_transport({C_LOW: F(1)}, {C_LOW: F(1)})
    assert result.feasible
    assert result.arc_flows == {(C_LOW, C_LOW): F(1)}


def test_all_mass_to_empty():
    empty = frozenset()
    result = solve_transport({C_TOP: F(1, 2), C_LOW: F(1, 2)}, {empty: F(1)})
    assert result.feasible


def test_deterministic_arc_flows():
    supplies = {C_TOP: F(3, 5), C_LOW: F(2, 5)}
    demands = {C_TOP: F(2, 5), C_LOW: F(3, 5)}
    first = solve_transport(supplies, demands)
    second = solve_transport(supplies, demands)
    assert first.arc_flows == second.arc_flows


@pytest.mark.parametrize(
    "mass",
    [F(3, 5), True, 3.0],
    ids=["fraction", "bool", "float"],
)
def test_refuses_a_mass_that_is_not_an_int(mass):
    with pytest.raises(TypeError):
        solve_integer_transport({C_TOP: mass, C_LOW: 2}, {C_TOP: 2, C_LOW: 3}, 5)
    with pytest.raises(TypeError):
        solve_integer_transport({C_TOP: 3, C_LOW: 2}, {C_TOP: mass, C_LOW: 3}, 5)


@pytest.mark.parametrize("scale", [F(5), 5.0, True], ids=["fraction", "float", "bool"])
def test_refuses_a_scale_that_is_not_an_int(scale):
    with pytest.raises(TypeError):
        solve_integer_transport({C_TOP: 3, C_LOW: 2}, {C_TOP: 2, C_LOW: 3}, scale)


@pytest.mark.parametrize("scale", [0, -5])
def test_refuses_a_scale_below_one(scale):
    with pytest.raises(ValueError):
        solve_integer_transport({C_TOP: 3, C_LOW: 2}, {C_TOP: 2, C_LOW: 3}, scale)


def test_flows_are_masses_over_the_scale():
    # the leading example's H -> M transport over L = 5, and the same over 10
    for scale, factor in ((5, 1), (10, 2)):
        result = solve_integer_transport(
            {C_TOP: 3 * factor, C_LOW: 2 * factor}, {C_TOP: 2 * factor, C_LOW: 3 * factor}, scale
        )
        assert result.feasible
        assert (type(result.flow_value), result.flow_value) == (Fraction, 1)
        assert all(type(flow) is Fraction for flow in result.arc_flows.values())
        assert sum(result.arc_flows.values()) == 1
