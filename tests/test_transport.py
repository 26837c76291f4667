from fractions import Fraction

import pytest

from evimech.transport import HallWitness, NotScarce, solve_transport

F = Fraction
C_TOP = frozenset({"mh", "lmh"})
C_LOW = frozenset({"lmh"})


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
