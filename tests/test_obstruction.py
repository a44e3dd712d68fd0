import json

import pytest

from handlenu.obstruction import (
    DecompositionGraph,
    HandleBudget,
    betti1_floor,
    graph_from_json,
    interface_lower_bound,
    pieces_ceiling,
    refute,
)


def two_piece_graph():
    return DecompositionGraph((3, 3), ((0, 1, 1),), z=4)


def four_piece_graph():
    # Four pieces, three boundaries each, everything glued pairwise: 2*rho = 12.
    return DecompositionGraph(
        (3, 3, 3, 3),
        ((0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)),
        z=0,
    )


def test_graph_identity_is_enforced():
    g = two_piece_graph()
    assert g.w == 2 and g.rho == 1 and g.z == 4
    with pytest.raises(ValueError):
        DecompositionGraph((3, 3), ((0, 1, 1),), z=3)
    with pytest.raises(ValueError):
        DecompositionGraph((3, 3), ((0, 0, 1),), z=4)
    with pytest.raises(ValueError):
        DecompositionGraph((3, 1), ((0, 1, 2),), z=0)
    with pytest.raises(ValueError):
        DecompositionGraph((3, 3), ((0, 2, 1),), z=4)


def test_interface_lower_bound_examples():
    report = interface_lower_bound(two_piece_graph())
    assert (report.rho, report.floor, report.holds) == (1, 1, True)

    report = interface_lower_bound(four_piece_graph())
    assert (report.rho, report.floor, report.holds) == (6, 6, True)

    single = DecompositionGraph((3,), (), z=3)
    report = interface_lower_bound(single)
    assert (report.rho, report.floor, report.holds) == (0, 0, True)


def test_interface_lower_bound_needs_three_boundaries():
    squeezed = DecompositionGraph((2, 3), ((0, 1, 1),), z=3)
    with pytest.raises(ValueError):
        interface_lower_bound(squeezed)


def test_betti1_floor_examples():
    assert betti1_floor(two_piece_graph()) == 0
    assert betti1_floor(four_piece_graph()) == 3
    # Chain of pieces (a tree): rho = w - 1 forces nothing.
    chain = DecompositionGraph((3, 3, 3), ((0, 1, 1), (1, 2, 1)), z=5)
    assert betti1_floor(chain) == 0


def test_pieces_ceiling_examples():
    assert pieces_ceiling(1, 2) == 2
    assert pieces_ceiling(0, 0) == -2
    assert pieces_ceiling(3, 0) == 4
    with pytest.raises(ValueError):
        pieces_ceiling(-1, 0)


def test_refute_boundary_case():
    budget = HandleBudget(h_max=5, l=1, z=2)
    assert refute(budget, 10).decomposable_possible
    verdict = refute(budget, 11)
    assert not verdict.decomposable_possible
    assert verdict.max_pieces == 2 and verdict.max_handles == 10


def test_refute_negative_ceiling():
    assert not refute(HandleBudget(h_max=100, l=0, z=0), 1).decomposable_possible


def test_refute_refuses_a_negative_target():
    for budget in (HandleBudget(5, 1, 2), HandleBudget(5, 0, 0)):
        with pytest.raises(ValueError, match="target handle count must be non-negative, got -1"):
            refute(budget, -1)


def test_refute_is_monotone_in_target():
    budget = HandleBudget(h_max=4, l=2, z=1)
    previous = True
    for h_w in range(0, 40):
        possible = refute(budget, h_w).decomposable_possible
        assert previous or not possible  # once refuted, stays refuted
        previous = possible


def test_budget_validation():
    with pytest.raises(ValueError):
        HandleBudget(-1, 0, 0)


def test_implication_chain_algebra():
    # rho >= (3w - z)/2 together with l = rho - w + 1 forces w <= 2l + z - 2.
    for w in range(1, 21):
        for z in range(0, 21):
            rho_min = max(0, -((-(3 * w - z)) // 2))
            for rho in range(rho_min, rho_min + 30):
                l = rho - w + 1
                if l < 0:
                    continue
                assert w <= pieces_ceiling(l, z)


def graph_document(costs=None):
    doc = {
        "boundary_counts": [3, 4, 3],
        "interfaces": [{"i": 0, "j": 1, "count": 2}, {"i": 1, "j": 2, "count": 1}],
        "z": 4,
    }
    if costs is not None:
        doc["handle_costs"] = list(costs)
    return doc


def test_graph_json_round_trip():
    g = DecompositionGraph((3, 4, 3), ((0, 1, 2), (1, 2, 1)), z=4, handle_costs=(5, 2, 7))
    assert graph_from_json(graph_document((5, 2, 7))) == g
    with pytest.raises(ValueError):
        graph_from_json({"boundary_counts": [3]})


@pytest.mark.parametrize("costs", [None, (5, 2, 7)])
def test_graph_json_round_trips_through_text(costs):
    g = DecompositionGraph((3, 4, 3), ((0, 1, 2), (1, 2, 1)), z=4, handle_costs=costs)
    text = json.dumps(graph_document(costs))
    assert graph_from_json(json.loads(text)) == g


@pytest.mark.parametrize("bad", [3.9, True, "3"])
def test_graph_refuses_non_integers(bad):
    with pytest.raises(TypeError, match="'boundary_counts' must be an integer"):
        DecompositionGraph((bad, 3, 3), ((0, 1, 1), (1, 2, 1)), 5)
    with pytest.raises(TypeError, match="'count' must be an integer"):
        DecompositionGraph((3, 3, 3), ((0, 1, bad), (1, 2, 1)), 5)
    with pytest.raises(TypeError, match="'j' must be an integer"):
        DecompositionGraph((3, 3, 3), ((0, bad, 1), (1, 2, 1)), 5)
    with pytest.raises(TypeError, match="'z' must be an integer"):
        DecompositionGraph((3, 3), ((0, 1, 1),), bad)
    with pytest.raises(TypeError, match="'handle_costs' must be an integer"):
        DecompositionGraph((3, 3), ((0, 1, 1),), 4, (1, bad))


@pytest.mark.parametrize("bad", [2.7, True, "3"])
def test_budget_refuses_non_integers(bad):
    for field, fields in (("h_max", (bad, 1, 2)), ("l", (2, bad, 2)), ("z", (2, 1, bad))):
        with pytest.raises(TypeError, match=f"'{field}' must be an integer"):
            HandleBudget(*fields)
    with pytest.raises(TypeError, match="'l' must be an integer"):
        pieces_ceiling(bad, 2)
    with pytest.raises(TypeError, match="'z' must be an integer"):
        pieces_ceiling(1, bad)
    # Checked even when no piece fits, where the comparison would not run.
    for budget in (HandleBudget(2, 1, 2), HandleBudget(2, 0, 0)):
        with pytest.raises(TypeError, match="'h_w' must be an integer"):
            refute(budget, bad)
