import random
import re

import pytest

from handlenu.homology import (
    ConnectedSum,
    DescriptorError,
    Explicit,
    HomologyVector,
    Product,
    Sphere,
    Surface,
    betti,
    desc_equal,
    descriptor_from_json,
    descriptor_to_json,
    dimension,
    normalize,
    pretty,
    total_betti,
)
from handlenu.homology import _less
from chain_oracle import RationalChainComplex, chain_betti
from gen import random_descriptor


def test_sphere_betti():
    assert betti(Sphere(2)).betti == (1, 0, 1)
    assert betti(Sphere(1)).betti == (1, 1)
    assert betti(Sphere(5)).betti == (1, 0, 0, 0, 0, 1)


def test_surface_betti_and_total():
    assert betti(Surface(3)).betti == (1, 6, 1)
    assert total_betti(Surface(3)) == 8
    assert total_betti(Surface(0)) == 2
    for g in range(5):
        assert total_betti(Surface(g)) == 2 + 2 * g


def test_torus_as_product_of_circles():
    torus = Product(Sphere(1), Sphere(1))
    assert betti(torus).betti == (1, 2, 1)
    assert total_betti(torus) == 4


def test_connected_sum_betti():
    two_tori = ConnectedSum((Surface(1), Surface(1)))
    assert betti(two_tori).betti == betti(Surface(2)).betti
    three_spheres = ConnectedSum((Sphere(3), Sphere(3)))
    assert betti(three_spheres).betti == (1, 0, 0, 1)


def test_total_betti_of_rational_homology_sphere():
    qhs = Explicit(3, HomologyVector(3, (1, 0, 0, 1)), "qhs")
    assert total_betti(qhs) == 2


def test_dimension():
    assert dimension(Product(Sphere(1), Sphere(2))) == 3
    assert dimension(Surface(2)) == 2
    assert dimension(ConnectedSum((Sphere(4),))) == 4


def test_descriptor_constructor_errors():
    with pytest.raises(DescriptorError):
        Sphere(0)
    with pytest.raises(DescriptorError):
        Surface(-1)
    with pytest.raises(DescriptorError):
        ConnectedSum(())
    with pytest.raises(DescriptorError):
        ConnectedSum((Sphere(2), Sphere(3)))
    with pytest.raises(DescriptorError):
        ConnectedSum((Sphere(1), Sphere(1)))
    with pytest.raises(DescriptorError):
        # Klein-bottle Betti data is not palindromic, so it cannot be a summand.
        ConnectedSum((Explicit(2, HomologyVector(2, (1, 1, 0)), "klein"),))
    with pytest.raises(DescriptorError):
        Explicit(3, HomologyVector(2, (1, 0, 1)))
    with pytest.raises(DescriptorError):
        HomologyVector(2, (1, -1, 1))


@pytest.mark.parametrize("betti", [(2, 0, 2), (0, 0, 0)])
def test_connected_sum_refuses_a_summand_that_is_not_connected(betti):
    # Palindromic, so only b_0 tells it from a closed connected orientable surface.
    split = Explicit(2, HomologyVector(2, betti))
    message = f"connected-sum summands must be connected (b_0 is not 1 in {pretty(split)})"
    for parts in ((split, Surface(1)), (Surface(1), split), (split,)):
        with pytest.raises(DescriptorError, match=re.escape(message)):
            ConnectedSum(parts)


def test_normalize_orders_products_and_sums():
    a, b = Sphere(1), Surface(2)
    assert normalize(Product(b, a)) == normalize(Product(a, b))
    left = ConnectedSum((Surface(2), Surface(1)))
    right = ConnectedSum((Surface(1), Surface(2)))
    assert normalize(left) == normalize(right)


def test_normalize_collapses_trivial_shapes():
    assert normalize(Surface(0)) == Sphere(2)
    assert desc_equal(ConnectedSum((Surface(1), Sphere(2))), Surface(1))
    assert desc_equal(ConnectedSum((Sphere(3), Sphere(3))), Sphere(3))


def test_desc_equal_is_structural():
    # Same manifold, different spellings: not equal by design.
    assert not desc_equal(Product(Sphere(1), Sphere(1)), Surface(1))


def test_desc_equal_on_deep_nesting():
    point = Explicit(0, HomologyVector(0, (1,)), "pt")
    a = b = Sphere(2)
    for _ in range(900):
        a, b = Product(point, a), Product(b, point)
    assert desc_equal(a, b)
    assert not desc_equal(a, Product(point, b))


def point_chain(leaf, depth=3000):
    point = Explicit(0, HomologyVector(0, (1,)), "pt")
    for _ in range(depth):
        leaf = Product(point, leaf)
    return leaf


def test_descriptors_compare_past_the_c_comparison_depth():
    # CPython 3.11 compares nested key tuples to about 1,000 levels; deeper
    # keys are compared off an explicit stack, equal or not.
    a, b = point_chain(Sphere(2)), point_chain(Sphere(2))
    other = point_chain(Surface(1))  # the same dimension, unequal at the bottom
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != other and not a == other
    assert desc_equal(a, b) and not desc_equal(a, other)
    mirrored = Sphere(2)
    for _ in range(3000):
        mirrored = Product(mirrored, Explicit(0, HomologyVector(0, (1,)), "pt"))
    assert desc_equal(a, mirrored) and not desc_equal(other, mirrored)
    assert not desc_equal(a, point_chain(Sphere(2), depth=3001))


def test_normal_forms_order_parts_past_the_c_comparison_depth():
    # Ordering two 1,500-deep factors or summands compares their keys off an
    # explicit stack where C runs out of depth (3.10-3.12).
    a, b = point_chain(Sphere(2), depth=1500), point_chain(Sphere(2), depth=1500)
    assert desc_equal(Product(a, b), Product(b, a))
    both = Product(normalize(a), normalize(b))
    assert normalize(Product(a, b)) == normalize(Product(b, a)) == both
    assert normalize(ConnectedSum((a, b))) == ConnectedSum((normalize(a), normalize(b)))
    # Unequal only at the bottom: a sphere sorts before a surface either way round.
    low, high = normalize(a), normalize(point_chain(Surface(2), depth=1500))
    for x, y in ((a, high), (high, a)):
        assert normalize(Product(x, y)) == Product(low, high)
        assert normalize(ConnectedSum((x, y))) == ConnectedSum((low, high))
    assert not desc_equal(Product(a, high), Product(a, a))


def test_deep_key_order_matches_the_shallow_order():
    rng = random.Random(2106)
    keys = [random_descriptor(rng).key for _ in range(40)]

    def deep(key):
        for _ in range(1500):
            key = (2, (0, 1), key)
        return key

    for x, y in zip(keys, keys[1:] + keys[:1]):
        assert _less(deep(x), deep(y)) == (x < y) and _less(deep(y), deep(x)) == (y < x)
    assert not _less(deep(keys[0]), deep(keys[0]))
    assert _less(deep((1,)), deep((1, 0))) and not _less(deep((1, 0)), deep((1,)))


def test_normalize_keeps_a_normal_chain_as_it_is():
    # The parts of every node of this chain are already in normal order, so
    # normalize rebuilds no node and reruns no Kunneth product.
    chain = Sphere(1)
    for _ in range(900):
        chain = Product(Sphere(1), chain)
    assert normalize(chain) is chain
    assert desc_equal(chain, chain)
    flipped = normalize(Product(chain, Sphere(1)))
    assert isinstance(flipped, Product)
    assert flipped.left == Sphere(1) and flipped.right is chain


def test_deep_connected_sum_document_loads_without_recursion():
    doc = {"type": "sphere", "n": 2}
    for _ in range(3000):
        doc = {"type": "connected-sum", "parts": [doc]}
    desc = descriptor_from_json(doc)
    assert (desc.dim, total_betti(desc)) == (2, 2)
    depth, node = 0, descriptor_to_json(desc)
    while node["type"] == "connected-sum":
        depth, (node,) = depth + 1, node["parts"]
    assert (depth, node) == (3000, {"type": "sphere", "n": 2})


@pytest.mark.parametrize("doc, message", [
    ({"type": "product", "right": {"type": "sphere", "n": 1}}, "missing field 'left'"),
    ({"type": "product", "left": {"type": "sphere", "n": 0}}, "sphere dimension must be >= 1"),
    ({"type": "product", "left": {"type": "sphere", "n": 1}}, "missing field 'right'"),
    ({"type": "connected-sum", "parts": 3}, "malformed 'connected-sum' descriptor"),
    ({"type": "connected-sum", "parts": []}, "at least one summand"),
    ({"type": "connected-sum", "parts": [{"type": "sphere", "n": 2}, {"type": "sphere", "n": 3}]},
     "mixed dimensions"),
    ({"type": "connected-sum", "parts": [{"type": "sphere", "n": 2}, ["x"]]},
     "must be an object with a 'type' tag"),
    ({"type": "product", "left": {"type": "torus"}, "right": 1}, "unknown descriptor type 'torus'"),
    # Only a string naming a kind finds a class in the tag table.
    ({"type": None}, "unknown descriptor type None"),
    ({"type": ["sphere"]}, re.escape("unknown descriptor type ['sphere']")),
    ({"type": "tag"}, "unknown descriptor type 'tag'"),
])
def test_nested_document_errors_name_the_first_bad_part(doc, message):
    with pytest.raises(DescriptorError, match=message):
        descriptor_from_json(doc)


@pytest.mark.parametrize("doc, cause", [
    ({"type": "surface"}, KeyError),
    ({"type": "surface", "genus": 1.5}, TypeError),
    ({"type": "product", "right": {"type": "sphere", "n": 1}}, KeyError),
    ({"type": "connected-sum", "parts": 3}, TypeError),
    # A reader's own DescriptorError leaves unwrapped, with no cause.
    ({"type": "surface", "genus": 1, "orientable": False}, type(None)),
    ({"type": "product", "left": {"type": "sphere", "n": 0}}, type(None)),
])
def test_reader_errors_are_raised_from_their_cause(doc, cause):
    with pytest.raises(DescriptorError) as info:
        descriptor_from_json(doc)
    assert type(info.value.__cause__) is cause
    assert type(info.value.__context__) is cause


def test_pretty():
    assert pretty(Surface(1)) == "T^2"
    assert pretty(Surface(2)) == "Sigma_2"
    assert pretty(Product(Sphere(1), Sphere(2))) == "S^1 x S^2"
    assert pretty(ConnectedSum((Surface(1), Surface(1)))) == "T^2 # T^2"


def test_descriptor_json_round_trip():
    samples = [
        Sphere(4),
        Surface(2),
        Product(Sphere(1), Surface(3)),
        ConnectedSum((Surface(1), Surface(2))),
        Explicit(3, HomologyVector(3, (1, 0, 0, 1)), "qhs"),
    ]
    for desc in samples:
        assert descriptor_from_json(descriptor_to_json(desc)) == desc
    with pytest.raises(DescriptorError):
        descriptor_from_json({"type": "klein-bottle"})
    with pytest.raises(DescriptorError):
        descriptor_from_json({"no": "tag"})
    with pytest.raises(DescriptorError):
        descriptor_from_json({"type": "sphere", "n": "two"})
    with pytest.raises(DescriptorError):
        descriptor_from_json({"type": "connected-sum", "parts": "oops"})


def test_kunneth_commutes_on_random_pairs():
    rng = random.Random(8101)
    for _ in range(60):
        a = random_descriptor(rng)
        b = random_descriptor(rng)
        assert betti(Product(a, b)) == betti(Product(b, a))


def test_orientable_descriptors_are_palindromic():
    rng = random.Random(8102)
    for _ in range(60):
        assert betti(random_descriptor(rng)).palindromic


def test_connected_sum_with_sphere_is_identity():
    rng = random.Random(8103)
    for _ in range(60):
        desc = random_descriptor(rng)
        n = dimension(desc)
        if n < 2:
            continue
        assert betti(ConnectedSum((desc, Sphere(n)))) == betti(desc)


# --- explicit cell structures ----------------------------------------------
#
# Hand-checked ranks are noted next to each fixture; for example the two-disc
# sphere has rank(d1) = 2 and rank(d2) = 1, giving (3, 3, 2) cells -> (1, 0, 1).

CIRCLE_D1 = (
    (-1, 0, -1),
    (1, -1, 0),
    (0, 1, 1),
)

TWO_DISC_SPHERE_D2 = (
    (1, -1),
    (1, -1),
    (-1, 1),
)

TETRA_D1 = (
    (-1, -1, -1, 0, 0, 0),
    (1, 0, 0, -1, -1, 0),
    (0, 1, 0, 1, 0, -1),
    (0, 0, 1, 0, 1, 1),
)

TETRA_D2 = (
    (1, 1, 0, 0),
    (-1, 0, 1, 0),
    (0, -1, -1, 0),
    (1, 0, 0, 1),
    (0, 1, 0, -1),
    (0, 0, 1, 1),
)


def _zeros(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def circle_complex():
    return RationalChainComplex(1, (3, 3), (CIRCLE_D1,))


def two_disc_sphere_complex():
    return RationalChainComplex(2, (3, 3, 2), (CIRCLE_D1, TWO_DISC_SPHERE_D2))


def tetrahedron_complex():
    return RationalChainComplex(2, (4, 6, 4), (TETRA_D1, TETRA_D2))


def one_vertex_surface_complex(genus):
    return RationalChainComplex(
        2, (1, 2 * genus, 1), (_zeros(1, 2 * genus), _zeros(2 * genus, 1))
    )


def circle_times_sphere_complex():
    return RationalChainComplex(
        3, (1, 1, 1, 1), (_zeros(1, 1), _zeros(1, 1), _zeros(1, 1))
    )


FIXTURES = [
    (circle_complex, Sphere(1)),
    (two_disc_sphere_complex, Sphere(2)),
    (tetrahedron_complex, Sphere(2)),
    (lambda: one_vertex_surface_complex(1), Surface(1)),
    (lambda: one_vertex_surface_complex(2), Surface(2)),
    (lambda: one_vertex_surface_complex(3), Surface(3)),
    (circle_times_sphere_complex, Product(Sphere(1), Sphere(2))),
]


@pytest.mark.parametrize("make_complex,symbolic", FIXTURES)
def test_chain_betti_matches_symbolic(make_complex, symbolic):
    assert chain_betti(make_complex()) == betti(symbolic)


def test_chain_betti_frozen_values():
    assert chain_betti(circle_complex()).betti == (1, 1)
    assert chain_betti(two_disc_sphere_complex()).betti == (1, 0, 1)
    assert chain_betti(circle_times_sphere_complex()).betti == (1, 1, 1, 1)


def test_product_cross_check_against_cells():
    # Kunneth result for the product equals the cell computation for the same space.
    assert betti(Product(Sphere(1), Sphere(2))).betti == (1, 1, 1, 1)
    assert chain_betti(circle_times_sphere_complex()).betti == (1, 1, 1, 1)


def test_malformed_complex_rejected():
    with pytest.raises(DescriptorError):
        RationalChainComplex(2, (1, 1, 1), (((1,),), ((1,),)))
    with pytest.raises(DescriptorError):
        RationalChainComplex(1, (2, 2), (((1, 0),),))  # wrong shape


@pytest.mark.parametrize("bad", [2.7, True, "2"])
def test_homology_vector_refuses_non_integers(bad):
    with pytest.raises(TypeError, match="'betti' must be an integer"):
        HomologyVector(2, (1, bad, 1))
    with pytest.raises(TypeError, match="'dim' must be an integer"):
        HomologyVector(bad, (1, 0, 1))


@pytest.mark.parametrize("bad", [2.5, True, "2"])
def test_chain_complex_refuses_non_integers(bad):
    with pytest.raises(TypeError, match="'cells' must be an integer"):
        RationalChainComplex(0, (bad,), ())
    with pytest.raises(TypeError, match="'dim' must be an integer"):
        RationalChainComplex(bad, (1,), ())


@pytest.mark.parametrize(
    "bad, betti", [(2.0, (1, 0, 1)), (True, (1, 1)), ("2", (1, 0, 1))], ids=["float", "bool", "str"]
)
def test_explicit_refuses_a_non_integer_dim(bad, betti):
    # 2.0 and True equal the Betti data's dimension, but a trace holding
    # them could not be written.
    with pytest.raises(TypeError, match="'dim' must be an integer"):
        Explicit(bad, HomologyVector(len(betti) - 1, betti))


@pytest.mark.parametrize("bad", [5, None, b"T"])
def test_explicit_refuses_a_non_string_label(bad):
    # A label of 5 would make ``pretty`` an int and a trace that cannot be read back.
    with pytest.raises(TypeError, match=re.escape(f"'label' must be a string, got {bad!r}")):
        Explicit(2, HomologyVector(2, (1, 0, 1)), bad)


@pytest.mark.parametrize("bad", [2.5, True, "3"])
def test_sphere_refuses_non_integers(bad):
    with pytest.raises(TypeError, match="'n' must be an integer"):
        Sphere(bad)


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_surface_refuses_non_integers(bad):
    with pytest.raises(TypeError, match="'genus' must be an integer"):
        Surface(bad)
