import random
import re
import tracemalloc

import pytest

from handlenu.homology import (
    Explicit,
    HomologyVector,
    Product,
    Sphere,
    Surface,
    descriptor_to_json,
    normalize,
)
from handlenu.catalog import (
    circle_times_genus_two_half_trace,
    genus_one_trace,
    solid_torus_trace,
    sphere_trace,
)
import handlenu.trace as trace_mod
from handlenu.trace import (
    AttachError,
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Two,
    Dim3Zero,
    HandleRecord,
    NonSeparating,
    OrderedHandleDecomposition,
    ReplayError,
    Separating,
    TraceError,
    ValidationReport,
    canonical_dumps,
    dualize,
    final_boundary,
    id_sort_key,
    map_anchors,
    rename_anchor,
    replay,
    trace_from_json,
    trace_to_json,
    validate,
    walk,
)
from gen import (
    descriptors,
    multi_part_trace,
    random_composable_pair,
    random_trace,
    reorder,
    states,
)
from ideal_count import anchors_of


def attach_one(base, attachment, index, m=3):
    """The free boundary after one handle over ``base``, through replay."""
    d = OrderedHandleDecomposition(m, tuple(base), (HandleRecord(index, attachment),))
    return states(d)[-1]


def ids(state):
    return tuple(comp_id for comp_id, _ in state)


def desc_multiset(state):
    return tuple(sorted(descriptors(state), key=lambda desc: normalize(desc).key))


def test_attach_one_same_component_adds_genus():
    out = attach_one([Sphere(2)], Dim3One("base:0", "base:0"), 1)
    assert descriptors(out) == (Surface(1),)
    assert out[0][0] == "h:1"


def test_attach_nonseparating_drops_genus():
    out = attach_one([Surface(1)], Dim3Two("base:0", NonSeparating()), 2)
    assert descriptors(out) == (Sphere(2),)


def test_attach_separating_splits_genus():
    out = attach_one([Surface(3)], Dim3Two("base:0", Separating(1, 2)), 2)
    assert descriptors(out) == (Surface(1), Surface(2))
    assert ids(out) == ("h:1/0", "h:1/1")


def test_attach_declared_replaces_everything():
    qhs = Explicit(2, HomologyVector(2, (1, 0, 1)), "declared piece")
    out = attach_one([Sphere(2)], Declared((qhs,)), 2)
    assert descriptors(out) == (qhs,)
    assert ids(out) == ("h:1/0",)


def test_attach_is_local():
    out = attach_one([Sphere(2), Surface(2)], Dim3One("base:0", "base:0"), 1)
    assert dict(out).get("base:1") == Surface(2)


def test_attach_errors():
    with pytest.raises(TraceError):
        attach_one([Sphere(2)], Dim3One("base:7", "base:7"), 1)
    with pytest.raises(TraceError):
        attach_one([Surface(1)], Dim3Three("base:0"), 3)
    with pytest.raises(TraceError):
        attach_one([Sphere(2)], Dim3Two("base:0", NonSeparating()), 2)
    with pytest.raises(TraceError):
        attach_one([Surface(2)], Dim3Two("base:0", Separating(1, 2)), 2)
    with pytest.raises(TraceError):
        attach_one([Sphere(3)], Dim3Zero(), 0, m=4)


def test_unknown_attachment_is_refused_before_a_walk_and_m_4_during_one():
    with pytest.raises(TraceError, match=r"^unknown attachment 'zero'$"):
        OrderedHandleDecomposition(3, (), (HandleRecord(0, "zero"),))
    # validate flags the dimension before its walk; the walk itself refuses it too.
    d = OrderedHandleDecomposition(4, (Sphere(3),), (
        HandleRecord(0, Declared((Sphere(3),))), HandleRecord(0, Dim3Zero()),
    ))
    with pytest.raises(ReplayError, match=(
        r"^prefix 2: surface-calculus attachments need ambient dimension 3, trace has m=4$"
    )) as info:
        list(walk(d))
    assert type(info.value.__cause__) is AttachError


class _Zero(Dim3Zero):
    __slots__ = ()


@pytest.mark.parametrize(
    "att", ["zero", NonSeparating(), _Zero()], ids=["str", "curve", "kind-subclass"]
)
def test_handle_record_refuses_an_attachment_of_no_known_kind(att):
    with pytest.raises(TraceError, match=rf"^unknown attachment {re.escape(repr(att))}$"):
        HandleRecord(0, att)


def test_validate_reports_and_never_raises_on_seeded_traces():
    rng = random.Random(2104)
    for _ in range(60):
        d = random_trace(rng, declared=0.2)
        dm, dn, _ = random_composable_pair(rng, declared=0.2)
        for t in (d, d.replace(m=4), dm, dn, multi_part_trace(rng, declared=0.2)):
            assert isinstance(validate(t), ValidationReport)


def test_the_walk_makes_ids_in_id_order():
    # Readers of a walk's dicts take them as id order: dualize (a Declared dual's
    # components and the dual base), compose's remainder, the compute table.
    rng = random.Random(2105)
    for _ in range(100):
        for _, made, live in walk(random_trace(rng, declared=0.3)):
            assert list(made) == sorted(made, key=id_sort_key)
            assert list(live) == sorted(live, key=id_sort_key)


def test_walk_shares_surfaces_that_behave_as_fresh_ones():
    d = OrderedHandleDecomposition(3, (), (
        HandleRecord(0, Dim3Zero()),
        HandleRecord(0, Dim3Zero()),
        HandleRecord(1, Dim3One("h:1", "h:1")),
        HandleRecord(1, Dim3One("h:3", "h:2")),
        HandleRecord(1, Dim3One("h:4", "h:4")),
        HandleRecord(2, Dim3Two("h:5", Separating(1, 1))),
        HandleRecord(2, Dim3Two("h:6/0", NonSeparating())),
    ))
    made = [desc for _, made, _ in walk(d) for desc in made.values()]
    assert made[0] is made[1] is made[-1] and made[2] is made[3] is made[5] is made[6]
    for desc in made:
        fresh = Surface(desc.genus) if isinstance(desc, Surface) else Sphere(desc.n)
        assert desc == fresh and hash(desc) == hash(fresh) and desc.key == fresh.key
        assert repr(desc) == repr(fresh)
        assert descriptor_to_json(desc) == descriptor_to_json(fresh)
        name = desc._fields[0]
        with pytest.raises(AttributeError):
            setattr(desc, name, 7)
        with pytest.raises(AttributeError):
            desc.total = 0
    assert final_boundary(d) == {"h:6/1": Surface(1), "h:7": Sphere(2)}
    assert [desc.total for desc in made] == [2, 2, 4, 4, 6, 4, 4, 2]


def test_the_shared_surfaces_stay_bounded_in_number():
    # Genera 1..5000 on one component, each reached once.
    handles = [HandleRecord(1, Dim3One("base:0", "base:0"))]
    handles += [HandleRecord(1, Dim3One(f"h:{j}", f"h:{j}")) for j in range(1, 5000)]
    d = OrderedHandleDecomposition(3, (Sphere(2),), tuple(handles))
    assert final_boundary(d) == {"h:5000": Surface(5000)}
    info = trace_mod._surface.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 5000


def test_replay_two_handle_sphere():
    assert [descriptors(s) for s in states(sphere_trace(3))] == [(), (Sphere(2),), ()]


def test_replay_genus_one_pattern():
    # Hand-run surface calculus: empty, sphere, torus, sphere, empty.
    assert [descriptors(s) for s in states(genus_one_trace())] == [
        (), (Sphere(2),), (Surface(1),), (Sphere(2),), ()
    ]


def test_replay_six_handle_half():
    assert [descriptors(s) for s in states(circle_times_genus_two_half_trace())] == [
        (),
        (Sphere(2),),
        (Surface(1),),
        (Surface(2),),
        (Surface(3),),
        (Surface(2),),
        (Surface(1),),
    ]


def test_replay_base_at_mu_zero():
    collar = OrderedHandleDecomposition(3, (Surface(1),), ())
    prefixes = states(collar)
    assert len(prefixes) == 1 and descriptors(prefixes[0]) == (Surface(1),)


def test_replay_keeps_each_prefix_by_id():
    prefixes = replay(genus_one_trace())
    assert [list(live) for live in prefixes] == [[], ["h:1"], ["h:2"], ["h:3"], []]
    assert len({id(live) for live in prefixes}) == len(prefixes)
    assert prefixes[2]["h:2"] == Surface(1)


def test_replay_error_carries_prefix():
    bad = OrderedHandleDecomposition(
        3, (), (HandleRecord(0, Dim3Zero()), HandleRecord(3, Dim3Three("h:9")))
    )
    with pytest.raises(ReplayError) as excinfo:
        replay(bad)
    assert excinfo.value.mu == 2


def test_two_anchor_one_handle_resolves_both_anchors_before_reading_a_genus():
    # base:0 is not an orientable surface, but the dangling anchor is reported first.
    torus = Product(Sphere(1), Sphere(1))
    bad = OrderedHandleDecomposition(3, (torus,), (HandleRecord(1, Dim3One("base:0", "h:9")),))
    with pytest.raises(ReplayError) as excinfo:
        replay(bad)
    assert str(excinfo.value) == "prefix 1: dangling anchor 'h:9'; live components: ['base:0']"


def test_replay_is_orientable_surfaces_only():
    rng = random.Random(8104)
    for _ in range(50):
        d = random_trace(rng)
        for state in states(d):
            for _, desc in state:
                assert isinstance(desc, (Sphere, Surface))


def test_dualize_genus_one_pattern():
    d = genus_one_trace()
    dual = dualize(d)
    assert dual.base == ()
    assert [h.index for h in dual.handles] == [0, 1, 2, 3]
    forward = [descriptors(s) for s in states(d)]
    backward = [descriptors(s) for s in states(dual)]
    assert backward == forward[::-1]


def test_dualize_solid_torus_matches_collar_presentation():
    dual = dualize(solid_torus_trace())
    assert dual.base == (Surface(1),)
    assert [h.index for h in dual.handles] == [2, 3]
    assert [descriptors(s) for s in states(dual)] == [(Surface(1),), (Sphere(2),), ()]


def test_dualize_involution_on_states():
    rng = random.Random(8105)
    samples = [genus_one_trace(), circle_times_genus_two_half_trace()]
    samples += [random_trace(rng) for _ in range(20)]
    for d in samples:
        twice = dualize(dualize(d))
        assert [desc_multiset(s) for s in states(twice)] == [
            desc_multiset(s) for s in states(d)
        ]


def test_dualize_memory_stays_linear_in_the_handles():
    # Each dual handle reads only what its original consumed; copying the
    # free boundary at every prefix peaked at about 56 MB on CPython 3.11.
    d = OrderedHandleDecomposition(3, (), tuple(HandleRecord(0, Dim3Zero()) for _ in range(2000)))
    tracemalloc.start()
    try:
        dual = dualize(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert dual.base == (Sphere(2),) * 2000
    assert dual.handles[0].attachment == Dim3Three("base:1999")
    assert dual.handles[-1].attachment == Dim3Three("base:0")


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_separating_refuses_non_integers(bad):
    with pytest.raises(TypeError, match="'g1' must be an integer"):
        Separating(bad, 0)
    with pytest.raises(TypeError, match="'g2' must be an integer"):
        Separating(0, bad)
    # Both genera are read as integers before either sign is checked.
    with pytest.raises(TypeError, match="'g2' must be an integer"):
        Separating(-1, bad)


def test_dualize_declared_trace():
    d = sphere_trace(5)
    dual = dualize(d)
    assert [h.index for h in dual.handles] == [0, 5]
    assert [descriptors(s) for s in states(dual)] == [(), (Sphere(4),), ()]


def test_reorder_remaps_anchors():
    d = OrderedHandleDecomposition(
        3,
        (),
        (
            HandleRecord(0, Dim3Zero()),
            HandleRecord(0, Dim3Zero()),
            HandleRecord(3, Dim3Three("h:1")),
            HandleRecord(3, Dim3Three("h:2")),
        ),
    )
    swapped = reorder(d, (2, 1, 4, 3))
    assert isinstance(swapped.handles[2].attachment, Dim3Three)
    # Original h:2 moved to position 1, so the cap that chased it anchors h:1 now.
    assert swapped.handles[2].attachment.anchor == "h:1"
    assert swapped.handles[3].attachment.anchor == "h:2"
    assert [descriptors(s) for s in states(swapped)] == [
        descriptors(s) for s in states(d)
    ]
    with pytest.raises(TraceError):
        reorder(d, (1, 1, 2, 3))


def test_rename_anchor_keeps_the_suffix():
    relabel = {"h:2": "h:5", "base:0": "h:1"}
    assert rename_anchor("h:2", relabel) == "h:5"
    assert rename_anchor("h:2/1", relabel) == "h:5/1"
    assert rename_anchor("base:0", relabel) == "h:1"
    assert rename_anchor("h:20", relabel) is None
    assert rename_anchor("h:3/0", relabel) is None


def test_reorder_round_trips_on_seeded_traces():
    rng = random.Random(9401)
    suffixed = 0
    for _ in range(300):
        d = random_trace(rng, max_handles=7, declared=0.2)
        order = list(range(1, d.delta + 1))
        rng.shuffle(order)
        inverse = [0] * d.delta
        for new, orig in enumerate(order, start=1):
            inverse[orig - 1] = new
        assert reorder(reorder(d, order), inverse) == d
        suffixed += any("/" in a for h in d.handles for a in anchors_of(h))
    # The stream exercises anchors into split and declared components.
    assert suffixed >= 20


def test_validate_clean_traces():
    for d in (genus_one_trace(), solid_torus_trace(), sphere_trace(4)):
        report = validate(d)
        assert report.ok and not report.warnings


def test_validate_flags_bad_cap():
    d = OrderedHandleDecomposition(
        3,
        (),
        (
            HandleRecord(0, Dim3Zero()),
            HandleRecord(1, Dim3One("h:1", "h:1")),
            HandleRecord(3, Dim3Three("h:2")),
        ),
    )
    report = validate(d)
    assert not report.ok
    assert any(v.mu == 3 for v in report.violations)


def test_validate_flags_disconnected_declared():
    two_pieces = Explicit(2, HomologyVector(2, (2, 0, 2)), "two spheres")
    d = OrderedHandleDecomposition(3, (), (HandleRecord(0, Declared((two_pieces,))),))
    report = validate(d)
    assert any("connected" in v.message for v in report.violations)


def test_validate_flags_index_mismatch():
    d = OrderedHandleDecomposition(3, (), (HandleRecord(1, Dim3Zero()),))
    report = validate(d)
    assert any("index" in v.message for v in report.violations)


@pytest.mark.parametrize("bad", [3.0, True, "3"])
def test_decomposition_refuses_a_non_integer_dimension(bad):
    with pytest.raises(TypeError, match="'m' must be an integer"):
        OrderedHandleDecomposition(bad, (), (HandleRecord(0, Dim3Zero()),))


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_handle_record_refuses_a_non_integer_index(bad):
    # The solid torus's 1-handle with its index swapped out.
    first = solid_torus_trace().handles[0]
    with pytest.raises(TypeError, match=re.escape(f"'index' must be an integer, got {bad!r}")):
        HandleRecord(bad, first.attachment)


@pytest.mark.parametrize("make, field", [
    (lambda bad: Dim3One(bad, "h:1"), "a"),
    (lambda bad: Dim3One("h:1", bad), "b"),
    (lambda bad: Dim3Two(bad, NonSeparating()), "anchor"),
    (lambda bad: Dim3Three(bad), "anchor"),
], ids=["one-a", "one-b", "two", "three"])
def test_attachments_refuse_a_non_string_anchor(make, field):
    with pytest.raises(TypeError, match=f"'{field}' must be a string, got 1"):
        make(1)


@pytest.mark.parametrize("att", [
    Dim3One("h:1", "h:2"), Dim3Two("h:1", NonSeparating()), Dim3Three("h:1"),
], ids=repr)
def test_map_anchors_refuses_a_non_string_renaming(att):
    with pytest.raises(TypeError, match="must be a string, got 7"):
        map_anchors(att, lambda anchor: 7)


def test_validate_flags_wrong_dimension_base():
    d = OrderedHandleDecomposition(4, (Surface(1),), ())
    report = validate(d)
    assert any("dimension" in v.message for v in report.violations)


def test_validate_euler_warning_on_closed_declared_trace():
    d = OrderedHandleDecomposition(
        3,
        (),
        (
            HandleRecord(0, Declared((Sphere(2),))),
            HandleRecord(0, Declared(())),
        ),
    )
    report = validate(d)
    assert report.ok
    assert any("alternating sum" in w for w in report.warnings)


def test_trace_json_round_trip_structural():
    rng = random.Random(8106)
    samples = [genus_one_trace(), sphere_trace(4), circle_times_genus_two_half_trace()]
    samples += [random_trace(rng) for _ in range(20)]
    for d in samples:
        assert trace_from_json(trace_to_json(d)) == d


def test_trace_json_round_trip_bit_exact():
    d = circle_times_genus_two_half_trace()
    text = canonical_dumps(trace_to_json(d))
    import json

    again = canonical_dumps(trace_to_json(trace_from_json(json.loads(text))))
    assert again == text


def test_trace_json_errors():
    with pytest.raises(TraceError):
        trace_from_json({"m": 3, "handles": []})
    with pytest.raises(TraceError):
        trace_from_json({"m": 3, "base": [], "handles": [{"index": 0}]})
    with pytest.raises(TraceError):
        trace_from_json(
            {"m": 3, "base": [], "handles": [{"index": 0, "attachment": {"type": "spin"}}]}
        )
    with pytest.raises(TraceError):
        trace_from_json({"m": 3, "base": [], "handles": "oops"})
    with pytest.raises(TraceError):
        trace_from_json({"m": "three", "base": [], "handles": []})
    with pytest.raises(TraceError):
        trace_from_json(["not", "an", "object"])
    # A tag that is not a string is unknown; a 2-handle reads its curve first.
    for attachment, message in [
        ({"type": ["zero"]}, "unknown attachment type ['zero']"),
        ({"type": 0}, "unknown attachment type 0"),
        ({"type": "two", "curve": {"kind": "x"}}, "unknown curve kind 'x'"),
    ]:
        handle = {"index": 0, "attachment": attachment}
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            trace_from_json({"m": 3, "base": [], "handles": [handle]})
