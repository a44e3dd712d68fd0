"""``canonical_dumps`` against its oracle, ``json.dumps(indent=2, sort_keys=True)``.

The writer promises the oracle's exact bytes for every value built from
dicts with string keys, lists, tuples, strings, ints, bools, ``None`` and
traces, and a ``TypeError`` for anything else, at any nesting depth.  A
trace is written from its attachment classes' text templates; the oracle
first replaces it by :func:`oracle_trace_to_json`, the dict builder that
wrote trace documents before the templates, kept here for the comparison.
"""

from __future__ import annotations

from contextlib import contextmanager, redirect_stdout
import gc
import io
import json
import random
import sys

from hypothesis import given, settings, strategies as st
import pytest

from handlenu.catalog import lookup, solid_torus_trace
from handlenu.cli import EXIT_OK, main
from handlenu.homology import (
    ConnectedSum,
    Explicit,
    HomologyVector,
    Sphere,
    Surface,
    descriptor_to_json,
)
import handlenu.trace as trace_mod
from handlenu.trace import (
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Two,
    Dim3Zero,
    HandleRecord,
    NonSeparating,
    OrderedHandleDecomposition,
    Separating,
    canonical_dumps,
    dualize,
    trace_from_json,
    trace_to_json,
)
from gen import multi_part_trace, random_composable_pair, random_descriptor, random_trace


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def oracle_attachment_to_json(att) -> dict:
    if isinstance(att, Dim3Zero):
        return {"type": "zero"}
    if isinstance(att, Dim3One):
        return {"type": "one", "a": att.a, "b": att.b}
    if isinstance(att, Dim3Two):
        if isinstance(att.curve, NonSeparating):
            curve = {"kind": "nonseparating"}
        else:
            curve = {"kind": "separating", "g1": att.curve.g1, "g2": att.curve.g2}
        return {"type": "two", "anchor": att.anchor, "curve": curve}
    if isinstance(att, Dim3Three):
        return {"type": "three", "anchor": att.anchor}
    return {"type": "declared", "components": [descriptor_to_json(c) for c in att.components]}


def oracle_trace_to_json(d: OrderedHandleDecomposition) -> dict:
    return {
        "m": d.m,
        "base": [descriptor_to_json(desc) for desc in d.base],
        "handles": [
            {"index": h.index, "attachment": oracle_attachment_to_json(h.attachment)}
            for h in d.handles
        ],
    }


def with_trace_documents(obj):
    """``obj`` with every trace in it replaced by its oracle document."""
    if type(obj) is OrderedHandleDecomposition:
        return oracle_trace_to_json(obj)
    if isinstance(obj, dict):
        return {key: with_trace_documents(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(with_trace_documents(value) for value in obj)
    return obj


def assert_written_as_oracle(obj):
    assert canonical_dumps(obj) == oracle(with_trace_documents(obj))


@contextmanager
def no_digit_limit():
    """Lift the interpreter's integer-to-string digit limit (3.10.7 on)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# Quotes, backslashes, control characters, the Unicode line separators,
# non-ASCII text, an astral character and a lone surrogate.
AWKWARD = ['"', "\\", "\x00", "\x1f\x7f", "\b\f\n\r\t", "\u2028\u2029", "é", "Ω✓", "\U0001f600",
           "\ud800", ""]

text = st.text() | st.sampled_from(AWKWARD)
# Ints past 4,300 digits, the default limit of int-to-str conversion.
huge = st.integers(min_value=-3, max_value=3).map(lambda k: k * 10**4400 + 1)
scalars = st.none() | st.booleans() | st.integers() | huge | text
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(text, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(tree=trees)
def test_matches_oracle_on_json_like_trees(tree):
    with no_digit_limit():
        assert canonical_dumps(tree) == oracle(tree)


@pytest.mark.parametrize("obj", [
    0, -1, 10**20, True, False, None, "", "x", "é\n",
    [], {}, (), [[]], {"": {}}, ((), []), [(1, (2,)), {"t": ()}],
    [True, 1, False, 0], {"a": True, "b": 1, "c": False, "d": 0, "e": None},
    {"b": [1, {"z": [], "a": "s"}], "a": {"k": ()}},
], ids=repr)
def test_matches_oracle_on_edge_values(obj):
    assert canonical_dumps(obj) == oracle(obj)


def test_ints_beyond_the_digit_limit():
    doc = {"enumerated": 7**6000, "nested": [-(10**4400), (10**4301,)]}
    with no_digit_limit():
        assert canonical_dumps(doc) == oracle(doc)


def test_ints_beyond_the_digit_limit_are_refused_under_the_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no integer-to-string digit limit on this interpreter")
    with pytest.raises(ValueError):
        canonical_dumps({"n": 10**5000})


def test_ints_past_10000_digits_are_written_as_int_writes_them():
    # Above trace._BIG the writer splits in binary and joins in decimal.
    rng = random.Random(2901)
    big = trace_mod._BIG
    near = [big + k for k in (-2, -1, 0, 1)] + [big + rng.randrange(-(10**40), 10**40)
                                                for _ in range(20)]
    wide = [rng.randrange(10 ** (digits - 1), 10**digits)
            for digits in (9999, 10001, 10002, 12345, 30000, 100000)]
    exact = [big, 2 ** (4 * 128 * 512), 2 ** (4 * 128 * 512) - 1, 10**100000]
    values = near + wide + exact
    doc = {"ints": values, "negative": [-v for v in values], "count": Count(big + 7)}
    with no_digit_limit():
        assert canonical_dumps(doc) == oracle(doc)
        for v in values:
            if v >= big:
                assert trace_mod._long_text(v) == int.__repr__(v)


def test_ints_past_10000_digits_are_refused_under_the_limit_as_int_refuses_them():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no integer-to-string digit limit on this interpreter")
    with pytest.raises(ValueError) as want:
        int.__repr__(trace_mod._BIG)
    with pytest.raises(ValueError) as got:
        canonical_dumps({"n": trace_mod._BIG})
    assert str(got.value) == str(want.value)


class Label(str):
    pass


class Count(int):
    pass


def test_subclasses_of_str_and_int_render_as_json_does():
    doc = {"a": [Label("x"), Count(3)], Label("k"): Count(-2)}
    assert canonical_dumps(doc) == oracle(doc)


@pytest.mark.parametrize("obj", [
    1.5, [1.0], {"a": float("nan")}, {1: "int key"}, {None: 0}, {"a": 1, 2: "b"},
    {1, 2}, [b"bytes"], pytest.param([object()], id="[object()]"), {"a": frozenset()},
    # Records other than a whole trace.
    HandleRecord(1, Dim3One("h:1", "h:1")), {"a": [Surface(2)]}, Dim3One("a", "b"),
], ids=repr)  # a bare object's repr holds its address, so that case gets a fixed id
def test_other_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        canonical_dumps(obj)


# --- traces ----------------------------------------------------------------


def seeded_traces(seed: int):
    rng = random.Random(seed)
    yield random_trace(rng, max_handles=12, declared=0.3)
    yield multi_part_trace(rng, groups=3, declared=0.5)
    first, second, _ = random_composable_pair(rng, declared=0.3)
    yield first
    yield second
    yield dualize(first)


def test_seeded_traces_are_written_as_the_oracle_writes_them():
    kinds = set()
    for seed in range(150):
        for d in seeded_traces(seed):
            kinds.update(type(h.attachment) for h in d.handles)
            assert_written_as_oracle(d)
            assert trace_to_json(d) == oracle_trace_to_json(d)
    assert kinds == {Dim3Zero, Dim3One, Dim3Two, Dim3Three, Declared}


def test_catalog_traces_are_written_as_the_oracle_writes_them():
    for name in ("lens", "solid-torus", "s1xsigma2"):
        for _, d in lookup(name).traces:
            assert_written_as_oracle(d)


# Ids with quotes, spaces, control and non-ASCII characters, an astral
# character and a lone surrogate.
ids = st.text(min_size=0, max_size=6) | st.sampled_from(AWKWARD + ["h:1", "base:0", "a b"])
genera = st.integers(min_value=0, max_value=5) | st.integers(min_value=0)
labelled = st.builds(
    lambda label, genus: Explicit(2, HomologyVector(2, (1, 2 * genus, 1)), label), text, genera
)
descriptors = (
    st.integers(0, 2**32).map(lambda seed: random_descriptor(random.Random(seed), depth=3))
    | labelled
)
curves = st.just(NonSeparating()) | st.builds(Separating, genera, genera)
attachments = (
    st.just(Dim3Zero())
    | st.builds(Dim3One, ids, ids)
    | st.builds(Dim3Two, ids, curves)
    | st.builds(Dim3Three, ids)
    | st.builds(lambda parts: Declared(tuple(parts)), st.lists(descriptors, max_size=3))
)
# An index is an int (HandleRecord refuses others), though maybe out of range.
indexes = st.integers(-1, 4) | huge
traces = st.builds(
    OrderedHandleDecomposition,
    st.integers(1, 5),
    st.lists(descriptors, max_size=3).map(tuple),
    st.lists(st.builds(HandleRecord, indexes, attachments), max_size=8).map(tuple),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(d=traces)
def test_matches_oracle_on_awkward_traces(d):
    with no_digit_limit():
        assert_written_as_oracle(d)


def test_separating_genera_beyond_the_digit_limit():
    g = 7**6000
    d = OrderedHandleDecomposition(3, (Surface(g),), (
        HandleRecord(2, Dim3Two("base:0", Separating(g - 1, 1))),
        HandleRecord(2, Dim3Two("h:1/0", Separating(0, g - 1))),
    ))
    with no_digit_limit():
        assert_written_as_oracle(d)
        assert trace_to_json(d) == oracle_trace_to_json(d)
    if hasattr(sys, "get_int_max_str_digits"):
        with pytest.raises(ValueError):
            trace_to_json(d)


def test_empty_traces_and_declarations():
    for d in (
        OrderedHandleDecomposition(3, (), ()),
        OrderedHandleDecomposition(2, (Sphere(1),), ()),
        OrderedHandleDecomposition(3, (), (HandleRecord(0, Declared(())),)),
    ):
        assert_written_as_oracle(d)
    assert canonical_dumps(OrderedHandleDecomposition(3, (), ())) == (
        '{\n  "base": [],\n  "handles": [],\n  "m": 3\n}\n'
    )


def test_descriptors_nested_past_the_recursion_limit():
    # The pure-Python encoder stops there (see below), so the oracle is the
    # generic writer on the oracle's document, which that test checks at depth.
    deep = Surface(1)
    for _ in range(sys.getrecursionlimit() + 100):
        deep = ConnectedSum((deep,))
    d = OrderedHandleDecomposition(3, (deep,), (HandleRecord(1, Declared((Surface(2), deep))),))
    assert canonical_dumps(d) == canonical_dumps(oracle_trace_to_json(d))
    assert canonical_dumps([{"k": d}]) == canonical_dumps([{"k": oracle_trace_to_json(d)}])


def test_traces_nested_in_lists_tuples_and_dicts():
    d = next(seeded_traces(7))
    e = OrderedHandleDecomposition(3, (), ())
    deep = inner = {}
    for _ in range(30):
        inner["k"] = [{}]
        inner = inner["k"][0]
    inner["t"] = d
    for obj in (
        [d], (d, e), {"t": d}, {"a": [e, {"b": (d,)}], "c": d, "z": [[[[d]]]]},
        [1, {"x": [d, (), {}]}, "s", None], deep,
    ):
        assert_written_as_oracle(obj)


def pure_python_oracle(obj) -> str:
    """The oracle through json's pure-Python encoder, which 3.10-3.12 use for
    ``indent``; 3.13 uses its C encoder, which nests much deeper."""
    saved = json.encoder.c_make_encoder
    json.encoder.c_make_encoder = None
    try:
        return oracle(obj)
    finally:
        json.encoder.c_make_encoder = saved


def chain(depth: int) -> tuple[object, str]:
    """A ``depth``-deep chain of one-item dicts and lists around 0, and its
    text, built without recursion."""
    doc, opens, closes = 0, [], []
    for level in range(depth):
        inner = "\n" + "  " * (level + 1)
        opens.append(("{" + inner + '"k": ') if level % 2 == 0 else ("[" + inner))
        closes.append(inner[:-2] + ("}" if level % 2 == 0 else "]"))
    for level in reversed(range(depth)):
        doc = {"k": doc} if level % 2 == 0 else [doc]
    return doc, "".join(opens) + "0" + "".join(reversed(closes)) + "\n"


def test_writes_as_deep_as_the_pure_python_encoder():
    # The pure-Python encoder takes a frame per nested container, so it stops
    # near the recursion limit; the writer keeps its open containers on a
    # list and goes on.  A failed oracle call takes most of a second.
    doc, text = chain(40)
    assert text == pure_python_oracle(doc) == canonical_dumps(doc)
    doc, text = chain(sys.getrecursionlimit() + 100)
    with pytest.raises(RecursionError):
        pure_python_oracle(doc)
    assert canonical_dumps(doc) == text


def run_json(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return json.loads(out.getvalue())


def compose_report(tmp_path) -> tuple[dict, OrderedHandleDecomposition]:
    """The ``compose --check --json`` report gluing the solid torus to its
    dual, and the composite trace it reports."""
    first, second, glue = (tmp_path / name for name in ("m.json", "n.json", "glue.json"))
    first.write_text(json.dumps(trace_to_json(solid_torus_trace())))
    second.write_text(json.dumps(trace_to_json(dualize(solid_torus_trace()))))
    glue.write_text(json.dumps({"pairs": [["h:2", "base:0"]]}))
    report = run_json(
        ["compose", str(first), str(second), "--glue", str(glue), "--check", "--json"]
    )
    return report, trace_from_json(report["result"]["composite"])


def search_report(tmp_path) -> tuple[dict, OrderedHandleDecomposition]:
    """The ``search --json`` report on the lens space, and its witness trace."""
    path = tmp_path / "lens.json"
    path.write_text(json.dumps(trace_to_json(lookup("lens").traces[0][1])))
    report = run_json(["search", "--json", str(path)])
    return report, trace_from_json(report["result"]["witness"])


def test_rendering_leaves_no_garbage(tmp_path):
    # A writer that recursed through a closure would leave a reference cycle
    # per call, holding its chunk list until the collector ran.  Each report
    # is rendered as read back and with its trace as the record ``cli`` holds.
    compose, composite = compose_report(tmp_path)
    search, witness = search_report(tmp_path)
    values = [
        (compose, compose),
        (search, search),
        ({**compose, "result": {**compose["result"], "composite": composite}}, compose),
        ({**search, "result": {**search["result"], "witness": witness}}, search),
        (witness, search["result"]["witness"]),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for value, document in values:
            gc.collect()
            text = canonical_dumps(value)
            assert gc.collect() == 0
            assert text == oracle(document)
    finally:
        if enabled:
            gc.enable()
