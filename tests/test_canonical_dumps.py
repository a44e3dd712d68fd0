"""``canonical_dumps`` against its oracle, ``json.dumps(indent=2, sort_keys=True)``.

The writer promises the oracle's exact bytes for every value built from
dicts with string keys, lists, tuples, strings, ints, bools and ``None``,
and a ``TypeError`` for anything else, at any nesting depth.
"""

from __future__ import annotations

from contextlib import contextmanager, redirect_stdout
import gc
import io
import json
import sys

from hypothesis import given, settings, strategies as st
import pytest

from handlenu.catalog import solid_torus_trace
from handlenu.cli import EXIT_OK, main
from handlenu.trace import canonical_dumps, dualize, trace_to_json


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
], ids=repr)  # a bare object's repr holds its address, so that case gets a fixed id
def test_other_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        canonical_dumps(obj)


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


def compose_report(tmp_path) -> dict:
    """The ``compose --check --json`` report gluing the solid torus to its dual."""
    first, second, glue = (tmp_path / name for name in ("m.json", "n.json", "glue.json"))
    first.write_text(json.dumps(trace_to_json(solid_torus_trace())))
    second.write_text(json.dumps(trace_to_json(dualize(solid_torus_trace()))))
    glue.write_text(json.dumps({"pairs": [["h:2", "base:0"]]}))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["compose", str(first), str(second), "--glue", str(glue), "--check", "--json"])
    assert code == EXIT_OK
    return json.loads(out.getvalue())


def test_rendering_leaves_no_garbage(tmp_path):
    # A writer that recursed through a closure would leave a reference cycle
    # per call, holding its chunk list until the collector ran.
    report = compose_report(tmp_path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = canonical_dumps(report)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert text == oracle(report)
