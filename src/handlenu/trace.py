"""Ordered handle decompositions and replay of their free-boundary states.

A decomposition is a base (a possibly empty disjoint union of closed
(m-1)-manifolds) together with an ordered list of handle records.
Replaying the records produces, for every prefix length mu, the multiset
of connected closed components of the free boundary -- the part of the
boundary still available for later attachments.  The base itself is kept
on the fixed side of a collar and never consumed.

The free boundary is a dict from component id to descriptor.  Each of the
five attachment kinds is a class carrying its rules: the handle ``index``
it needs, the fields holding its ``anchors`` and their map
(``map_anchors``), its ``step`` on the free boundary and its ``dual``;
:class:`HandleRecord` refuses any other attachment, so nothing downstream
checks the kind again.  :func:`walk` calls each handle's step in turn on
one such dict, in time linear in the handles, and adds each id it makes
after every live one, so its dicts, and the copies :func:`replay` keeps
after every prefix, list ids in id order (:func:`id_sort_key`); callers
read them as they stand.  Steps build no descriptor they can share: a
0-handle's sphere is one module constant, and each genus's surface comes
from a bounded cache (descriptors are immutable and compare by ``key``).

Two attachment styles exist:

* dimension-3 surface calculus (``Dim3Zero`` .. ``Dim3Three``): every
  boundary component is an orientable surface tracked by genus, and each
  record rewrites genera locally;
* ``Declared`` records, which state the complete post-attachment free
  boundary outright.  These carry any ambient dimension; the author of the
  trace vouches for geometric realizability, and the engine checks only
  dimensions and connectivity.

Component identifiers name the event that produced them: base components
are ``base:i``; the component created or rewritten by the j-th handle is
``h:j``; events producing several components append ``/0``, ``/1``, ...
(a separating split and every ``Declared`` list, including one-element
lists).  Attachment anchors refer to these identifiers, so a record stays
meaningful when the surrounding order changes; :func:`map_anchors` and
:func:`rename_anchor` rewrite them when handles move or parts are glued.

Trace files are JSON documents ``{"m": ..., "base": [descriptor, ...],
"handles": [{"index": k, "attachment": {...}}, ...]}`` and round-trip
bit-exactly through :func:`canonical_dumps`, which writes a trace wherever
it stands in a value: each attachment class's ``json_text`` template writes
its document, and the descriptors go through the generic writer.
:func:`trace_to_json` reads that text back, so the format is written in one
place; :func:`trace_from_json` reads it with one switch over the type tags
and hands each field to the record that holds it.  Each record checks its
own fields' types once, when it is built (an ``index`` is an ``int``, an
anchor a ``str``), so a trace read from a file and one built in code hold
the same kinds of values, and the validator and the writer never meet others.
"""

from __future__ import annotations

from functools import lru_cache
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, Mapping, Union, get_args

from .homology import (
    Descriptor,
    Record,
    Sphere,
    Surface,
    _connected,
    _set,
    descriptor_from_json,
    descriptor_to_json,
    json_int,
    json_str,
    normalize,
    pretty,
)


class TraceError(ValueError):
    """Raised for malformed decompositions or trace documents."""


class AttachError(TraceError):
    """A single handle attachment is illegal for the current state."""


class ReplayError(TraceError):
    """Replay failed; carries the 1-based prefix index of the failing handle."""

    def __init__(self, mu: int, message: str):
        self.mu = mu
        super().__init__(f"prefix {mu}: {message}")


def id_sort_key(comp_id: str) -> tuple:
    """Deterministic order on component ids: base:i first, then h:j, then /sub."""
    kind, _, rest = comp_id.partition(":")
    main, _, sub = rest.partition("/")
    return (0 if kind == "base" else 1, int(main), int(sub) if sub else -1)


_SPHERE = Sphere(2)


@lru_cache(maxsize=256)  # one shared surface per genus; bounded for long-lived processes
def _surface(genus: int) -> Descriptor:
    return Surface(genus) if genus else _SPHERE


def _genus_of(comp_id: str, desc: Descriptor) -> int:
    # A leaf is read as it is; a sum or product (the kinds with parts) in normal form.
    genus = (normalize(desc) if desc.parts else desc).genus
    if genus is None:
        raise AttachError(f"component {comp_id} ({pretty(desc)}) is not an orientable surface")
    return genus


def _resolve(live: Mapping[str, Descriptor], anchor: str) -> Descriptor:
    desc = live.get(anchor)
    if desc is None:
        raise AttachError(f"dangling anchor {anchor!r}; live components: {list(live)}")
    return desc


# ``step(live, label)`` returns the ids of the live components the attachment
# consumes and the components it makes by id, named after ``label``; ``live`` maps
# the free boundary's ids to descriptors and is only read.  Components not consumed
# keep their ids; a ``Declared`` record consumes them all.  A step raises AttachError
# when the attachment is illegal there.  ``dual(made, gone)`` consumes the dual ids
# ``made`` of what it made and makes ``gone`` again, in order.  ``map_anchors(fn)``
# is the attachment with each anchor ``a`` replaced by ``fn(a)``, checked as built.
# ``json_text()`` is its attachment document as :func:`canonical_dumps` writes it in
# a trace at depth 0 (fields on lines indented by 8), one template per kind.


class Dim3Zero(Record):
    """0-handle in dimension 3: a new sphere boundary component appears."""

    __slots__ = ()
    __init__ = object.__init__  # no fields, one per handle read: 62 ns, not Record's 540
    index, anchors = 0, ()

    def step(self, live, label: str):
        return (), {label: _SPHERE}

    def dual(self, made: list[str], gone: dict[str, Descriptor]):
        return Dim3Three(made[0])

    def map_anchors(self, fn: Callable[[str], str]):
        return self  # no anchors, and immutable

    def json_text(self) -> str:
        return '{\n        "type": "zero"\n      }'


class Dim3One(Record):
    """1-handle: both feet on one component (genus +1) or a tube merging two."""

    __slots__ = _fields = ("a", "b")
    index, anchors = 1, ("a", "b")

    def __init__(self, a: str, b: str):
        _set(self, "a", json_str(a, "a"))
        _set(self, "b", json_str(b, "b"))

    def step(self, live, label: str):
        a = _resolve(live, self.a)
        if self.a == self.b:
            return (self.a,), {label: _surface(_genus_of(self.a, a) + 1)}
        b = _resolve(live, self.b)  # both anchors resolve before either genus is read
        return (self.a, self.b), {label: _surface(_genus_of(self.a, a) + _genus_of(self.b, b))}

    def dual(self, made: list[str], gone: dict[str, Descriptor]):
        if self.a == self.b:
            return Dim3Two(made[0], NonSeparating())
        return Dim3Two(made[0], Separating(*(_genus_of(c, desc) for c, desc in gone.items())))

    def map_anchors(self, fn: Callable[[str], str]):
        return Dim3One(fn(self.a), fn(self.b))

    def json_text(self) -> str:
        return (
            f'{{\n        "a": {_quote(self.a)},\n        "b": {_quote(self.b)},'
            f'\n        "type": "one"\n      }}'
        )


class NonSeparating(Record):
    """Surgery curve that does not separate its surface; genus drops by one."""

    __slots__ = ()
    __init__ = object.__init__  # as Dim3Zero's

    def json_text(self) -> str:  # a curve's fields sit 10 deep in a trace at depth 0
        return '{\n          "kind": "nonseparating"\n        }'


class Separating(Record):
    """Surgery curve splitting a genus g1+g2 surface into genus g1 and g2 pieces."""

    __slots__ = _fields = ("g1", "g2")

    def __init__(self, g1: int, g2: int):
        g1, g2 = json_int(g1, "g1"), json_int(g2, "g2")  # both types before either sign
        if g1 < 0 or g2 < 0:
            raise TraceError(f"split genera must be non-negative: ({g1}, {g2})")
        _set(self, "g1", g1)
        _set(self, "g2", g2)

    def json_text(self) -> str:
        return (
            f'{{\n          "g1": {self.g1},\n          "g2": {self.g2},'
            f'\n          "kind": "separating"\n        }}'
        )


class Dim3Two(Record):
    """2-handle attached along a curve on one boundary surface."""

    __slots__ = _fields = ("anchor", "curve")
    index, anchors = 2, ("anchor",)

    def __init__(self, anchor: str, curve: Union[NonSeparating, Separating]):
        _set(self, "anchor", json_str(anchor, "anchor"))
        _set(self, "curve", curve)

    def step(self, live, label: str):
        genus = _genus_of(self.anchor, _resolve(live, self.anchor))
        if isinstance(self.curve, NonSeparating):
            if genus < 1:
                raise AttachError(
                    f"non-separating surgery needs genus >= 1; {self.anchor} is a sphere"
                )
            return (self.anchor,), {label: _surface(genus - 1)}
        g1, g2 = self.curve.g1, self.curve.g2
        if g1 + g2 != genus:
            raise AttachError(
                f"separating split ({g1}, {g2}) does not add up to genus {genus} of {self.anchor}"
            )
        return (self.anchor,), {f"{label}/0": _surface(g1), f"{label}/1": _surface(g2)}

    def dual(self, made: list[str], gone: dict[str, Descriptor]):
        return Dim3One(made[0], made[-1])  # it made one surface, or the two sides of a split

    def map_anchors(self, fn: Callable[[str], str]):
        return Dim3Two(fn(self.anchor), self.curve)

    def json_text(self) -> str:
        return (
            f'{{\n        "anchor": {_quote(self.anchor)},'
            f'\n        "curve": {self.curve.json_text()},\n        "type": "two"\n      }}'
        )


class Dim3Three(Record):
    """3-handle capping off a sphere component."""

    __slots__ = _fields = ("anchor",)
    index, anchors = 3, ("anchor",)

    def __init__(self, anchor: str):
        _set(self, "anchor", json_str(anchor, "anchor"))

    def step(self, live, label: str):
        desc = _resolve(live, self.anchor)
        if _genus_of(self.anchor, desc) != 0:
            raise AttachError(f"a cap may only close a sphere; {self.anchor} is {pretty(desc)}")
        return (self.anchor,), {}

    def dual(self, made: list[str], gone: dict[str, Descriptor]):
        return Dim3Zero()

    def map_anchors(self, fn: Callable[[str], str]):
        return Dim3Three(fn(self.anchor))

    def json_text(self) -> str:
        return f'{{\n        "anchor": {_quote(self.anchor)},\n        "type": "three"\n      }}'


class Declared(Record):
    """Full replacement of the free boundary by a stated component list."""

    __slots__ = _fields = ("components",)
    index, anchors = None, ()

    def __init__(self, components: tuple[Descriptor, ...]):
        _set(self, "components", tuple(components))

    def step(self, live, label: str):
        return tuple(live), {f"{label}/{i}": desc for i, desc in enumerate(self.components)}

    def dual(self, made: list[str], gone: dict[str, Descriptor]):
        return Declared(tuple(gone.values()))  # it consumed the whole boundary, in id order

    map_anchors = Dim3Zero.map_anchors  # no anchors either

    def json_text(self) -> str:
        components = _dumps_at([descriptor_to_json(c) for c in self.components], "\n        ")
        return f'{{\n        "components": {components},\n        "type": "declared"\n      }}'


Attachment = Union[Dim3Zero, Dim3One, Dim3Two, Dim3Three, Declared]
_KINDS = frozenset(get_args(Attachment))  # by exact type: a subclass may break the rules


class HandleRecord(Record):
    """A handle of the given index together with an attachment of one of the five kinds."""

    __slots__ = _fields = ("index", "attachment")

    def __init__(self, index: int, attachment: Attachment):
        if type(attachment) not in _KINDS:
            raise TraceError(f"unknown attachment {attachment!r}")
        _set(self, "index", json_int(index, "index"))
        _set(self, "attachment", attachment)


def map_anchors(att: Attachment, fn: Callable[[str], str]) -> Attachment:
    """The attachment with every anchor replaced by ``fn(anchor)``: its kind's
    ``map_anchors``."""
    return att.map_anchors(fn)


def rename_anchor(anchor: str, relabel: dict[str, str]) -> str | None:
    """Rename the anchor's event id through ``relabel``, keeping any ``/k``
    suffix; ``None`` when ``relabel`` does not name the event.  Event ids hold
    no ``/``, so an anchor found whole in ``relabel`` is an event id."""
    renamed = relabel.get(anchor)
    if renamed is not None:
        return renamed
    event, sep, sub = anchor.partition("/")
    if event not in relabel:
        return None
    return relabel[event] + sep + sub


class OrderedHandleDecomposition(Record):
    """Base manifold plus handles in attachment order."""

    __slots__ = _fields = ("m", "base", "handles")

    def __init__(self, m: int, base: tuple[Descriptor, ...], handles: tuple[HandleRecord, ...]):
        if json_int(m, "m") < 1:
            raise TraceError(f"ambient dimension must be >= 1, got {m}")
        super().__init__(m, tuple(base), tuple(handles))

    @property
    def delta(self) -> int:
        return len(self.handles)


def walk(d: OrderedHandleDecomposition) -> Iterator[
    tuple[dict[str, Descriptor], dict[str, Descriptor], dict[str, Descriptor]]
]:
    """Replay without copying the live components, in time linear in the handles.

    Yields, for mu = 0..delta, the components the mu-th event consumed, the
    components it made (event 0 makes the base) and the live components
    afterwards, each a dict from id to descriptor.  The live dict is the
    walk's own and changes as it goes on.  Each handle takes its attachment's
    ``step``; surface calculus needs ``m`` 3.  Raises ReplayError like
    :func:`replay`.
    """
    base = {f"base:{i}": desc for i, desc in enumerate(d.base)}
    live = dict(base)
    yield {}, base, live
    m3 = d.m == 3
    for j, handle in enumerate(d.handles, start=1):
        att = handle.attachment
        try:
            if not m3 and type(att) is not Declared:
                raise AttachError(
                    f"surface-calculus attachments need ambient dimension 3, trace has m={d.m}"
                )
            consumed, made = att.step(live, f"h:{j}")
        except AttachError as exc:
            raise ReplayError(j, str(exc)) from exc
        gone = {}
        for comp_id in consumed:  # a loop, not a comprehension: most steps consume none
            gone[comp_id] = live.pop(comp_id)
        live.update(made)
        yield gone, made, live


def final_boundary(d: OrderedHandleDecomposition) -> dict[str, Descriptor]:
    """The free boundary after every handle, by id, from one walk."""
    for _, _, live in walk(d):
        pass
    return live


def replay(d: OrderedHandleDecomposition) -> tuple[dict[str, Descriptor], ...]:
    """The live components by id after each prefix mu = 0..delta, a copy of
    the walk's dict each; deterministic, raises ReplayError on failure."""
    return tuple(dict(live) for _, _, live in walk(d))


def dualize(d: OrderedHandleDecomposition) -> OrderedHandleDecomposition:
    """Turn the decomposition around: base becomes the final free boundary.

    Handles run in reverse with index k mapped to m - k, and attachment data
    is recomputed so that the dual's replay walks the original state sequence
    backwards: each dual handle consumes what its original made and makes
    what it consumed.  Declared records declare the pre-attachment state of
    their original counterpart.  One walk records what each handle consumed
    and made, which is all a dual handle reads.
    """
    events = []
    for gone, made, live in walk(d):
        events.append((gone, list(made)))
    dmap = {comp_id: f"base:{i}" for i, comp_id in enumerate(live)}
    dual_handles = []
    for new_pos, (handle, (gone, made)) in enumerate(
        zip(reversed(d.handles), reversed(events)), start=1
    ):
        att = handle.attachment
        datt = att.dual([dmap.pop(comp_id) for comp_id in made], gone)
        label = f"h:{new_pos}"
        several = att.index is None or len(gone) > 1  # a Declared dual suffixes even one
        dmap.update((c, f"{label}/{i}" if several else label) for i, c in enumerate(gone))
        dual_handles.append(HandleRecord(d.m - handle.index, datt))
    return OrderedHandleDecomposition(d.m, tuple(live.values()), tuple(dual_handles))


# --- validation ------------------------------------------------------------


class Violation(Record):
    __slots__ = _fields = ("mu", "message")


class ValidationReport(Record):
    __slots__ = _fields = ("violations", "warnings")

    @property
    def ok(self) -> bool:
        return not self.violations


def validated(d: OrderedHandleDecomposition, run: Callable[[OrderedHandleDecomposition], tuple]):
    """Structural checks, then the caller's walk ``run(d)``, a tuple ending in the final
    boundary; its ReplayError is a violation.  Returns (report, run(d) or None if invalid)."""
    violations: list[Violation] = []
    warnings: list[str] = []

    for i, desc in enumerate(d.base):
        if desc.dim != d.m - 1:
            violations.append(Violation(0, f"base:{i} has dimension {desc.dim}, need {d.m - 1}"))
        elif not _connected(desc):
            violations.append(Violation(0, f"base:{i}: components must be connected"))

    for j, handle in enumerate(d.handles, start=1):
        # An index is an int (HandleRecord refuses others); here it meets the trace's m.
        if not 0 <= handle.index <= d.m:
            violations.append(
                Violation(j, f"handle index {handle.index} outside 0..{d.m}")
            )
        att = handle.attachment
        if isinstance(att, Declared):
            for i, desc in enumerate(att.components):
                if desc.dim != d.m - 1:
                    violations.append(
                        Violation(
                            j, f"declared component {i} has dimension {desc.dim}, need {d.m - 1}"
                        )
                    )
                elif not _connected(desc):
                    violations.append(Violation(j, "components must be connected"))
        else:
            if d.m != 3:
                violations.append(
                    Violation(j, f"surface-calculus attachment in an m={d.m} trace")
                )
            if handle.index != att.index:
                violations.append(
                    Violation(
                        j,
                        f"attachment {type(att).__name__} needs index {att.index}, "
                        f"got {handle.index}",
                    )
                )

    result = None
    if not violations:
        try:
            result = run(d)
        except ReplayError as exc:
            violations.append(Violation(exc.mu, str(exc)))
        else:
            closed = not d.base and not result[-1]
            if closed and d.m == 3:
                euler = sum((-1) ** h.index for h in d.handles)
                if euler != 0:
                    warnings.append(
                        "closed trace has handle-count alternating sum "
                        f"{euler}, expected 0"
                    )
    return ValidationReport(tuple(violations), tuple(warnings)), result


def validate(d: OrderedHandleDecomposition) -> ValidationReport:
    """Diagnostics only; never raises.  The replay check walks to the final boundary."""
    return validated(d, lambda t: (final_boundary(t),))[0]


# --- JSON ------------------------------------------------------------------


def _attachment_from_json(data) -> Attachment:
    if not isinstance(data, dict) or "type" not in data:
        raise TraceError(f"attachment must be an object with a 'type' tag: {data!r}")
    kind = data["type"]
    try:
        if kind == "zero":
            return Dim3Zero()
        if kind == "one":
            return Dim3One(data["a"], data["b"])
        if kind == "two":
            curve_data = data["curve"]
            if curve_data["kind"] == "nonseparating":
                curve = NonSeparating()
            elif curve_data["kind"] == "separating":
                curve = Separating(curve_data["g1"], curve_data["g2"])
            else:
                raise TraceError(f"unknown curve kind {curve_data['kind']!r}")
            return Dim3Two(data["anchor"], curve)
        if kind == "three":
            return Dim3Three(data["anchor"])
        if kind == "declared":
            return Declared(tuple(descriptor_from_json(c) for c in data["components"]))
    except KeyError as exc:
        raise TraceError(f"attachment of type {kind!r} is missing field {exc}") from exc
    raise TraceError(f"unknown attachment type {kind!r}")


def trace_to_json(d: OrderedHandleDecomposition) -> dict:
    """The trace document of ``d``, read back from :func:`canonical_dumps`, which
    alone writes the format.  So a genus of over 4,300 digits raises ValueError
    under the interpreter's integer-to-string limit; a trace file cannot hold
    one anyway, since ``json.load`` refuses it."""
    return json.loads(canonical_dumps(d))


def trace_from_json(data) -> OrderedHandleDecomposition:
    if not isinstance(data, dict):
        raise TraceError("trace document must be a JSON object")
    try:
        m = data["m"]
        if not isinstance(data["base"], list) or not isinstance(data["handles"], list):
            raise TraceError("'base' and 'handles' must be arrays")
        base = tuple(descriptor_from_json(desc) for desc in data["base"])
        handles = tuple(
            HandleRecord(h["index"], _attachment_from_json(h["attachment"]))
            for h in data["handles"]
        )
        return OrderedHandleDecomposition(m, base, handles)
    except KeyError as exc:
        raise TraceError(f"trace document is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, TraceError):
            raise
        raise TraceError(f"malformed trace document: {exc}") from exc


def canonical_dumps(obj) -> str:
    """Stable JSON rendering; byte-identical across runs for equal inputs.

    For a value built from dicts with string keys, lists, tuples, strings,
    ints, bools, ``None`` and :class:`OrderedHandleDecomposition` the result
    is exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` with
    each trace first replaced by its document: the dict of ``m``, ``base``
    and ``handles`` that the attachment classes' ``json_text`` templates and
    :func:`descriptor_to_json` describe, which :func:`trace_to_json` reads
    back.  Any other value (a float, a set, a non-string key, a
    ``HandleRecord`` or another record on its own) raises ``TypeError``; a
    trace's records hold only ``int`` indexes and ``str`` anchors, since they
    refuse others when built.  On CPython before 3.13, ``indent`` sends
    ``json.dumps`` to its pure-Python encoder; one writer appending to one
    list renders the package's reports 1.5-3 times faster, and a trace's
    templates write it about 6 times faster again.  The
    writer keeps its open containers on a list, not in Python frames, so it
    writes any nesting depth.  An int of 10,000 digits or more (a search's
    ``enumerated``) is written in time subquadratic in its digits, which
    ``int.__repr__`` is not before CPython 3.12; where the interpreter's
    integer-to-string limit is in force, the limit raises as for any int.
    """
    out: list[str] = []
    _write(obj, out)
    out.append("\n")
    return "".join(out)


def _trace_text(d: OrderedHandleDecomposition) -> str:
    """The text of ``d`` at depth 0, with no final newline: each handle from its
    attachment's template, the descriptors through the generic writer."""
    base = _dumps_at([descriptor_to_json(desc) for desc in d.base], "\n  ")
    texts = []
    for h in d.handles:
        attachment = h.attachment.json_text()
        texts.append(f'{{\n      "attachment": {attachment},\n      "index": {h.index}\n    }}')
    handles = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
    return f'{{\n  "base": {base},\n  "handles": {handles},\n  "m": {d.m}\n}}'


def _dumps_at(value, inner: str) -> str:
    """``value`` as the generic writer writes it on a line that starts with ``inner``."""
    out: list[str] = []
    _write(value, out, inner)
    return "".join(out)


_BIG = 1 << 33216  # about 10**9999; from here on _long_text writes ints faster than int


def _long_text(n: int) -> str:
    """``int.__repr__(n)`` for a positive ``n`` of 10,000 digits or more: split in
    binary, join the halves in ``decimal``, whose large products are fast, and
    print that.  Under the integer-to-string limit int itself writes ``n``."""
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        return int.__repr__(n)
    import decimal

    def convert(n: int, k: int) -> decimal.Decimal:  # for n < 2**(256 << k)
        if k < 0:
            return decimal.Decimal(n)
        high = n >> (128 << k)
        return convert(n - (high << (128 << k)), k - 1) + convert(high, k - 1) * powers[k]

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True  # exact throughout: never rounds
        powers = [decimal.Decimal(1 << 128)]  # 2**(128 << k) by k
        while 256 << (len(powers) - 1) < n.bit_length():
            powers.append(powers[-1] * powers[-1])
        return str(convert(n, len(powers) - 1))


def _write(value, out: list[str], inner: str = "\n") -> None:
    """Append ``value``, on a line that starts with ``inner``, to ``out``.  A
    module-level function holding no closure, so a call leaves no reference
    cycle for the collector."""
    # The container being written: its items left, whether it is a dict,
    # its closing text, the newline and indent of its items, the text before
    # its next item and before each later one.  ``value`` is the one item of
    # an outermost container with no brackets.
    items, is_dict, close, sep, comma = iter((value,)), False, "", "", ""
    stack = []  # the open containers around it
    while True:
        for item in items:
            if is_dict:
                key, item = item
                out.append(f"{sep}{_quote(key)}: ")
            else:
                out.append(sep)
            sep = comma
            kind = type(item)
            if kind is str:
                out.append(_quote(item))
            elif kind is int:
                out.append(int.__repr__(item) if item < _BIG else _long_text(item))
            elif item is None:
                out.append("null")
            elif item is True:
                out.append("true")
            elif item is False:
                out.append("false")
            elif isinstance(item, (dict, list, tuple)):
                if not item:
                    out.append("{}" if isinstance(item, dict) else "[]")
                    continue
                stack.append((items, is_dict, close, inner, comma))
                if isinstance(item, dict):
                    items, is_dict, close, sep = iter(sorted(item.items())), True, inner + "}", "{"
                else:
                    items, is_dict, close, sep = iter(item), False, inner + "]", "["
                inner += "  "
                sep += inner
                comma = "," + inner
                break  # write the opened container's items
            elif kind is OrderedHandleDecomposition:
                # Strings are written ASCII-escaped, so every newline is a line break.
                out.append(_trace_text(item).replace("\n", inner))
            # Subclasses of str and int, which json accepts.
            elif isinstance(item, str):
                out.append(_quote(item))
            elif isinstance(item, int):
                out.append(int.__repr__(item) if item < _BIG else _long_text(item))
            else:
                raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")
        else:  # every item written: close the container, resume the one around it
            out.append(close)
            if not stack:
                return
            items, is_dict, close, inner, comma = stack.pop()
            sep = comma
