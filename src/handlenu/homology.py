"""Exact rational homology for symbolic descriptions of closed manifolds.

Descriptors form a small grammar -- spheres, orientable surfaces, products,
connected sums, and explicit Betti data -- rich enough to name every closed
manifold this package puts on a boundary.  Each kind is a class carrying its
JSON ``tag``, its reader, its surface ``genus`` (``None`` unless it is an
orientable surface) and its normal-form, pretty and JSON rules.  Each
descriptor node computes its facts once, when it is built, from its parts'
facts: ``dim``, ``ranks`` (the nonzero Betti numbers as sorted
``(degree, rank)`` pairs), their sum ``total``, and the order ``key``
(sphere < surface < product < connected sum < explicit, then by
parameters).  Products apply Kunneth over pairs of nonzero degrees,
connected sums add middle degrees, and spheres and surfaces take constant
work.  Descriptors are immutable :class:`Record` values: ``repr`` shows
their fields, and equality and hashing go by ``key``, which is equal
exactly when the fields are.  :func:`normalize`, :func:`pretty` and
:func:`descriptor_to_json` run the kinds' rules in one bottom-up walk with
an explicit stack, and :func:`descriptor_from_json` reads with a stack of
its own, finding each document's class by its tag.
All arithmetic is exact: Betti numbers are plain integers.
:class:`Record`'s constructor binds fields like a call; descriptors and
:class:`HomologyVector`, read once per node, store their own, more cheaply.

Descriptor equality, used for gluing compatibility elsewhere, is structural
equality after :func:`normalize`.  This deliberately under-approximates
"same manifold": two descriptors may name diffeomorphic manifolds and still
normalize differently (e.g. a torus written as a product of circles versus
a genus-one surface).  Callers that need a match must spell both sides the
same way.
"""

from __future__ import annotations

from functools import cmp_to_key
import operator
from typing import Union, get_args


class DescriptorError(ValueError):
    """Raised for malformed manifold descriptors."""


_set = object.__setattr__  # past Record.__setattr__, for slotted records


class Record:
    """An immutable value shown as ``Name(field=value, ...)`` for the names in
    ``_fields``, equal to a value of its own class with equal ``_values()``.
    ``__init__`` binds its arguments to ``_fields`` as a call would and stores
    them; a record that checks its fields calls it last.  The records read once
    per handle or per descriptor store their own fields, through ``_set`` or,
    for descriptors, straight into ``__dict__``: binding costs about 1 us."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing field {field!r}")
            _set(self, field, kwargs.pop(field))
        for field in kwargs:  # left over: not a field, or one already given by position
            problem = "multiple values for" if field in fields else "an unexpected"
            raise TypeError(f"{name}() got {problem} field {field!r}")

    def _values(self) -> tuple:
        """What equality and hashing compare: the fields, in order."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _equal(self._values(), other._values())

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def as_dict(self) -> dict:
        """The fields by name, in ``_fields`` order."""
        return {name: getattr(self, name) for name in self._fields}

    def replace(self, **changes):
        """A copy with the named fields changed, built by ``__init__``, so it is checked."""
        return type(self)(**{**self.as_dict(), **changes})


def _equal(a: tuple, b: tuple) -> bool:
    """``a == b`` at any depth of nesting: in C, or, where that recurses too
    deep (descriptor keys past about 1,000 levels), off an explicit stack."""
    try:
        return a == b
    except RecursionError:
        stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is tuple is type(y) and len(x) == len(y):
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def _less(a: tuple, b: tuple) -> bool:
    """``a < b`` at any depth of nesting, like :func:`_equal`: in C, or off an
    explicit stack of (x, y, index of the next pair of items to compare)."""
    try:
        return a < b
    except RecursionError:
        stack = [(a, b, 0)]
    while stack:
        x, y, i = stack.pop()
        if i == len(x) or i == len(y):
            if len(x) != len(y):
                return len(x) < len(y)
            continue  # equal: go on with the enclosing tuples
        stack.append((x, y, i + 1))
        u, v = x[i], y[i]
        if type(u) is tuple is type(v):
            stack.append((u, v, 0))
        elif u != v:
            return u < v
    return False


class HomologyVector(Record):
    """Betti numbers b_0..b_dim of a closed manifold, over the rationals."""

    __slots__ = _fields = ("dim", "betti")

    def __init__(self, dim: int, betti: tuple[int, ...]):
        if json_int(dim, "dim") < 0:
            raise DescriptorError(f"dimension must be non-negative, got {dim}")
        betti = tuple(json_int(b, "betti") for b in betti)
        if len(betti) != dim + 1:
            raise DescriptorError(
                f"need {dim + 1} Betti numbers for dimension {dim}, got {len(betti)}"
            )
        if any(b < 0 for b in betti):
            raise DescriptorError(f"Betti numbers must be non-negative: {betti}")
        _set(self, "dim", dim)
        _set(self, "betti", betti)

    @property
    def total(self) -> int:
        """Unsigned sum of all Betti numbers (not the Euler characteristic)."""
        return sum(self.betti)

    @property
    def palindromic(self) -> bool:
        """Whether b_k = b_{dim-k} throughout (rational Poincare duality)."""
        return self.betti == self.betti[::-1]


class _Node(Record):
    """A descriptor.  It compares and hashes by ``key``, which tells apart
    exactly the descriptors whose fields differ and needs no call per level.
    A leaf's ``_read`` returns the descriptor; a product's or a connected
    sum's, an iterator over its part documents, for ``_join`` to build on."""

    genus = None
    parts = ()

    def _values(self) -> tuple:
        return self.key

    def _normal(self, parts: list) -> "Descriptor":
        return self

    def _json(self, parts: list) -> dict:
        return {"type": self.tag, **self.as_dict()}


def _record(facts: dict, dim: int, ranks: tuple[tuple[int, int], ...], total: int, key: tuple):
    facts["dim"] = dim
    facts["ranks"] = ranks
    facts["total"] = total
    facts["key"] = key


class Sphere(_Node):
    """The standard n-sphere, n >= 1."""

    tag = "sphere"
    _fields = ("n",)

    def __init__(self, n: int):
        if json_int(n, "n") < 1:
            raise DescriptorError(f"sphere dimension must be >= 1, got {n}")
        facts = self.__dict__
        facts["n"] = n
        facts["genus"] = 0 if n == 2 else None  # the 2-sphere is the genus-zero surface
        _record(facts, n, ((0, 1), (n, 1)), 2, (0, n))

    def _pretty(self, parts: list) -> str:
        return f"S^{self.n}"

    @classmethod
    def _read(cls, data: dict) -> "Sphere":
        return cls(data["n"])


class Surface(_Node):
    """Closed orientable surface of the given genus.

    Non-orientable surfaces are representable only through Explicit
    descriptors; the JSON reader refuses ``"orientable": false`` by policy.
    """

    tag = "surface"
    _fields = ("genus",)

    def __init__(self, genus: int):
        g = json_int(genus, "genus")
        if g < 0:
            raise DescriptorError(f"genus must be non-negative, got {g}")
        facts = self.__dict__
        facts["genus"] = g
        ranks = ((0, 1), (1, 2 * g), (2, 1)) if g else ((0, 1), (2, 1))
        _record(facts, 2, ranks, 2 + 2 * g, (1, g))

    def _normal(self, parts: list) -> "Descriptor":
        return self if self.genus else Sphere(2)

    def _pretty(self, parts: list) -> str:
        return ("S^2", "T^2")[self.genus] if self.genus < 2 else f"Sigma_{self.genus}"

    @classmethod
    def _read(cls, data: dict) -> "Surface":
        orientable = data.get("orientable", True)
        if type(orientable) is not bool:
            raise TypeError(f"'orientable' must be a boolean, got {orientable!r}")
        surface = cls(data["genus"])
        if not orientable:
            raise DescriptorError(
                "non-orientable surfaces are only representable as Explicit descriptors"
            )
        return surface


class Product(_Node):
    """Cartesian product of two closed manifolds."""

    tag = "product"
    _fields = ("left", "right")

    def __init__(self, left: "Descriptor", right: "Descriptor"):
        ranks: dict[int, int] = {}
        for i, a in left.ranks:
            for j, b in right.ranks:
                ranks[i + j] = ranks.get(i + j, 0) + a * b
        facts = self.__dict__
        facts["left"] = left
        facts["right"] = right
        _record(
            facts, left.dim + right.dim, tuple(sorted(ranks.items())), left.total * right.total,
            (2, left.key, right.key),
        )

    @property
    def parts(self) -> tuple["Descriptor", "Descriptor"]:
        return (self.left, self.right)

    def _normal(self, parts: list) -> "Descriptor":
        # A node whose normal parts are its own parts, in order, is normal itself
        # and is kept, so its facts are not computed again.
        left, right = parts
        if _less(right.key, left.key):
            left, right = right, left
        if left is self.left and right is self.right:
            return self
        return Product(left, right)

    def _pretty(self, parts: list) -> str:
        return " x ".join(
            f"({s})" if isinstance(p, (ConnectedSum, Product)) else s
            for p, s in zip(self.parts, parts)
        )

    def _json(self, parts: list) -> dict:
        return {"type": self.tag, "left": parts[0], "right": parts[1]}

    @classmethod
    def _read(cls, data: dict):
        return (data[side] for side in ("left", "right"))

    @classmethod
    def _join(cls, parts: list) -> "Product":
        return cls(*parts)


class ConnectedSum(_Node):
    """Connected sum of closed connected orientable manifolds of one common
    dimension >= 2."""

    tag = "connected-sum"
    _fields = ("parts",)

    def __init__(self, parts: tuple["Descriptor", ...]):
        parts = tuple(parts)
        if not parts:
            raise DescriptorError("connected sum needs at least one summand")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise DescriptorError(f"connected-sum summands have mixed dimensions {sorted(dims)}")
        (n,) = dims
        if n < 2:
            raise DescriptorError(f"connected sum needs dimension >= 2, got {n}")
        ranks = {0: 1, n: 1}
        for p in parts:
            if not palindromic(p):
                raise DescriptorError(
                    "connected-sum summands must be closed orientable "
                    f"(non-palindromic Betti vector in {pretty(p)})"
                )
            if not _connected(p):
                raise DescriptorError(
                    f"connected-sum summands must be connected (b_0 is not 1 in {pretty(p)})"
                )
            for k, r in p.ranks:
                if 0 < k < n:
                    ranks[k] = ranks.get(k, 0) + r
        facts = self.__dict__
        facts["parts"] = parts
        key = (3, tuple(p.key for p in parts))
        _record(facts, n, tuple(sorted(ranks.items())), sum(ranks.values()), key)

    def _normal(self, parts: list) -> "Descriptor":
        kept = [p for p in parts if not isinstance(p, Sphere)]  # summing a sphere changes nothing
        try:
            parts = sorted(kept, key=lambda p: p.key)
        except RecursionError:  # keys too deep for C; a cmp of -1, 0 or 1
            by_key = cmp_to_key(lambda p, q: _less(q.key, p.key) - _less(p.key, q.key))
            parts = sorted(kept, key=by_key)
        if not parts:
            return Sphere(self.dim)
        if len(parts) == 1:
            return parts[0]
        if len(parts) == len(self.parts) and all(map(operator.is_, parts, self.parts)):
            return self
        return ConnectedSum(tuple(parts))

    def _pretty(self, parts: list) -> str:
        return " # ".join(
            f"({s})" if isinstance(p, Product) else s for p, s in zip(self.parts, parts)
        )

    def _json(self, parts: list) -> dict:
        return {"type": self.tag, "parts": parts}

    @classmethod
    def _read(cls, data: dict):
        return iter(data["parts"])

    @classmethod
    def _join(cls, parts: list) -> "ConnectedSum":
        return cls(tuple(parts))


class Explicit(_Node):
    """A closed manifold known only through its Betti numbers."""

    tag = "explicit"
    _fields = ("dim", "homology", "label")

    def __init__(self, dim: int, homology: HomologyVector, label: str = ""):
        betti = homology.betti
        if json_int(dim, "dim") != homology.dim:
            raise DescriptorError(
                f"declared dimension {dim} disagrees with Betti data "
                f"of dimension {homology.dim}"
            )
        facts = self.__dict__
        facts["homology"] = homology
        facts["label"] = json_str(label, "label")
        ranks = tuple((k, b) for k, b in enumerate(betti) if b)
        _record(facts, dim, ranks, sum(betti), (4, dim, betti, label))

    def _pretty(self, parts: list) -> str:
        return self.label or f"explicit(betti={list(self.homology.betti)})"

    def _json(self, parts: list) -> dict:
        betti = list(self.homology.betti)
        return {"type": self.tag, "dim": self.dim, "betti": betti, "label": self.label}

    @classmethod
    def _read(cls, data: dict) -> "Explicit":
        dim = data["dim"]
        return cls(dim, HomologyVector(dim, data["betti"]), data.get("label", ""))


Descriptor = Union[Sphere, Surface, Product, ConnectedSum, Explicit]


def dimension(desc: Descriptor) -> int:
    return desc.dim


def betti(desc: Descriptor) -> HomologyVector:
    """Rational Betti vector of the closed manifold the descriptor names."""
    b = [0] * (desc.dim + 1)
    for k, r in desc.ranks:
        b[k] = r
    return HomologyVector(desc.dim, tuple(b))


def total_betti(desc: Descriptor) -> int:
    """Sum of all rational Betti numbers of the descriptor's manifold."""
    return desc.total


def palindromic(desc: Descriptor) -> bool:
    """Whether b_k = b_{dim-k} throughout (rational Poincare duality)."""
    n = desc.dim
    return desc.ranks == tuple((n - k, r) for k, r in reversed(desc.ranks))


def _connected(desc: Descriptor) -> bool:
    return desc.ranks[:1] == ((0, 1),)  # b_0 = 1


def _bottom_up(desc: Descriptor, rule: str) -> object:
    """``node.<rule>(results for node.parts)`` at every node, parts first;
    returns the root's result.  Iterative, so depth costs no recursion."""
    if not desc.parts:
        return getattr(desc, rule)(())
    preorder, stack = [], [desc]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(node.parts)
    done: dict[int, object] = {}
    for node in reversed(preorder):  # every part comes before its node
        done[id(node)] = getattr(node, rule)([done[id(p)] for p in node.parts])
    return done[id(desc)]


def normalize(desc: Descriptor) -> Descriptor:
    """Canonical form used for descriptor equality.

    Products order their two factors, connected sums sort their summands,
    sphere summands drop out (summing with a sphere changes nothing), a
    genus-zero surface becomes the 2-sphere it is, and one-summand sums
    collapse.
    """
    return _bottom_up(desc, "_normal")


def desc_equal(a: Descriptor, b: Descriptor) -> bool:
    """Structural equality after normalization; the gluing-compatibility test.
    Keys tell structures apart and, unlike ``==``, need no call per level."""
    return _equal(normalize(a).key, normalize(b).key)


def pretty(desc: Descriptor) -> str:
    return _bottom_up(desc, "_pretty")


# --- JSON schema ----------------------------------------------------------
#
# {"type": "sphere", "n": 2}
# {"type": "surface", "genus": 3}                  (orientable implied)
# {"type": "product", "left": ..., "right": ...}
# {"type": "connected-sum", "parts": [...]}
# {"type": "explicit", "dim": 3, "betti": [1, 0, 0, 1], "label": "..."}


def json_int(value, field: str) -> int:
    """An integer field of a JSON document or a constructor.  Floats, numeric
    strings and booleans are refused with TypeError rather than coerced."""
    if type(value) is not int:
        raise TypeError(f"{field!r} must be an integer, got {value!r}")
    return value


def json_str(value, field: str) -> str:
    """A string field of a JSON document or a constructor; others raise TypeError."""
    if type(value) is not str:
        raise TypeError(f"{field!r} must be a string, got {value!r}")
    return value


def descriptor_to_json(desc: Descriptor) -> dict:
    return _bottom_up(desc, "_json")


def _misread(kind, exc: Exception) -> DescriptorError:
    """A descriptor document's own field error, reported under its type tag.
    The readers raise it from ``try`` blocks, which cost nothing when nothing
    is raised, where a context manager would cost every descriptor a call."""
    if isinstance(exc, KeyError):
        return DescriptorError(f"descriptor of type {kind!r} is missing field {exc}")
    return DescriptorError(f"malformed {kind!r} descriptor: {exc}")


_KINDS = {cls.tag: cls for cls in get_args(Descriptor)}


def _read_node(data):
    """One descriptor document's own fields: a leaf descriptor, or, for a
    product or a connected sum, an open frame ``[class, iterator over the part
    documents, parts read so far]``."""
    if not isinstance(data, dict) or "type" not in data:
        raise DescriptorError(f"descriptor must be an object with a 'type' tag: {data!r}")
    kind = data["type"]
    cls = _KINDS.get(kind) if type(kind) is str else None
    if cls is None:
        raise DescriptorError(f"unknown descriptor type {kind!r}")
    try:
        node = cls._read(data)
    except DescriptorError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise _misread(kind, exc) from exc
    return node if isinstance(node, _Node) else [cls, node, []]


_END = object()


def descriptor_from_json(data) -> Descriptor:
    """Read a descriptor document, parts first and left to right, with an
    explicit stack of open products and connected sums, so nesting costs no
    recursion."""
    stack: list[list] = []
    node = _read_node(data)
    while True:
        if isinstance(node, list):
            stack.append(node)
        elif stack:
            stack[-1][2].append(node)
        else:
            return node
        cls, part_docs, parts = stack[-1]
        try:
            doc = next(part_docs, _END)
            if doc is _END:
                stack.pop()
                node = cls._join(parts)
            else:
                node = _read_node(doc)
        except DescriptorError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise _misread(cls.tag, exc) from exc
