"""Built-in manifolds with certified invariant values and witness traces.

Each entry stores one or more decompositions (tagged by base), an optional
certification, and an optional splitting genus.  Certifications come in
three scopes:

* ``manifold``: the invariant of the underlying manifold is the stated
  value (lower == upper) -- reproduced by a stored witness on the upper
  side and by the floor rules on the lower side;
* ``range``: only the stated bracket is certified;
* ``ordering``: the value certifies the stored ordering itself, nothing
  about the minimum over decompositions.

Surface-calculus entries are homology-level: the engine only ever sees
Betti data, so e.g. all genus-one presentations replay identically and an
entry's name records intent, not a distinguished manifold.
"""

from __future__ import annotations

from . import _lazy
from .homology import Explicit, HomologyVector, Product, Record, Sphere, pretty, total_betti
from .trace import (
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Two,
    Dim3Zero,
    HandleRecord,
    NonSeparating,
    OrderedHandleDecomposition,
    dualize,
    replay,
    validated,
)

# Only the checks run these: listing and exporting entries runs neither.
nu, union = _lazy("nu"), _lazy("union")


class Certification(Record):
    __slots__ = _fields = ("lower", "upper", "scope")

    def __init__(self, lower: int, upper: int, scope: str):  # "manifold" | "range" | "ordering"
        if scope not in ("manifold", "range", "ordering"):
            raise ValueError(f"unknown certification scope {scope!r}")
        if lower > upper:
            raise ValueError(f"certified range [{lower}, {upper}] is inverted")
        if scope in ("manifold", "ordering") and lower != upper:
            raise ValueError(f"{scope} certification must pin a single value")
        super().__init__(lower, upper, scope)


class CatalogEntry(Record):
    __slots__ = _fields = ("name", "traces", "certified", "heegaard_genus", "heegaard_asserted")

    def __init__(
        self, name: str, traces: tuple[tuple[str, OrderedHandleDecomposition], ...],
        certified: Certification | None = None, heegaard_genus: int | None = None,
        heegaard_asserted: bool = False,
    ):
        super().__init__(name, traces, certified, heegaard_genus, heegaard_asserted)

    @property
    def m(self) -> int:
        """Ambient dimension, shared by every stored trace."""
        return self.traces[0][1].m


# --- trace builders ---------------------------------------------------------


def rational_homology_sphere(dim: int, label: str = "rational homology sphere") -> Explicit:
    """A closed manifold with the rational Betti numbers of the dim-sphere."""
    b = [0] * (dim + 1)
    b[0] = b[dim] = 1
    return Explicit(dim, HomologyVector(dim, tuple(b)), label)


def sphere_trace(m: int) -> OrderedHandleDecomposition:
    """One 0-handle and one top handle; every intermediate boundary a sphere."""
    if m < 3:
        raise ValueError(f"catalog spheres start at dimension 3, got {m}")
    if m == 3:
        handles = (HandleRecord(0, Dim3Zero()), HandleRecord(3, Dim3Three("h:1")))
    else:
        handles = (HandleRecord(0, Declared((Sphere(m - 1),))), HandleRecord(m, Declared(())))
    return OrderedHandleDecomposition(m, (), handles)


def genus_one_trace() -> OrderedHandleDecomposition:
    """Closed 4-handle pattern through a torus: the genus-one splitting shape."""
    return connected_sum_genus_one_trace(1)


def connected_sum_genus_one_trace(n: int) -> OrderedHandleDecomposition:
    """Build an n-fold connected sum of genus-one pieces one summand at a time.

    The boundary alternates sphere, torus, sphere, ..., so the replay never
    exceeds total Betti 4 even though the splitting genus is n.
    """
    if n < 1:
        raise ValueError(f"need at least one summand, got {n}")
    handles = [HandleRecord(0, Dim3Zero())]
    latest = "h:1"
    for _ in range(n):
        handles.append(HandleRecord(1, Dim3One(latest, latest)))
        latest = f"h:{len(handles)}"
        handles.append(HandleRecord(2, Dim3Two(latest, NonSeparating())))
        latest = f"h:{len(handles)}"
    handles.append(HandleRecord(3, Dim3Three(latest)))
    return OrderedHandleDecomposition(3, (), tuple(handles))


def solid_torus_trace() -> OrderedHandleDecomposition:
    return handlebody_trace(1)


def handlebody_trace(n: int) -> OrderedHandleDecomposition:
    """One 0-handle and n 1-handles on a single component: genus climbs to n."""
    if n < 1:
        raise ValueError(f"need at least one 1-handle, got {n}")
    handles = [HandleRecord(0, Dim3Zero())]
    for j in range(1, n + 1):
        handles.append(HandleRecord(1, Dim3One(f"h:{j}", f"h:{j}")))
    return OrderedHandleDecomposition(3, (), tuple(handles))


def circle_times_genus_two_half_trace() -> OrderedHandleDecomposition:
    """Six handles whose boundary walks S^2, T^2, Sigma_2, Sigma_3, Sigma_2, T^2.

    This presents the piece whose double is the product of a circle and a
    genus-two surface; the final torus boundary is where the double closes up.
    """
    handlebody = handlebody_trace(3)
    handles = tuple(HandleRecord(2, Dim3Two(f"h:{j}", NonSeparating())) for j in (4, 5))
    return OrderedHandleDecomposition(3, (), handlebody.handles + handles)


def sphere_times_circle_trace(m: int) -> OrderedHandleDecomposition:
    """Product of a sphere and a circle; the 1-handle forces a product boundary."""
    if m < 3:
        raise ValueError(f"need ambient dimension >= 3, got {m}")
    if m == 3:
        return genus_one_trace()
    middle = Product(Sphere(1), Sphere(m - 2))
    return OrderedHandleDecomposition(
        m,
        (),
        (
            HandleRecord(0, Declared((Sphere(m - 1),))),
            HandleRecord(1, Declared((middle,))),
            HandleRecord(m - 1, Declared((Sphere(m - 1),))),
            HandleRecord(m, Declared(())),
        ),
    )


def doubled_disc_bundle_trace(k: int) -> OrderedHandleDecomposition:
    """Double of the tangent disc bundle over an even sphere (ambient 4k).

    Every intermediate boundary is a rational homology sphere, so the
    ordering value is 2 although the manifold itself has extra homology in
    the middle degree.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    m = 4 * k
    qhs = rational_homology_sphere(m - 1, "disc-bundle boundary (rational homology sphere)")
    return OrderedHandleDecomposition(
        m,
        (),
        (
            HandleRecord(0, Declared((Sphere(m - 1),))),
            HandleRecord(m // 2, Declared((qhs,))),
            HandleRecord(m // 2, Declared((Sphere(m - 1),))),
            HandleRecord(m, Declared(())),
        ),
    )


# --- registry ----------------------------------------------------------------


def _build_entries() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []

    for m in (3, 4, 5, 6):
        # The standard m-sphere.  A two-handle presentation keeps every
        # intermediate boundary a sphere, and any closed presentation must
        # show one.
        entries.append(
            CatalogEntry(
                name=f"s{m}",
                traces=(("empty", sphere_trace(m)),),
                certified=Certification(2, 2, "manifold"),
                heegaard_genus=0 if m == 3 else None,
            )
        )

    # A closed manifold with a genus-one splitting.  Not a sphere, so the
    # invariant exceeds 2; surface parity lifts that to 4; the genus-one
    # presentation attains 4 in every admissible order.  The trace is
    # homology-level: every genus-one splitting replays identically, so this
    # entry stands for the whole family.
    entries.append(
        CatalogEntry(
            name="lens",
            traces=(("empty", genus_one_trace()),),
            certified=Certification(4, 4, "manifold"),
            heegaard_genus=1,
        )
    )

    for n in (1, 2, 3):
        # Connected sum of n genus-one pieces (splitting genus n).  The
        # summand-at-a-time presentation alternates sphere and torus
        # boundaries, attaining 4; a non-sphere closed oriented 3-manifold
        # needs at least 4.
        entries.append(
            CatalogEntry(
                name=f"rp3-sum-{n}",
                traces=(("empty", connected_sum_genus_one_trace(n)),),
                certified=Certification(4, 4, "manifold"),
                heegaard_genus=n,
            )
        )

    # Product of a 2-sphere and a circle.  A genus-one presentation attains
    # 4; the essential 1-handle in any presentation forces a product
    # boundary of total Betti 4.
    entries.append(
        CatalogEntry(
            name="s2xs1",
            traces=(("empty", genus_one_trace()),),
            certified=Certification(4, 4, "manifold"),
            heegaard_genus=1,
        )
    )

    # Product of a 3-sphere and a circle.  The declared presentation attains
    # 4; the essential 1-handle in any presentation forces a
    # sphere-times-circle boundary of total Betti 4.
    entries.append(
        CatalogEntry(
            name="s3xs1",
            traces=(("empty", sphere_times_circle_trace(4)),),
            certified=Certification(4, 4, "manifold"),
        )
    )

    # Orientable genus-one handlebody (boundary a torus).  Both base choices
    # (nothing, or the whole torus boundary) force a torus somewhere in the
    # replay, and both presentations attain 4.  The two stored bases are all
    # there are: the only closed subsurfaces of the torus boundary are empty
    # or all of it.
    solid = solid_torus_trace()
    entries.append(
        CatalogEntry(
            name="solid-torus",
            traces=(("empty", solid), ("torus", dualize(solid))),
            certified=Certification(4, 4, "manifold"),
        )
    )

    # Product of a circle and a genus-two surface, via the half it doubles.
    # Doubling the stored half caps the invariant at the half's peak of 8; a
    # non-sphere closed oriented 3-manifold needs at least 4.  Splitting
    # genus 5 is recorded as asserted, not derived here; 8 beats the
    # splitting-genus certificate 2*5+2 = 12.
    half = circle_times_genus_two_half_trace()
    entries.append(
        CatalogEntry(
            name="s1xsigma2",
            traces=(("half-empty", half), ("half-torus", dualize(half))),
            certified=Certification(4, 8, "range"),
            heegaard_genus=5,
            heegaard_asserted=True,
        )
    )

    for k in (1, 2):
        # Double of the tangent disc bundle over the 2k-sphere.  Every
        # intermediate boundary of the doubled presentation is a rational
        # homology sphere, so the replay never exceeds 2.  The manifold
        # itself has extra middle homology; the invariant is 2 anyway.
        entries.append(
            CatalogEntry(
                name=f"double-tangent-s{2 * k}",
                traces=(("empty", doubled_disc_bundle_trace(k)),),
                certified=Certification(2, 2, "manifold"),
            )
        )

    for n in (1, 2, 3):
        # Genus-n handlebody from one 0-handle and n 1-handles: the replay
        # climbs to the genus-n surface, total Betti 2 + 2n.
        entries.append(
            CatalogEntry(
                name=f"handlebody-{n}",
                traces=(("empty", handlebody_trace(n)),),
                certified=Certification(2 + 2 * n, 2 + 2 * n, "ordering"),
            )
        )

    return {entry.name: entry for entry in entries}


_ENTRIES = _build_entries()


def names() -> tuple[str, ...]:
    return tuple(sorted(_ENTRIES))


def lookup(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(names())}") from None


# --- verification -------------------------------------------------------------


class CheckItem(Record):
    __slots__ = _fields = ("entry", "check", "ok", "detail")


class CatalogReport(Record):
    __slots__ = _fields = ("items",)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)


def _entry_items(entry: CatalogEntry) -> list[CheckItem]:
    items: list[CheckItem] = []
    values: dict[str, int] = {}
    floors: dict[str, int] = {}
    for label, trace in entry.traces:
        report, result = validated(trace, nu.evaluate)
        items.append(
            CheckItem(
                entry.name,
                f"validate[{label}]",
                report.ok,
                "; ".join(v.message for v in report.violations) or "clean replay",
            )
        )
        if not report.ok:
            continue
        evaluation, final = result
        values[label] = evaluation.nu
        floors[label] = nu.lower_bound_rules(trace, final)[0]

    cert = entry.certified
    if cert is not None and values:
        if cert.scope == "ordering":
            ok = all(v == cert.upper for v in values.values())
            items.append(
                CheckItem(
                    entry.name,
                    "ordering-value",
                    ok,
                    f"stored orderings give {sorted(values.values())}, certified {cert.upper}",
                )
            )
        else:
            attained = min(values.values())
            items.append(
                CheckItem(
                    entry.name,
                    "upper-witness",
                    attained == cert.upper,
                    f"best stored ordering gives {attained}, certified upper {cert.upper}",
                )
            )
            floor = max(floors.values())
            items.append(
                CheckItem(
                    entry.name,
                    "lower-rules",
                    floor == cert.lower,
                    f"floor rules give {floor}, certified lower {cert.lower}",
                )
            )
        if entry.heegaard_genus is not None and entry.m == 3:
            cap = nu.heegaard_upper(entry.heegaard_genus)
            items.append(
                CheckItem(
                    entry.name,
                    "splitting-cap",
                    cert.upper <= cap,
                    f"certified upper {cert.upper} <= 2g+2 = {cap}",
                )
            )
    return items


def _scenario_strict_drop() -> list[CheckItem]:
    # Two genus-one handlebodies glued along their torus boundaries close up
    # into a sphere: the concatenated ordering still pays 4, the sphere's
    # certificate says 2, and the checker must keep the two numbers apart.
    solid = lookup("solid-torus")
    first = dict(solid.traces)["empty"]
    second = dict(solid.traces)["torus"]
    glue = union.GlueSpec((("h:2", "base:0"),))
    report = union.check_key_inequality(first, second, glue)
    certified = lookup("s3").certified
    assert certified is not None
    items = [
        CheckItem(
            "solid-torus",
            "union-inequality",
            report.holds and report.lhs == 4 and report.rhs == 4,
            f"composite ordering value {report.lhs} <= max(parts) {report.rhs} [{report.case}]",
        ),
        CheckItem(
            "solid-torus",
            "strict-drop",
            certified.upper == 2 and certified.upper < report.lhs,
            f"certified sphere value {certified.upper} < composite ordering value {report.lhs}; "
            "the ordering number never overwrites the certificate",
        ),
    ]
    return items


def _scenario_doubled_half() -> list[CheckItem]:
    entry = lookup("s1xsigma2")
    half = dict(entry.traces)["half-empty"]
    dual = dict(entry.traces)["half-torus"]
    forward = [list(live.values()) for live in replay(half)]
    backward = [list(live.values()) for live in replay(dual)]
    reversed_ok = forward == backward[::-1]
    glue = union.GlueSpec((("h:6", "base:0"),))
    report = union.check_key_inequality(half, dual, glue)
    assert entry.heegaard_genus is not None
    cap = nu.heegaard_upper(entry.heegaard_genus)
    return [
        CheckItem(
            "s1xsigma2",
            "dual-reverses",
            reversed_ok,
            "dual replay walks the original boundary sequence backwards",
        ),
        CheckItem(
            "s1xsigma2",
            "double-attains-8",
            report.holds and report.lhs == 8,
            f"doubling the half gives a closed ordering of value {report.lhs}",
        ),
        CheckItem(
            "s1xsigma2",
            "beats-splitting-cap",
            report.lhs < cap,
            f"{report.lhs} < 2g+2 = {cap} for the asserted splitting genus",
        ),
    ]


def _scenario_quiet_double() -> list[CheckItem]:
    entry = lookup("double-tangent-s2")
    trace = entry.traces[0][1]
    middles = [desc for live in replay(trace)[1:-1] for desc in live.values()]
    quiet = all(total_betti(desc) == 2 for desc in middles)
    return [
        CheckItem(
            "double-tangent-s2",
            "middle-boundaries-quiet",
            quiet,
            "all intermediate boundaries have total Betti 2: "
            + ", ".join(pretty(desc) for desc in middles),
        )
    ]


def _scenario_dimension3_consistency() -> list[CheckItem]:
    items = []
    for name in names():
        entry = lookup(name)
        cert = entry.certified
        if entry.m != 3 or cert is None or cert.scope == "ordering":
            continue
        ok = cert.lower % 2 == 0 and cert.lower >= 2 and (cert.lower > 2 or name == "s3")
        items.append(
            CheckItem(
                name,
                "dimension-3-consistency",
                ok,
                f"certified [{cert.lower}, {cert.upper}]: even, >= 2, and 2 only for the sphere",
            )
        )
    return items


def verify_all() -> CatalogReport:
    """Recompute every certification from its stored witnesses; deterministic."""
    items: list[CheckItem] = []
    for name in names():
        items.extend(_entry_items(lookup(name)))
    items.extend(_scenario_strict_drop())
    items.extend(_scenario_doubled_half())
    items.extend(_scenario_quiet_double())
    items.extend(_scenario_dimension3_consistency())
    return CatalogReport(tuple(items))
