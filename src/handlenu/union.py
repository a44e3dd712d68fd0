"""Boundary unions: concatenate two decompositions along matched components.

The construction mirrors how the inequality for unions is proved: take a
decomposition of the first part over base A, a decomposition of the second
part over base B + C where C is the interface, identify C with the first
part's final free boundary, and run all of the first part's handles before
all of the second part's.  The composite is an ordinary decomposition over
A + B, so everything downstream (replay, ordering values, search) applies
to it unchanged.

The checker compares the composite's ordering value against the maximum of
the two parts' ordering values.  A failure of that comparison is impossible
for well-formed inputs; when it happens it signals an engine bug and
callers are expected to fail hard.
"""

from __future__ import annotations

from typing import Mapping

from .homology import Descriptor, Record, desc_equal, pretty
from .nu import NuEvaluation, evaluate, nu_of_ordering
from .trace import (
    Declared,
    HandleRecord,
    OrderedHandleDecomposition,
    TraceError,
    final_boundary,
    rename_anchor,
    validated,
)


class GlueError(ValueError):
    """Raised when a glue specification does not fit the two parts."""


class GlueSpec(Record):
    """Pairs (first part's final component id, second part's base id).

    The pairing must be injective on both sides and pair components with
    equal descriptors.  Any number of interface components is allowed.
    """

    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[str, str], ...]):
        pairs = tuple((a, b) for a, b in pairs)
        if any(type(c) is not str for pair in pairs for c in pair):
            raise GlueError(f"glue ids must be strings: {pairs}")
        if not pairs:
            raise GlueError("glue specification needs at least one pair")
        left = [a for a, _ in pairs]
        right = [b for _, b in pairs]
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise GlueError(f"glue pairing must be injective on both sides: {pairs}")
        super().__init__(pairs)


def _evaluate_part(d: OrderedHandleDecomposition, part: str) -> tuple[NuEvaluation, dict]:
    """``nu.evaluate(d)`` from the walk that validates ``d``; TraceError if it is invalid."""
    report, result = validated(d, evaluate)
    if not report.ok:
        v = report.violations[0]
        raise TraceError(f"{part} is invalid (prefix {v.mu}): {v.message}")
    return result


def compose(
    dm: OrderedHandleDecomposition,
    dn: OrderedHandleDecomposition,
    glue: GlueSpec,
    *,
    final: Mapping[str, Descriptor] | None = None,
) -> OrderedHandleDecomposition:
    """Concatenate: first part's handles, then the second part's, re-anchored.

    The second part's base splits into glued components (matched against the
    first part's final free boundary) and the rest, which joins the composite
    base.  Anchors into glued base components are rewritten to the matching
    first-part ids; internal second-part anchors shift past the first part's
    handles, so id collisions cannot occur.  Declared records in the second
    part additionally carry the unglued first-part remainder, which stays
    free boundary throughout the suffix; declared records in the first part
    likewise carry the unglued second-part base, which stays free boundary
    throughout the prefix.

    ``final`` is the dict a walk of the first part ends with, read in its own
    order, which is id order; without it, compose walks the first part.
    """
    if dm.m != dn.m:
        raise GlueError(f"ambient dimensions differ: {dm.m} vs {dn.m}")
    final_by_id = final_boundary(dm) if final is None else final

    # Second-part event ids to composite ids.
    relabel = {f"h:{j}": f"h:{dm.delta + j}" for j in range(1, dn.delta + 1)}
    for m_id, n_id in glue.pairs:
        if m_id not in final_by_id:
            raise GlueError(
                f"first part has no final boundary component {m_id!r}; "
                f"components: {list(final_by_id)}"
            )
        digits = n_id[5:] if n_id.startswith("base:") else ""
        # Only "base:<i>" in canonical form: "base:00" would glue base:0 and keep it free.
        if not (digits.isascii() and digits.isdigit()) or n_id != f"base:{int(digits)}":
            raise GlueError(f"second-side glue target must be a base id, got {n_id!r}")
        idx = int(digits)
        if not 0 <= idx < len(dn.base):
            raise GlueError(f"second part base has no component {n_id!r}")
        if not desc_equal(final_by_id[m_id], dn.base[idx]):
            raise GlueError(
                f"descriptor mismatch on pair ({m_id}, {n_id}): "
                f"{pretty(final_by_id[m_id])} vs {pretty(dn.base[idx])}"
            )
        relabel[n_id] = m_id

    kept = [i for i in range(len(dn.base)) if f"base:{i}" not in relabel]
    kept_base = tuple(dn.base[i] for i in kept)
    handles, carried = [], [f"base:{len(dm.base) + k}" for k in range(len(kept))]
    for j, handle in enumerate(dm.handles, start=1):
        att = handle.attachment
        if isinstance(att, Declared):
            carried = [f"h:{j}/{len(att.components) + k}" for k in range(len(kept))]
            handle = HandleRecord(handle.index, Declared(att.components + kept_base))
        handles.append(handle)
    relabel.update(zip((f"base:{i}" for i in kept), carried))

    glued = {m_id for m_id, _ in glue.pairs}
    remainder = tuple(desc for c, desc in final_by_id.items() if c not in glued)

    def remap(anchor: str) -> str:
        renamed = rename_anchor(anchor, relabel)
        if renamed is None:
            raise GlueError(f"second part anchors unknown component {anchor!r}")
        return renamed

    for handle in dn.handles:
        att = handle.attachment.map_anchors(remap)
        if isinstance(att, Declared):
            att = Declared(att.components + remainder)
        handles.append(HandleRecord(handle.index, att))
    return OrderedHandleDecomposition(dm.m, dm.base + kept_base, tuple(handles))


class InequalityReport(Record):
    """Outcome of checking the composite against max of the parts.

    ``case`` tells where the composite's maximum was attained:
    ``second-suffix`` (inside the second part's handles), ``first-prefix``
    (inside the first part's replay), or ``base-component`` (a preserved
    base component of the second part, bounded through that part's initial
    boundary).  All values are ordering-level numbers; none of them is the
    minimized invariant of the underlying manifolds.
    """

    __slots__ = _fields = (
        "lhs", "rhs", "nu_first", "nu_second", "holds", "case", "steps", "composite",
    )


def check_key_inequality(
    dm: OrderedHandleDecomposition,
    dn: OrderedHandleDecomposition,
    glue: GlueSpec,
) -> InequalityReport:
    """Build the concatenated ordering and verify lhs <= max(parts).

    Each part and the composite is walked once; each part's walk validates
    it, and the first part's also gives compose its final boundary.
    """
    first, final = _evaluate_part(dm, "first part")
    second, _ = _evaluate_part(dn, "second part")
    composite = compose(dm, dn, glue, final=final)
    nu_first, nu_second = first.nu, second.nu
    evaluation = nu_of_ordering(composite)
    lhs = evaluation.nu
    rhs = max(nu_first, nu_second)
    alpha = dm.delta

    steps = [
        f"first part ordering value = {nu_first}",
        f"second part ordering value = {nu_second}",
        f"composite ordering value = {lhs} at prefix {evaluation.argmax_mu} "
        f"(component {evaluation.argmax_component})",
    ]
    mu = evaluation.argmax_mu
    comp_id = evaluation.argmax_component
    # compose glues into the first part's final boundary, so the composite has a
    # base component or a handle, and mu is a considered prefix.
    if mu > alpha:
        case = "second-suffix"
        steps.append(
            f"maximum sits after the first part's {alpha} handles, so it is one of "
            f"the second part's boundary values: {lhs} <= {nu_second}"
        )
    elif comp_id is not None and comp_id.startswith("base:") and int(comp_id[5:]) >= len(dm.base):
        case = "base-component"
        e0_second = second.e_values[0]
        steps.append(
            f"maximum is a preserved base component of the second part with total "
            f"Betti {lhs}; it already appears in that part's initial boundary, "
            f"so {lhs} <= {e0_second} <= {nu_second}"
        )
        steps.append(f"chain checks: {lhs <= e0_second} and {e0_second <= nu_second}")
    else:
        case = "first-prefix"
        steps.append(
            f"maximum sits inside the first part's replay, so {lhs} <= {nu_first}"
        )
    holds = lhs <= rhs
    steps.append(f"{lhs} <= max({nu_first}, {nu_second}) = {rhs}: {holds}")
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        nu_first=nu_first,
        nu_second=nu_second,
        holds=holds,
        case=case,
        steps=tuple(steps),
        composite=composite,
    )
