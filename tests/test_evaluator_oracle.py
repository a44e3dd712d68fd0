"""The one-walk evaluator (``nu.evaluate`` / ``nu_of_ordering``) and the
walk-built ``replay`` against the replay they replaced, kept here as the
oracle: a state-copying ``attach`` with its own switch over attachment kinds,
a ``replay`` that calls it once per handle, each state a new dict of the live
components by id, and ``e_mu`` scanning every state.  ``dualize`` is checked
against its form over id-sorted states of that replay.  The floor rules,
which read the handles, are checked against the reading of every component
a walk shows, and the search against replay's errors.  Validation inside the
evaluating walk (``trace.validated``) is checked against ``validate`` as its
own walk followed by ``evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from hypothesis import given, seed, settings, strategies as st
import pytest

from handlenu.catalog import lookup, names
from handlenu.homology import (
    ConnectedSum,
    Explicit,
    HomologyVector,
    Product,
    Sphere,
    Surface,
    normalize,
    palindromic,
    pretty,
    total_betti,
)
from handlenu.nu import (
    _forces_positive_genus,
    evaluate,
    lower_bound_rules,
    nu_of_ordering,
    search_min_nu,
)
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
    ValidationReport,
    Violation,
    dualize,
    final_boundary,
    id_sort_key,
    map_anchors,
    replay,
    trace_to_json,
    validate,
    validated,
    walk,
)
from gen import random_descriptor, random_trace


# --- oracle: the state-copying replay -----------------------------------------


@dataclass(frozen=True)
class BoundaryComponent:
    """The oracle's record of one free-boundary component."""

    id: str
    desc: object


def by_id(state):
    """An oracle state as the engine holds it: descriptors by id, in the same order."""
    return {c.id: c.desc for c in state.values()}


def _surface(genus):
    return Sphere(2) if genus == 0 else Surface(genus)


def _genus_of(comp):
    desc = normalize(comp.desc)
    if isinstance(desc, Sphere) and desc.n == 2:
        return 0
    if isinstance(desc, Surface):
        return desc.genus
    raise AttachError(f"component {comp.id} ({pretty(comp.desc)}) is not an orientable surface")


def _resolve(state, anchor):
    comp = state.get(anchor)
    if comp is None:
        live_ids = sorted(state, key=id_sort_key)
        raise AttachError(f"dangling anchor {anchor!r}; live components: {live_ids}")
    return comp


def oracle_attach(state, handle, *, label, m):
    att = handle.attachment
    if not isinstance(att, Declared) and m != 3:
        raise AttachError(
            f"surface-calculus attachments need ambient dimension 3, trace has m={m}"
        )
    keep = dict(state)
    if isinstance(att, Dim3Zero):
        new = [BoundaryComponent(label, Sphere(2))]
    elif isinstance(att, Dim3One):
        ca = _resolve(state, att.a)
        if att.a == att.b:
            genus = _genus_of(ca) + 1
            del keep[ca.id]
        else:
            cb = _resolve(state, att.b)
            genus = _genus_of(ca) + _genus_of(cb)
            del keep[ca.id], keep[cb.id]
        new = [BoundaryComponent(label, _surface(genus))]
    elif isinstance(att, Dim3Two):
        ca = _resolve(state, att.anchor)
        genus = _genus_of(ca)
        del keep[ca.id]
        if isinstance(att.curve, NonSeparating):
            if genus < 1:
                raise AttachError(f"non-separating surgery needs genus >= 1; {ca.id} is a sphere")
            new = [BoundaryComponent(label, _surface(genus - 1))]
        else:
            if att.curve.g1 + att.curve.g2 != genus:
                raise AttachError(
                    f"separating split ({att.curve.g1}, {att.curve.g2}) does not add up "
                    f"to genus {genus} of {ca.id}"
                )
            new = [
                BoundaryComponent(f"{label}/0", _surface(att.curve.g1)),
                BoundaryComponent(f"{label}/1", _surface(att.curve.g2)),
            ]
    elif isinstance(att, Dim3Three):
        ca = _resolve(state, att.anchor)
        if _genus_of(ca) != 0:
            raise AttachError(f"a cap may only close a sphere; {ca.id} is {pretty(ca.desc)}")
        del keep[ca.id]
        new = []
    else:
        keep = {}
        new = [BoundaryComponent(f"{label}/{i}", desc) for i, desc in enumerate(att.components)]
    return {**keep, **{c.id: c for c in new}}


def oracle_replay(d):
    states = [{f"base:{i}": BoundaryComponent(f"base:{i}", desc) for i, desc in enumerate(d.base)}]
    for j, handle in enumerate(d.handles, start=1):
        try:
            states.append(oracle_attach(states[-1], handle, label=f"h:{j}", m=d.m))
        except AttachError as exc:
            raise ReplayError(j, str(exc)) from exc
    return tuple(states)


def oracle_e_mu(state):
    return max((total_betti(c.desc) for c in state.values()), default=0)


def oracle_nu_of_ordering(d):
    states = oracle_replay(d)
    e_values = tuple(oracle_e_mu(s) for s in states)
    mu_start = 0 if d.base else 1
    considered = e_values[mu_start:]
    if not considered:
        return e_values, mu_start, 0, None, None
    nu = max(considered)
    argmax_mu = next(i for i in range(mu_start, len(e_values)) if e_values[i] == nu)
    comp = next(
        (c.id for c in states[argmax_mu].values() if total_betti(c.desc) == nu), None
    )
    return e_values, mu_start, nu, argmax_mu, comp


# --- comparison ------------------------------------------------------------------


def outcome(fn, d):
    try:
        return ("ok", fn(d))
    except ReplayError as exc:
        return ("ReplayError", exc.mu, str(exc))


def fields(evaluation):
    return (
        evaluation.e_values,
        evaluation.mu_start,
        evaluation.nu,
        evaluation.argmax_mu,
        evaluation.argmax_component,
    )


def assert_matches_oracle(d):
    """Compare, and return whether the replay failed."""
    want = outcome(oracle_nu_of_ordering, d)
    assert outcome(lambda t: fields(nu_of_ordering(t)), d) == want
    want_states = outcome(lambda t: tuple(by_id(s) for s in oracle_replay(t)), d)
    got_states = outcome(replay, d)
    assert got_states == want_states
    if want[0] == "ReplayError":
        assert not validate(d).ok
        return True
    # The same components in the same order, prefix by prefix.
    assert [list(s.items()) for s in got_states[1]] == [list(s.items()) for s in want_states[1]]
    final = want_states[1][-1]
    assert evaluate(d)[1] == final == final_boundary(d)
    return False


def broken(rng, d):
    """A variant of ``d`` whose replay may fail: handles moved out of order,
    an anchor sent nowhere, or a surface move in dimension 4."""
    handles = list(d.handles)
    choice = rng.randrange(3)
    if choice == 0 and len(handles) > 1:
        rng.shuffle(handles)
    elif choice == 1 and handles:
        j = rng.randrange(len(handles))
        handles[j] = HandleRecord(3, Dim3Three(f"h:{len(handles) + 5}"))
    else:
        return OrderedHandleDecomposition(4, d.base, d.handles)
    return OrderedHandleDecomposition(d.m, d.base, tuple(handles))


def test_evaluator_matches_oracle_on_seeded_traces():
    rng = random.Random(20251018)
    for _ in range(400):
        d = random_trace(rng, max_handles=10, declared=0.25)
        assert_matches_oracle(d)


def test_evaluator_matches_oracle_on_failing_replays():
    rng = random.Random(4242)
    failures = 0
    for _ in range(300):
        d = broken(rng, random_trace(rng, max_handles=8, declared=0.2))
        failures += assert_matches_oracle(d)
    assert failures > 50


@seed(1018)
@settings(max_examples=150, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    declared=st.sampled_from([0.0, 0.3]),
    breaking=st.booleans(),
)
def test_evaluator_matches_oracle_hypothesis(rng, declared, breaking):
    d = random_trace(rng, max_handles=9, declared=declared)
    assert_matches_oracle(broken(rng, d) if breaking else d)


# --- surfaces the generators never spell: read in normal form ------------------

# Spellings of a sphere and a genus-two surface, and of three components that
# are not orientable surfaces in normal form, though two name the torus.
SURFACE_SPELLINGS = (Surface(0), ConnectedSum((Sphere(2), Surface(2))))
NOT_SURFACES = (
    ConnectedSum((Surface(1), Surface(1))),
    Product(Sphere(1), Sphere(1)),
    Explicit(2, HomologyVector(2, (1, 2, 1))),
)


def holders(desc):
    """(handles that put ``desc`` on the boundary, its id): the base, a
    one-component ``Declared`` record, or the second of two declared."""
    yield OrderedHandleDecomposition(3, (desc,), ()), "base:0"
    for before in ((), (Sphere(2),)):
        record = HandleRecord(2, Declared(before + (desc,)))
        yield OrderedHandleDecomposition(3, (), (record,)), f"h:1/{len(before)}"


def moves(x, genus):
    """Handle lists that read component ``x`` of genus ``genus`` first, legal
    or not; ``{prev}`` names the component the handle before made."""
    sphere = HandleRecord(0, Dim3Zero())
    yield [HandleRecord(1, Dim3One(x, x)), HandleRecord(2, Dim3Two("{prev}", NonSeparating()))]
    yield [sphere, HandleRecord(1, Dim3One(x, "{prev}"))]
    yield [sphere, HandleRecord(1, Dim3One("{prev}", x))]
    yield [HandleRecord(1, Dim3One(x, "h:99"))]  # dangling: reported before the genus
    yield [HandleRecord(2, Dim3Two(x, NonSeparating()))]
    for g1 in range(genus + 2):
        yield [HandleRecord(2, Dim3Two(x, Separating(g1, max(genus - g1, 0))))]
    yield [HandleRecord(3, Dim3Three(x))]


def spelled_traces(desc, genus):
    for held, x in holders(desc):
        for handles in moves(x, genus):
            records, offset = list(held.handles), held.delta
            for k, h in enumerate(handles, start=offset + 1):
                att = map_anchors(h.attachment, lambda a: f"h:{k - 1}" if a == "{prev}" else a)
                records.append(HandleRecord(h.index, att))
            yield OrderedHandleDecomposition(3, held.base, tuple(records))


@pytest.mark.parametrize(
    "desc, genus", [(SURFACE_SPELLINGS[0], 0), (SURFACE_SPELLINGS[1], 2)],
    ids=["Surface(0)", "S^2 # Sigma_2"],
)
def test_spelled_surfaces_match_the_oracle(desc, genus):
    replayed = failed = 0
    for d in spelled_traces(desc, genus):
        if assert_matches_oracle(d):
            failed += 1
            continue
        replayed += 1
        assert trace_to_json(dualize(d)) == trace_to_json(oracle_dualize(d))
    assert replayed >= 9 and failed >= 6, (replayed, failed)


@pytest.mark.parametrize("desc", NOT_SURFACES, ids=pretty)
def test_components_that_are_not_surfaces_fail_as_in_the_oracle(desc):
    texts = set()
    for d in spelled_traces(desc, 1):
        assert assert_matches_oracle(d)  # the same ReplayError prefix and text
        _, mu, text = outcome(replay, d)
        texts.add(text[len(f"prefix {mu}: "):])
    x_texts = {t for t in texts if not t.startswith("dangling anchor")}
    assert len(texts) - len(x_texts) == 3  # one dangling anchor per holder
    assert {t.split(" (", 1)[1] for t in x_texts} == {f"{pretty(desc)}) is not an orientable surface"}


@pytest.mark.parametrize("handle", [
    HandleRecord(0, Dim3Zero()),
    HandleRecord(1, Dim3One("base:0", "base:0")),
    HandleRecord(2, Dim3Two("base:0", NonSeparating())),
    HandleRecord(2, Dim3Two("base:0", Separating(0, 0))),
    HandleRecord(3, Dim3Three("base:0")),
], ids=["zero", "one", "two-nonseparating", "two-separating", "three"])
def test_surface_calculus_in_dimension_four_fails_as_in_the_oracle(handle):
    for before in ((), (HandleRecord(3, Declared((Sphere(3),))),)):
        d = OrderedHandleDecomposition(4, (Sphere(3),), before + (handle,))
        assert assert_matches_oracle(d)
        mu = len(before) + 1
        assert outcome(replay, d) == (
            "ReplayError", mu,
            f"prefix {mu}: surface-calculus attachments need ambient dimension 3, trace has m=4",
        )


# --- oracle: dualize over id-sorted states ----------------------------------------


def oracle_dualize(d):
    """``dualize`` as it was when replay built sorted states: each state of the
    state-copying replay as its components in id order, searched by id."""
    states = [tuple(sorted(s.values(), key=lambda c: id_sort_key(c.id))) for s in oracle_replay(d)]

    def find(state, comp_id):
        return next(c for c in state if c.id == comp_id)

    final = states[-1]
    dual_base = tuple(c.desc for c in final)
    dmap = {c.id: f"base:{i}" for i, c in enumerate(final)}
    dual_handles = []
    for new_pos, orig_pos in enumerate(range(d.delta, 0, -1), start=1):
        handle = d.handles[orig_pos - 1]
        label = f"h:{new_pos}"
        before = states[orig_pos - 1]
        att = handle.attachment
        if isinstance(att, Dim3Zero):
            datt = Dim3Three(dmap.pop(f"h:{orig_pos}"))
        elif isinstance(att, Dim3Three):
            datt = Dim3Zero()
            dmap[att.anchor] = label
        elif isinstance(att, Dim3One):
            anchor = dmap.pop(f"h:{orig_pos}")
            if att.a == att.b:
                datt = Dim3Two(anchor, NonSeparating())
                dmap[att.a] = label
            else:
                g1 = _genus_of(find(before, att.a))
                g2 = _genus_of(find(before, att.b))
                datt = Dim3Two(anchor, Separating(g1, g2))
                dmap[att.a] = f"{label}/0"
                dmap[att.b] = f"{label}/1"
        elif isinstance(att, Dim3Two):
            if isinstance(att.curve, NonSeparating):
                anchor = dmap.pop(f"h:{orig_pos}")
                datt = Dim3One(anchor, anchor)
            else:
                datt = Dim3One(dmap.pop(f"h:{orig_pos}/0"), dmap.pop(f"h:{orig_pos}/1"))
            dmap[att.anchor] = label
        else:
            datt = Declared(tuple(c.desc for c in before))
            dmap = {c.id: f"{label}/{i}" for i, c in enumerate(before)}
        dual_handles.append(HandleRecord(d.m - handle.index, datt))
    return OrderedHandleDecomposition(d.m, dual_base, tuple(dual_handles))


def dualize_cases():
    rng = random.Random(13013)
    for declared in (0.0, 0.25, 0.5):
        for _ in range(200):
            yield random_trace(rng, max_handles=10, declared=declared)
    for name in names():
        for _, trace in lookup(name).traces:
            yield trace


def test_dualize_matches_the_sorted_state_oracle():
    seen = {"merge": 0, "declared-several": 0}
    for d in dualize_cases():
        assert trace_to_json(dualize(d)) == trace_to_json(oracle_dualize(d))
        prefixes = oracle_replay(d)
        for j, h in enumerate(d.handles):
            att = h.attachment
            seen["merge"] += isinstance(att, Dim3One) and att.a != att.b
            seen["declared-several"] += isinstance(att, Declared) and len(prefixes[j]) > 1
    assert seen["merge"] >= 50 and seen["declared-several"] >= 50, seen


# --- oracle: the floor rules reading every component a walk shows ----------------


def oracle_lower_bound_rules(m, *, closed, oriented, trace):
    # The rules as they read every component a walk shows; the genus rule
    # never replayed, so it is shared.  The parity round-up stays here: the
    # rules dropped it because no floor they can reach is odd unless some
    # stated component has an odd total, which already turns it off.
    floor, reasons = 0, []
    comps = list({c: desc for _, made, _ in walk(trace) for c, desc in made.items()}.values())
    visible = bool(comps)
    orientable_ok = oriented and all(palindromic(desc) for desc in comps)
    evenness_ok = orientable_ok and m == 3 and all(total_betti(desc) % 2 == 0 for desc in comps)
    if closed and m >= 3 and visible and orientable_ok:
        floor = 2
        reasons.append(
            "closed trace: some prefix shows a closed orientable boundary "
            "component, which has total Betti number at least 2"
        )
    if m == 3 and orientable_ok and _forces_positive_genus(trace) and floor < 4:
        floor = 4
        reasons.append(
            "fixed handles force a positive-genus surface boundary in every admissible order"
        )
    declared = max(
        (
            total_betti(desc)
            for h in trace.handles
            if isinstance(h.attachment, Declared)
            for desc in h.attachment.components
        ),
        default=0,
    )
    if declared > floor:
        floor = declared
        reasons.append(
            f"an order-pinned declared boundary component has total Betti number {declared}"
        )
    if m == 3 and evenness_ok and floor % 2 == 1:
        floor += 1
        reasons.append(
            "orientable surface boundaries have even total Betti number; floor rounded up"
        )
    return floor, tuple(reasons)


def stated_descriptors(rng):
    """0-2 closed descriptors: palindromic or not, with odd or even total."""
    return tuple(
        Explicit(2, HomologyVector(2, (1, rng.randint(0, 3), 0)), "lopsided")
        if rng.random() < 0.3
        else random_descriptor(rng)
        for _ in range(rng.randint(0, 2))
    )


def stated_trace(rng):
    """A trace whose base and declared record hold arbitrary descriptors."""
    m = rng.choice((3, 4))
    handles = [HandleRecord(0, Dim3Zero()) for _ in range(rng.randint(0, 2) if m == 3 else 0)]
    if handles and rng.random() < 0.5:
        handles.append(HandleRecord(3, Dim3Three("h:1")))
    if rng.random() < 0.7:
        handles.append(HandleRecord(2, Declared(stated_descriptors(rng))))
    return OrderedHandleDecomposition(m, stated_descriptors(rng), tuple(handles))


def floor_rule_traces():
    rng = random.Random(77)
    for declared in (0.2, 0.5):
        for _ in range(150):
            d = random_trace(rng, max_handles=8, declared=declared)
            yield d
            tail = HandleRecord(2, Declared(stated_descriptors(rng)))
            yield OrderedHandleDecomposition(d.m, d.base, d.handles + (tail,))
    for _ in range(150):
        yield stated_trace(rng)
    for name in names():
        for _, trace in lookup(name).traces:
            if outcome(replay, trace)[0] == "ok":
                yield trace


def test_floor_rules_match_the_walk_based_oracle():
    checked = closed_seen = 0
    for d in floor_rule_traces():
        final = final_boundary(d)
        closed = not d.base and not final
        want = oracle_lower_bound_rules(d.m, closed=closed, oriented=True, trace=d)
        assert lower_bound_rules(d, final) == want
        checked += 1
        closed_seen += closed
    assert checked > 700 and closed_seen >= 100, (checked, closed_seen)


def test_search_raises_the_replay_error_of_a_broken_trace():
    rng = random.Random(5150)
    failures = 0
    for _ in range(200):
        d = broken(rng, random_trace(rng, max_handles=7, declared=0.2))
        want = outcome(replay, d)
        if want[0] != "ReplayError":
            continue
        failures += 1
        for budget in (None, 1, 3):
            assert outcome(lambda t: search_min_nu(t, budget=budget), d) == want
    assert failures > 30


def test_wide_trace_evaluates_in_linear_time():
    # The state-copying replay is quadratic in the live components (about
    # 10 s here); the walk is linear.
    d = OrderedHandleDecomposition(3, (), tuple(HandleRecord(0, Dim3Zero()) for _ in range(4000)))
    evaluation = nu_of_ordering(d)
    assert evaluation.e_values == (0,) + (2,) * 4000
    assert (evaluation.nu, evaluation.argmax_mu, evaluation.argmax_component) == (2, 1, "h:1")


# --- oracle: validation as a walk of its own, before the evaluation -----------

_INDEX = {Dim3Zero: 0, Dim3One: 1, Dim3Two: 2, Dim3Three: 3}


def oracle_validate(d):
    """``validate`` as it was before it shared the caller's walk."""
    violations = []
    warnings = []

    def connected(desc):
        return desc.ranks[:1] == ((0, 1),)

    for i, desc in enumerate(d.base):
        if desc.dim != d.m - 1:
            violations.append(Violation(0, f"base:{i} has dimension {desc.dim}, need {d.m - 1}"))
        elif not connected(desc):
            violations.append(Violation(0, f"base:{i}: components must be connected"))
    for j, handle in enumerate(d.handles, start=1):
        if not 0 <= handle.index <= d.m:
            violations.append(Violation(j, f"handle index {handle.index} outside 0..{d.m}"))
        att = handle.attachment
        if isinstance(att, Declared):
            for i, desc in enumerate(att.components):
                if desc.dim != d.m - 1:
                    violations.append(Violation(
                        j, f"declared component {i} has dimension {desc.dim}, need {d.m - 1}"
                    ))
                elif not connected(desc):
                    violations.append(Violation(j, "components must be connected"))
        else:
            if d.m != 3:
                violations.append(Violation(j, f"surface-calculus attachment in an m={d.m} trace"))
            expected = _INDEX[type(att)]
            if handle.index != expected:
                violations.append(Violation(
                    j, f"attachment {type(att).__name__} needs index {expected}, got {handle.index}"
                ))
    if not violations:
        try:
            final = final_boundary(d)
        except ReplayError as exc:
            violations.append(Violation(exc.mu, str(exc)))
        else:
            euler = sum((-1) ** h.index for h in d.handles)
            if not d.base and not final and d.m == 3 and euler != 0:
                warnings.append(
                    f"closed trace has handle-count alternating sum {euler}, expected 0"
                )
    return ValidationReport(tuple(violations), tuple(warnings))


def structural_mutant(rng, d):
    """A variant of ``d`` that may fail a check made without a walk: a handle
    index moved, a component of the wrong dimension or a disconnected one, or
    the surface moves put in another dimension."""
    handles = list(d.handles)
    choice = rng.randrange(3)
    if choice == 0 and handles:
        j = rng.randrange(len(handles))
        index = rng.choice([-1, d.m + 1, (handles[j].index + 1) % (d.m + 1)])
        handles[j] = HandleRecord(index, handles[j].attachment)
    elif choice == 1:
        wrong = rng.choice([Sphere(1), Sphere(3), Explicit(2, HomologyVector(2, (2, 0, 2)))])
        if handles and rng.random() < 0.5:
            j = rng.randrange(len(handles))
            handles.insert(j, HandleRecord(rng.randint(0, 3), Declared((wrong,))))
        else:
            return OrderedHandleDecomposition(d.m, d.base + (wrong,), d.handles)
    else:
        return OrderedHandleDecomposition(rng.choice([2, 4]), d.base, d.handles)
    return OrderedHandleDecomposition(d.m, d.base, tuple(handles))


def test_validation_in_the_evaluating_walk_matches_validate_then_evaluate():
    rng = random.Random(12012)
    traces = [random_trace(rng, max_handles=9, declared=0.25) for _ in range(200)]
    traces += [broken(rng, random_trace(rng, max_handles=8, declared=0.2)) for _ in range(150)]
    traces += [
        structural_mutant(rng, random_trace(rng, max_handles=8, declared=0.2)) for _ in range(150)
    ]
    seen = {"ok": 0, "warned": 0, "replay": 0, "static": 0}
    for d in traces:
        want = oracle_validate(d)
        report, result = validated(d, evaluate)
        assert report == want == validate(d)
        if not report.ok:
            assert result is None
            seen["replay" if report.violations[0].message.startswith("prefix ") else "static"] += 1
            continue
        evaluation, final = evaluate(d)
        assert fields(result[0]) == fields(evaluation)
        assert result[1] == final
        seen["ok"] += 1
        seen["warned"] += bool(report.warnings)
    assert min(seen.values()) >= 5, seen
