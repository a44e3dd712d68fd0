"""The one-walk evaluator (``nu.evaluate`` / ``nu_of_ordering``) and the
walk-built ``replay`` against the replay they replaced, kept here as the
oracle: a state-copying ``attach`` with its own switch over attachment kinds,
a ``replay`` that calls it once per handle, and ``e_mu`` scanning every state.
"""

from __future__ import annotations

import random

from hypothesis import given, seed, settings, strategies as st

from handlenu.homology import Sphere, Surface, normalize, pretty, total_betti
from handlenu.nu import evaluate, lower_bound_rules, nu_of_ordering
from handlenu.trace import (
    AttachError,
    BoundaryComponent,
    BoundaryState,
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Two,
    Dim3Zero,
    HandleRecord,
    NonSeparating,
    OrderedHandleDecomposition,
    ReplayError,
    base_state,
    final_boundary,
    replay,
    validate,
)
from gen import random_trace


# --- oracle: the state-copying replay -----------------------------------------


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
    comp = state.find(anchor)
    if comp is None:
        raise AttachError(f"dangling anchor {anchor!r}; live components: {list(state.ids())}")
    return comp


def oracle_attach(state, handle, *, label, m):
    att = handle.attachment
    if not isinstance(att, Declared) and m != 3:
        raise AttachError(
            f"surface-calculus attachments need ambient dimension 3, trace has m={m}"
        )
    keep = {c.id: c for c in state.components}
    if isinstance(att, Dim3Zero):
        new = [BoundaryComponent(label, Sphere(2), label)]
    elif isinstance(att, Dim3One):
        ca = _resolve(state, att.a)
        if att.a == att.b:
            genus = _genus_of(ca) + 1
            del keep[ca.id]
        else:
            cb = _resolve(state, att.b)
            genus = _genus_of(ca) + _genus_of(cb)
            del keep[ca.id], keep[cb.id]
        new = [BoundaryComponent(label, _surface(genus), label)]
    elif isinstance(att, Dim3Two):
        ca = _resolve(state, att.anchor)
        genus = _genus_of(ca)
        del keep[ca.id]
        if isinstance(att.curve, NonSeparating):
            if genus < 1:
                raise AttachError(f"non-separating surgery needs genus >= 1; {ca.id} is a sphere")
            new = [BoundaryComponent(label, _surface(genus - 1), label)]
        else:
            if att.curve.g1 + att.curve.g2 != genus:
                raise AttachError(
                    f"separating split ({att.curve.g1}, {att.curve.g2}) does not add up "
                    f"to genus {genus} of {ca.id}"
                )
            new = [
                BoundaryComponent(f"{label}/0", _surface(att.curve.g1), label),
                BoundaryComponent(f"{label}/1", _surface(att.curve.g2), label),
            ]
    elif isinstance(att, Dim3Three):
        ca = _resolve(state, att.anchor)
        if _genus_of(ca) != 0:
            raise AttachError(f"a cap may only close a sphere; {ca.id} is {pretty(ca.desc)}")
        del keep[ca.id]
        new = []
    else:
        keep = {}
        new = [
            BoundaryComponent(f"{label}/{i}", desc, label)
            for i, desc in enumerate(att.components)
        ]
    return BoundaryState(state.mu + 1, tuple(keep.values()) + tuple(new))


def oracle_replay(d):
    states = [base_state(d)]
    for j, handle in enumerate(d.handles, start=1):
        try:
            states.append(oracle_attach(states[-1], handle, label=f"h:{j}", m=d.m))
        except AttachError as exc:
            raise ReplayError(j, str(exc)) from exc
    return tuple(states)


def oracle_e_mu(state):
    return max((total_betti(c.desc) for c in state.components), default=0)


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
        (c.id for c in states[argmax_mu].components if total_betti(c.desc) == nu), None
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
    want_states = outcome(oracle_replay, d)
    assert outcome(replay, d) == want_states
    if want[0] == "ReplayError":
        assert not validate(d).ok
        return True
    final = {c.id: c for c in want_states[1][-1].components}
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


def test_floor_rules_read_the_same_components_from_a_walk_and_from_states():
    rng = random.Random(77)
    for _ in range(150):
        d = random_trace(rng, max_handles=8, declared=0.2)
        for closed in (False, True):
            walked = lower_bound_rules(d.m, closed=closed, trace=d)
            assert walked == lower_bound_rules(d.m, closed=closed, trace=d, states=replay(d))


def test_wide_trace_evaluates_in_linear_time():
    # The state-copying replay is quadratic in the live components (about
    # 10 s here); the walk is linear.
    d = OrderedHandleDecomposition(3, (), tuple(HandleRecord(0, Dim3Zero()) for _ in range(4000)))
    evaluation = nu_of_ordering(d)
    assert evaluation.e_values == (0,) + (2,) * 4000
    assert (evaluation.nu, evaluation.argmax_mu, evaluation.argmax_component) == (2, 1, "h:1")
