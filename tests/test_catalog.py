import pytest

from handlenu.catalog import (
    connected_sum_genus_one_trace,
    genus_one_trace,
    lookup,
    names,
    verify_all,
)
from handlenu.nu import lower_bound_rules, nu_of_ordering, search_min_nu
from handlenu.trace import (
    Dim3Three,
    HandleRecord,
    OrderedHandleDecomposition,
    final_boundary,
    trace_from_json,
    trace_to_json,
    validate,
)


def test_lookup_known_entries():
    s3 = lookup("s3")
    assert s3.certified is not None
    assert (s3.certified.lower, s3.certified.upper) == (2, 2)
    assert s3.heegaard_genus == 0

    rp = lookup("rp3-sum-2")
    assert rp.certified is not None and rp.certified.upper == 4
    assert rp.heegaard_genus == 2

    prod = lookup("s1xsigma2")
    assert prod.certified is not None
    assert (prod.certified.lower, prod.certified.upper) == (4, 8)
    assert prod.heegaard_genus == 5 and prod.heegaard_asserted


def test_lookup_unknown_entry():
    with pytest.raises(KeyError):
        lookup("bottle")


def test_all_entries_validate_and_round_trip():
    for name in names():
        entry = lookup(name)
        for label, trace in entry.traces:
            assert validate(trace).ok, (name, label)
            assert trace_from_json(trace_to_json(trace)) == trace


def test_sphere_entries_cover_dimensions_3_to_6():
    for m in (3, 4, 5, 6):
        entry = lookup(f"s{m}")
        assert entry.m == m
        bound = search_min_nu(entry.traces[0][1])
        assert (bound.lower, bound.upper, bound.exhaustive) == (2, 2, True)


def test_connected_sum_family_stays_at_four():
    for n in (1, 2, 3):
        trace = connected_sum_genus_one_trace(n)
        assert nu_of_ordering(trace).nu == 4
        assert lower_bound_rules(trace, final_boundary(trace))[0] == 4


def test_verify_all_passes_and_is_deterministic():
    first = verify_all()
    second = verify_all()
    assert first.ok, [item for item in first.items if not item.ok]
    assert first == second


def test_verify_all_contains_the_headline_scenarios():
    checks = {(item.entry, item.check) for item in verify_all().items}
    assert ("solid-torus", "strict-drop") in checks
    assert ("s1xsigma2", "double-attains-8") in checks
    assert ("s1xsigma2", "dual-reverses") in checks
    assert ("double-tangent-s2", "middle-boundaries-quiet") in checks


def test_tampered_trace_is_caught():
    good = genus_one_trace()
    tampered = OrderedHandleDecomposition(
        good.m, good.base, (HandleRecord(3, Dim3Three("h:1")),) + good.handles[1:]
    )
    report = validate(tampered)
    assert not report.ok
    assert any(v.mu == 1 for v in report.violations)
