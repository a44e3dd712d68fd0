from contextlib import contextmanager
import json
import math
import random
import sys

import pytest

from handlenu.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_THEOREM,
    EXIT_USAGE,
    inequality_exit_code,
    main,
)
from handlenu.catalog import lookup, solid_torus_trace
from handlenu.homology import Sphere
from handlenu.trace import (
    Dim3One,
    Dim3Two,
    Dim3Zero,
    HandleRecord,
    NonSeparating,
    OrderedHandleDecomposition,
    canonical_dumps,
    dualize,
    trace_from_json,
    trace_to_json,
)
from gen import DEFECTS, count_steps, random_trace, with_defect


def write_trace(tmp_path, name, trace):
    path = tmp_path / name
    path.write_text(canonical_dumps(trace_to_json(trace)))
    return str(path)


@pytest.fixture
def lens_file(tmp_path):
    return write_trace(tmp_path, "lens.json", lookup("lens").traces[0][1])


def test_compute_prints_table_and_marks_argmax(lens_file, capsys):
    assert main(["compute", lens_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nu(ordering) = 4" in out
    assert "* " in out and "T^2" in out


def test_compute_json_is_stable(lens_file, capsys):
    assert main(["compute", "--json", lens_file]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["compute", "--json", lens_file]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["result"]["nu"] == 4
    assert doc["result"]["e_values"] == [0, 2, 4, 2, 0]
    assert doc["schema_version"] == 1


def test_search_solid_torus(tmp_path, capsys):
    path = write_trace(tmp_path, "solid.json", solid_torus_trace())
    assert main(["search", path, "--all-orderings"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nu bound: [4, 4]" in out
    assert "exhaustive" in out


def test_search_json_carries_witness(tmp_path, capsys):
    path = write_trace(tmp_path, "solid.json", solid_torus_trace())
    assert main(["search", "--json", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["lower"] == 4 and doc["result"]["upper"] == 4
    witness = trace_from_json(doc["result"]["witness"])
    assert witness.delta == 2


@pytest.mark.parametrize("budget", [[], ["--budget", "1"]])
def test_search_witness_is_the_input_in_its_given_order(tmp_path, capsys, budget):
    rng = random.Random(8207)
    for k in range(40):
        d = random_trace(rng, max_handles=6, declared=0.2 if k % 2 else 0.0)
        path = write_trace(tmp_path, f"t{k}.json", d)
        assert main(["search", "--json", path] + budget) == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["witness"] == trace_to_json(d)
        assert result["witness_order"] == list(range(1, d.delta + 1))


def test_validate_rejects_broken_trace(tmp_path, capsys):
    doc = {
        "m": 3,
        "base": [],
        "handles": [{"index": 3, "attachment": {"type": "three", "anchor": "h:9"}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "violation" in out


def test_validate_accepts_good_trace(lens_file, capsys):
    assert main(["validate", lens_file]) == EXIT_OK
    assert "OK" in capsys.readouterr().out


def test_compute_rejects_invalid_trace(tmp_path, capsys):
    doc = {"m": 3, "base": [], "handles": [{"index": 0, "attachment": {"type": "zero"}},
                                           {"index": 1, "attachment": {"type": "zero"}}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", str(path)]) == EXIT_INVALID


def test_compose_with_check(tmp_path, capsys):
    solid = solid_torus_trace()
    first = write_trace(tmp_path, "m.json", solid)
    second = write_trace(tmp_path, "n.json", dualize(solid))
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps({"pairs": [["h:2", "base:0"]]}))
    out_path = tmp_path / "composite.json"
    code = main(
        ["compose", first, second, "--glue", str(glue), "--check", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "holds" in out
    composite = trace_from_json(json.loads(out_path.read_text()))
    assert composite.delta == 4


def test_compose_bad_glue_is_validation_failure(tmp_path, capsys):
    solid = solid_torus_trace()
    first = write_trace(tmp_path, "m.json", solid)
    second = write_trace(tmp_path, "n.json", dualize(solid))
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps({"pairs": [["h:9", "base:0"]]}))
    assert main(["compose", first, second, "--glue", str(glue)]) == EXIT_INVALID


@pytest.mark.parametrize("target", ["base:00", "base: 0", "base:+0"])
def test_compose_refuses_a_non_canonical_glue_target(tmp_path, capsys, target):
    # int() reads each of these as 0, which glued base:0 of the solid-torus
    # double and still kept it as a free base component of the composite.
    assert main(["catalog", "--export", "solid-torus", "--base", "torus"]) == EXIT_OK
    second = tmp_path / "n.json"
    second.write_text(capsys.readouterr().out)
    first = write_trace(tmp_path, "m.json", solid_torus_trace())
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps({"pairs": [["h:2", target]]}))
    assert main(["compose", first, str(second), "--glue", str(glue), "--check"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"second-side glue target must be a base id, got {target!r}" in captured.err


def compose_with_glue(tmp_path, capsys, glue_doc):
    """Exit code and output of ``compose --check`` gluing the solid torus to its dual."""
    solid = solid_torus_trace()
    first = write_trace(tmp_path, "m.json", solid)
    second = write_trace(tmp_path, "n.json", dualize(solid))
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps(glue_doc))
    code = main(["compose", first, second, "--glue", str(glue), "--check"])
    return (code, *capsys.readouterr())


GLUE_SHAPE = "error: glue file must contain a 'pairs' list of id pairs: "
PAIR_SHAPE = "each pair must be an array of two ids, got "


@pytest.mark.parametrize(
    "pairs, detail",
    [
        ([["h:2", "base:0", "x"]], f"{PAIR_SHAPE}['h:2', 'base:0', 'x']"),
        (["h:"], f"{PAIR_SHAPE}'h:'"),
        ([["h:2"]], f"{PAIR_SHAPE}['h:2']"),
        ([{"h:2": "base:0"}], f"{PAIR_SHAPE}{{'h:2': 'base:0'}}"),
        ("ab", "'pairs' must be an array, got 'ab'"),
        ({}, "'pairs' must be an array, got {}"),
        ([["h:2", "base:0"], ["h:3", 1]], "'pairs[1][1]' must be a string, got 1"),
        ([[None, "base:0"]], "'pairs[0][0]' must be a string, got None"),
    ],
    ids=[f"pairs{i}" for i in range(8)],
)
def test_glue_pairs_must_be_arrays_of_two_ids(tmp_path, capsys, pairs, detail):
    assert compose_with_glue(tmp_path, capsys, {"pairs": pairs}) == (
        EXIT_INVALID, "", f"{GLUE_SHAPE}{detail}\n"
    )


def test_glue_document_must_be_an_object(tmp_path, capsys):
    assert compose_with_glue(tmp_path, capsys, [["h:2", "base:0"]]) == (
        EXIT_INVALID, "", f"{GLUE_SHAPE}the document must be an object, got [['h:2', 'base:0']]\n"
    )


def test_glue_document_without_pairs_says_what_is_missing(tmp_path, capsys):
    assert compose_with_glue(tmp_path, capsys, {}) == (
        EXIT_INVALID, "", f"{GLUE_SHAPE}missing 'pairs'\n"
    )


def test_inequality_exit_code_mapping():
    assert inequality_exit_code(True) == EXIT_OK
    assert inequality_exit_code(False) == EXIT_THEOREM


def test_obstruct(tmp_path, capsys):
    graph = {
        "boundary_counts": [3, 3],
        "interfaces": [{"i": 0, "j": 1, "count": 1}],
        "z": 4,
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert main(["obstruct", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rho = 1" in out and "holds" in out


def test_refute_both_verdicts(capsys):
    assert main(["refute", "--l", "1", "--z", "2", "--hmax", "5", "--hW", "11"]) == EXIT_OK
    assert "refuted" in capsys.readouterr().out
    assert main(["refute", "--l", "1", "--z", "2", "--hmax", "5", "--hW", "10"]) == EXIT_OK
    assert "possible" in capsys.readouterr().out


@pytest.mark.parametrize(
    "l,z,hmax,hw,ceiling,handles", [(0, 0, 0, 0, -2, 0), (0, 1, 5, 3, -1, 0)]
)
def test_refute_below_one_piece_says_no_decomposition_exists(capsys, l, z, hmax, hw,
                                                             ceiling, handles):
    argv = ["refute", "--l", str(l), "--z", str(z), "--hmax", str(hmax), "--hW", str(hw)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (
        "refuted: no qualifying decomposition exists, since the piece ceiling "
        f"2l + z - 2 = {ceiling} < 1\n"
    )
    assert main(argv + ["--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"] == {
        "decomposable_possible": False,
        "max_pieces": ceiling,
        "max_handles": handles,
        "h_w": hw,
    }


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_refute_refuses_a_negative_target_handle_count(capsys, json_flag):
    for l, z in ((1, 2), (0, 0)):  # also where no piece fits
        argv = ["refute", "--l", str(l), "--z", str(z), "--hmax", "5", "--hW", "-3", *json_flag]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr() == (
            "", "error: target handle count must be non-negative, got -3\n"
        )


@pytest.mark.parametrize("field", ["--hmax", "--l", "--z"])
def test_refute_names_negative_budget_fields_in_plain_words(capsys, field):
    values = {"--hmax": "5", "--l": "1", "--z": "2", field: "-1"}
    argv = ["refute", *(part for item in values.items() for part in item), "--hW", "3"]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and "HandleBudget(" not in err
    assert err == (
        "error: budget fields must be non-negative: "
        f"h_max={values['--hmax']}, l={values['--l']}, z={values['--z']}\n"
    )


def test_catalog_listing(capsys):
    assert main(["catalog"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "s3" in out and "solid-torus" in out


def test_catalog_verify(capsys):
    assert main(["catalog", "--verify"]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


def test_catalog_export_round_trips(tmp_path, capsys):
    assert main(["catalog", "--export", "s3"]) == EXIT_OK
    text = capsys.readouterr().out
    parsed = trace_from_json(json.loads(text))
    assert canonical_dumps(trace_to_json(parsed)) == text
    path = tmp_path / "s3.json"
    path.write_text(text)
    assert main(["compute", str(path)]) == EXIT_OK
    assert "nu(ordering) = 2" in capsys.readouterr().out


def test_catalog_export_unknown_name(capsys):
    assert main(["catalog", "--export", "bottle"]) == EXIT_USAGE


def test_catalog_export_selects_base(capsys):
    assert main(["catalog", "--export", "solid-torus", "--base", "torus"]) == EXIT_OK
    parsed = trace_from_json(json.loads(capsys.readouterr().out))
    assert len(parsed.base) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--verify", "--export", "lens"], "argument --export: not allowed with argument --verify"),
        (["--export", "lens", "--verify"], "argument --verify: not allowed with argument --export"),
        (["--base", "torus"], "error: --base needs --export NAME\n"),
        (["--verify", "--json", "--base", "torus"], "error: --base needs --export NAME\n"),
    ],
    ids=["verify-export", "export-verify", "base", "verify-base"],
)
def test_catalog_flags_that_would_be_ignored_are_usage_errors(capsys, argv, message):
    assert main(["catalog", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_usage_errors(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["search", "x.json", "--budget", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("budget", ["abc", "1.5", "", "0", "-3"])
def test_bad_budget_is_a_usage_error_named_in_plain_words(capsys, budget):
    assert main(["search", "x.json", "--budget", budget]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument --budget: must be a positive integer, got {budget}\n" in err
    assert "_positive_int" not in err


def test_missing_file_is_validation_failure(capsys):
    assert main(["compute", "/nonexistent/trace.json"]) == EXIT_INVALID


def test_malformed_documents_are_validation_failures(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text('{"m": 3, "base": [], "handles": "oops"}')
    assert main(["compute", str(garbled)]) == EXIT_INVALID
    not_json = tmp_path / "not.json"
    not_json.write_text("not json")
    assert main(["validate", str(not_json)]) == EXIT_INVALID


def _trace_doc(m=3, index=1, genus=1, sphere_n=2, g1=0, g2=1, explicit_dim=2, betti=(1, 0, 1)):
    """A valid surface-calculus trace whose integer fields can be swapped out."""
    return {
        "m": m,
        "base": [
            {"type": "surface", "genus": genus},
            {"type": "sphere", "n": sphere_n},
            {"type": "explicit", "dim": explicit_dim, "betti": list(betti), "label": "S2"},
        ],
        "handles": [
            {"index": index, "attachment": {"type": "one", "a": "base:0", "b": "base:1"}},
            {"index": 2, "attachment": {"type": "two", "anchor": "h:1",
                                        "curve": {"kind": "separating", "g1": g1, "g2": g2}}},
        ],
    }


def test_strict_loader_accepts_the_valid_document(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_trace_doc()))
    assert main(["search", str(path), "--json"]) == EXIT_OK


@pytest.mark.parametrize(
    "fields",
    [
        {"m": 3.9, "genus": 2.7},
        {"m": 3.0},
        {"m": True},
        {"m": "3"},
        {"index": 1.0},
        {"index": True},
        {"index": "1"},
        {"genus": 2.7},
        {"genus": False},
        {"genus": "1"},
        {"sphere_n": 2.0},
        {"sphere_n": True},
        {"g1": 0.0},
        {"g2": True},
        {"explicit_dim": 2.0},
        {"explicit_dim": "2"},
        {"betti": (1, 0.0, 1)},
        {"betti": (True, 0, 1)},
        {"betti": (1, "0", 1)},
    ],
    ids=lambda fields: ",".join(f"{k}={v!r}" for k, v in fields.items()),
)
def test_non_integer_fields_exit_2_with_a_message(tmp_path, capsys, fields):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_trace_doc(**fields)))
    for argv in (["search", str(path), "--json"], ["compute", str(path)]):
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer" in captured.err


def _set_in(path, value):
    """A mutation of ``_trace_doc()`` that sets the field at ``path``."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_in(("base", 0, "orientable"), "false"), "'orientable' must be a boolean"),
        (_set_in(("base", 0, "orientable"), 1), "'orientable' must be a boolean"),
        (_set_in(("base", 2, "label"), ["x"]), "'label' must be a string"),
        (_set_in(("handles", 0, "attachment", "a"), 0), "'a' must be a string"),
        (_set_in(("handles", 0, "attachment", "b"), ["base:1"]), "'b' must be a string"),
        (_set_in(("handles", 1, "attachment", "anchor"), None), "'anchor' must be a string"),
    ],
    ids=["orientable-string", "orientable-int", "label", "a", "b", "anchor"],
)
def test_non_string_and_non_bool_fields_exit_2_with_a_message(tmp_path, capsys, mutate, message):
    doc = _trace_doc()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_non_orientable_surface_exits_2_with_a_message(tmp_path, capsys):
    doc = _trace_doc()
    doc["base"][0]["orientable"] = False
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-orientable surfaces are only representable as Explicit descriptors" in captured.err


def test_non_palindromic_summand_is_named_in_project_notation(tmp_path, capsys):
    torus_times_k = {
        "type": "product",
        "left": {"type": "surface", "genus": 1},
        "right": {"type": "explicit", "dim": 2, "betti": [1, 1, 0], "label": "k"},
    }
    summed = {"type": "connected-sum", "parts": [torus_times_k, {"type": "sphere", "n": 4}]}
    path = tmp_path / "sum.json"
    path.write_text(json.dumps({"m": 5, "base": [summed], "handles": []}))
    assert main(["compute", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: malformed trace document: connected-sum summands must be closed orientable "
        "(non-palindromic Betti vector in T^2 x k)\n"
    )
    assert "Product(" not in captured.err and "Surface(genus=" not in captured.err


@pytest.mark.parametrize("betti", [[2, 0, 2], [0, 0, 0]])
def test_connected_sum_of_a_summand_that_is_not_connected_exits_2(tmp_path, capsys, betti):
    # On its own the summand is refused as a base component; inside a sum as well.
    split = {"type": "explicit", "dim": 2, "betti": betti}
    summed = {"type": "connected-sum", "parts": [split, {"type": "surface", "genus": 1}]}
    path = tmp_path / "sum.json"
    path.write_text(json.dumps({"m": 3, "base": [summed], "handles": []}))
    for argv in (["compute", "--json", str(path)], ["validate", str(path)]):
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: malformed trace document: connected-sum summands must be connected "
            f"(b_0 is not 1 in explicit(betti={betti}))\n"
        )


def test_explicit_orientable_true_still_loads(tmp_path, capsys):
    doc = _trace_doc()
    doc["base"][0]["orientable"] = True
    path = tmp_path / "good.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", str(path)]) == EXIT_OK


def test_non_string_glue_id_exits_2_with_a_message(tmp_path, capsys):
    solid = solid_torus_trace()
    first = write_trace(tmp_path, "m.json", solid)
    second = write_trace(tmp_path, "n.json", dualize(solid))
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps({"pairs": [["h:2", 0]]}))
    assert main(["compose", first, second, "--glue", str(glue), "--check"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{GLUE_SHAPE}'pairs[0][1]' must be a string, got 0\n"


def nested_circles_trace(tmp_path, depth, m):
    sphere = '{"type": "sphere", "n": 1}'
    desc = '{"type": "product", "left": ' * depth + sphere + f', "right": {sphere}}}' * depth
    path = tmp_path / "deep.json"
    path.write_text(f'{{"m": {m}, "base": [{desc}], "handles": []}}')
    return str(path)


# The JSON decoders of CPython 3.10 to 3.13 refuse 20,000 nested products (3.13's
# reads up to about 10,000), and `nu` reports that as input nested too deeply.
@pytest.mark.parametrize("depth, m", [(20000, 3)])
def test_deeply_nested_descriptor_exits_2(tmp_path, capsys, depth, m):
    assert main(["compute", nested_circles_trace(tmp_path, depth, m)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested too deeply" in captured.err


# The base is the 901-torus: its total Betti number is 2^901.
def test_nested_products_compute(tmp_path, capsys):
    assert main(["compute", "--json", nested_circles_trace(tmp_path, 900, 902)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["nu"] == 2**901


# Betti numbers are stored by nonzero degree, so these take no time.
@pytest.mark.parametrize("m, base, expected", [
    (2000001, {"type": "sphere", "n": 2000000}, 2),
    (8001, {"type": "product", "left": {"type": "sphere", "n": 4000},
            "right": {"type": "sphere", "n": 4000}}, 4),
])
def test_high_dimensional_base_computes(tmp_path, capsys, m, base, expected):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"m": m, "base": [base], "handles": []}))
    assert main(["compute", "--json", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["e_values"] == [expected]


def test_usage_error_leaves_the_parser_usable(lens_file, capsys):
    assert main(["compute", "--no-such-flag", lens_file]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["compute", lens_file]) == EXIT_OK
    assert "nu(ordering) = 4" in capsys.readouterr().out


@pytest.mark.parametrize("check", [[], ["--check"]])
def test_compose_evaluates_each_part_and_the_composite_once(tmp_path, capsys, monkeypatch, check):
    # alpha = 3 first-part handles, beta = 2 second-part handles.
    first = OrderedHandleDecomposition(3, (), (
        HandleRecord(0, Dim3Zero()),
        HandleRecord(0, Dim3Zero()),
        HandleRecord(1, Dim3One("h:1", "h:2")),
    ))
    second = OrderedHandleDecomposition(3, (Sphere(2),), (
        HandleRecord(1, Dim3One("base:0", "base:0")),
        HandleRecord(2, Dim3Two("h:1", NonSeparating())),
    ))
    paths = [write_trace(tmp_path, "m.json", first), write_trace(tmp_path, "n.json", second)]
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps({"pairs": [["h:3", "base:0"]]}))
    # Every step is a walk's: the ordering search reads its value off its walk.
    calls = count_steps(monkeypatch)
    assert main(["compose", *paths, "--glue", str(glue), "--json", *check]) == EXIT_OK
    # The first part is walked by its own evaluation, which also gives compose
    # its final boundary, and inside the composite; the second part twice.
    assert len(calls) == 2 * 3 + 2 * 2


def test_compute_json_walks_the_trace_once_and_builds_no_state(lens_file, capsys, monkeypatch):
    import handlenu.trace as trace_mod

    def no_state(*args, **kwargs):
        raise AssertionError("compute --json replayed the per-prefix boundaries")

    calls = count_steps(monkeypatch)
    monkeypatch.setattr(trace_mod, "replay", no_state)
    assert main(["compute", lens_file, "--json"]) == EXIT_OK
    # The lens trace has 4 handles: the walk that evaluates also validates.
    assert calls == ["h:1", "h:2", "h:3", "h:4"]
    assert json.loads(capsys.readouterr().out)["result"]["nu"] == 4


def test_search_replays_the_trace_once(lens_file, capsys, monkeypatch):
    import handlenu.nu as nu_mod
    import handlenu.trace as trace_mod

    walks = []
    walk = trace_mod.walk
    for module in (trace_mod, nu_mod):
        monkeypatch.setattr(module, "walk", lambda d: walks.append(d) or walk(d))
    calls = count_steps(monkeypatch)
    assert main(["search", lens_file, "--json", "--all-orderings"]) == EXIT_OK
    # The search is validation's walk and steps each handle once there; it
    # counts orderings and the floor rules read the handles without a walk.
    assert len(walks) == 1
    assert calls == ["h:1", "h:2", "h:3", "h:4"] * 1
    assert json.loads(capsys.readouterr().out)["result"]["upper"] == 4


@contextmanager
def any_int_digits():
    """Lift the integer-to-string digit limit, where the interpreter has one."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("as_json", [False, True])
def test_search_writes_a_count_of_more_than_4300_digits(tmp_path, capsys, as_json):
    # 1700 independent 0-handles: 1700! orderings, a number of 4,710 digits.
    doc = {"m": 3, "base": [], "handles": [{"index": 0, "attachment": {"type": "zero"}}] * 1700}
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(doc))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["search", "--all-orderings", str(path)] + ["--json"] * as_json) == EXIT_OK
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    out = capsys.readouterr().out
    with any_int_digits():
        if as_json:
            enumerated = json.loads(out)["result"]["enumerated"]
        else:
            enumerated = int(out.split("orderings enumerated: ", 1)[1].split(" ", 1)[0])
        assert enumerated == math.factorial(1700)


def test_search_json_builds_no_human_lines(tmp_path, capsys, monkeypatch):
    # Spelling out a count of 1700! and every position is only for the human report.
    import handlenu.cli as cli_mod

    def refuse(*args):
        raise AssertionError("search --json built its human lines")

    doc = {"m": 3, "base": [], "handles": [{"index": 0, "attachment": {"type": "zero"}}] * 1700}
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli_mod, "_bound_lines", refuse)
    assert main(["search", "--all-orderings", "--json", str(path)]) == EXIT_OK
    with any_int_digits():
        result = json.loads(capsys.readouterr().out)["result"]
    assert result["enumerated"] == math.factorial(1700)
    with pytest.raises(AssertionError, match="human lines"):
        main(["search", "--all-orderings", str(path)])


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no digit limit"
)
def test_search_input_keeps_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"m": ' + "9" * 5000 + ', "base": [], "handles": []}')
    assert main(["search", "--json", str(path)]) == EXIT_INVALID
    assert "Exceeds the limit" in capsys.readouterr().err


def test_catalog_verify_walks_each_stored_trace_once_for_its_entry_checks(capsys, monkeypatch):
    import handlenu.catalog as catalog_mod
    import handlenu.nu as nu_mod
    import handlenu.trace as trace_mod

    walked, inside = [], []
    walk, entry_items = trace_mod.walk, catalog_mod._entry_items

    def counting_walk(d):
        if inside:
            walked.append(d)
        return walk(d)

    def entry_checks(entry):
        inside.append(entry)
        try:
            return entry_items(entry)
        finally:
            inside.pop()

    for module in (trace_mod, nu_mod):
        monkeypatch.setattr(module, "walk", counting_walk)
    steps = count_steps(monkeypatch, when=lambda: bool(inside))
    monkeypatch.setattr(catalog_mod, "_entry_items", entry_checks)
    assert main(["catalog", "--verify", "--json"]) == EXIT_OK
    # The walk that validates a stored trace also evaluates it.
    stored = [trace for name in catalog_mod.names() for _, trace in lookup(name).traces]
    assert [id(d) for d in walked] == [id(d) for d in stored]
    assert steps == [f"h:{j}" for d in stored for j in range(1, d.delta + 1)]
    assert json.loads(capsys.readouterr().out)["result"]["ok"] is True


@pytest.mark.parametrize("side", ["first", "second"])
@pytest.mark.parametrize("defect", DEFECTS)
def test_compose_refuses_an_invalid_part(tmp_path, capsys, side, defect):
    parts = {"first": solid_torus_trace(), "second": dualize(solid_torus_trace())}
    parts[side], mu = with_defect(parts[side], defect)
    paths = [write_trace(tmp_path, f"{name}.json", d) for name, d in parts.items()]
    glue = tmp_path / "glue.json"
    glue.write_text(json.dumps({"pairs": [["h:2", "base:0"]]}))
    assert main(["compose", *paths, "--glue", str(glue), "--check"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {side} part is invalid (prefix {mu}): ")
    assert "Traceback" not in captured.err


_GRAPH = {
    "boundary_counts": [3, 3, 3],
    "interfaces": [{"i": 0, "j": 1, "count": 1}, {"i": 1, "j": 2, "count": 1}],
    "z": 5,
    "handle_costs": [2, 3, 4],
}


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set_in(("boundary_counts", 0), 3.9), "boundary_counts"),
        (_set_in(("interfaces", 0, "i"), "0"), "i"),
        (_set_in(("interfaces", 1, "j"), 2.0), "j"),
        (_set_in(("interfaces", 0, "count"), 1.5), "count"),
        (_set_in(("z",), True), "z"),
        (_set_in(("handle_costs", 0), 2.2), "handle_costs"),
    ],
    ids=["boundary_counts", "i", "j", "count", "z", "handle_costs"],
)
def test_obstruct_refuses_non_integer_graph_fields(tmp_path, capsys, mutate, field):
    doc = json.loads(json.dumps(_GRAPH))
    mutate(doc)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["obstruct", str(path), "--json"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field!r} must be an integer" in captured.err


def test_obstruct_accepts_the_integer_graph(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(_GRAPH))
    assert main(["obstruct", str(path), "--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["w"], result["pieces_ceiling"], result["max_handles"]) == (3, 3, 12)


_TRACE_ERROR = "error: malformed trace document: "
_EXPLICIT_ERROR = _TRACE_ERROR + "malformed 'explicit' descriptor: "
_GRAPH_ERROR = "error: malformed decomposition-graph document: "


@pytest.mark.parametrize(
    "document, path, value, line",
    [
        ("trace", ("handles", 0, "index"), 1.5,
         _TRACE_ERROR + "'index' must be an integer, got 1.5"),
        ("trace", ("handles", 0, "attachment", "a"), 1,
         _TRACE_ERROR + "'a' must be a string, got 1"),
        ("trace", ("handles", 0, "attachment", "b"), None,
         _TRACE_ERROR + "'b' must be a string, got None"),
        ("trace", ("handles", 1, "attachment", "anchor"), 2,
         _TRACE_ERROR + "'anchor' must be a string, got 2"),
        ("trace", ("base", 2, "label"), 5, _EXPLICIT_ERROR + "'label' must be a string, got 5"),
        ("trace", ("base", 2, "dim"), 2.0, _EXPLICIT_ERROR + "'dim' must be an integer, got 2.0"),
        ("trace", ("base", 2, "betti", 1), "0",
         _EXPLICIT_ERROR + "'betti' must be an integer, got '0'"),
        ("trace", ("m",), True, _TRACE_ERROR + "'m' must be an integer, got True"),
        ("graph", ("boundary_counts", 1), 3.0,
         _GRAPH_ERROR + "'boundary_counts' must be an integer, got 3.0"),
        ("graph", ("interfaces", 0, "i"), "0", _GRAPH_ERROR + "'i' must be an integer, got '0'"),
        ("graph", ("interfaces", 1, "j"), [2], _GRAPH_ERROR + "'j' must be an integer, got [2]"),
        ("graph", ("interfaces", 0, "count"), False,
         _GRAPH_ERROR + "'count' must be an integer, got False"),
        ("graph", ("z",), None, _GRAPH_ERROR + "'z' must be an integer, got None"),
        ("graph", ("handle_costs", 2), 4.5,
         _GRAPH_ERROR + "'handle_costs' must be an integer, got 4.5"),
    ],
    ids=["index", "a", "b", "anchor", "label", "dim", "betti", "m", "boundary_counts", "i", "j",
         "count", "z", "handle_costs"],
)
def test_each_typed_field_is_refused_with_its_exact_message(tmp_path, capsys, document, path,
                                                            value, line):
    doc = _trace_doc() if document == "trace" else json.loads(json.dumps(_GRAPH))
    _set_in(path, value)(doc)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    argv = ["compute", str(file)] if document == "trace" else ["obstruct", "--json", str(file)]
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")
