"""Byte-for-byte golden outputs of the CLI.

Every file under ``tests/golden/`` is the exact stdout of one command (or a
file one command wrote) on the inputs built by :func:`write_inputs`.  After
an intended output change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

from contextlib import redirect_stdout
import io
import os
from pathlib import Path
import sys
import tempfile

import pytest

from handlenu.catalog import lookup, names, solid_torus_trace
from handlenu.cli import EXIT_INVALID, EXIT_OK, main
from handlenu.homology import ConnectedSum, Explicit, HomologyVector, Product, Sphere, Surface
from handlenu.trace import (
    Declared,
    Dim3One,
    Dim3Three,
    Dim3Zero,
    HandleRecord,
    OrderedHandleDecomposition,
    canonical_dumps,
    dualize,
    trace_to_json,
)

GOLDEN = Path(__file__).parent / "golden"

TORUS = Explicit(2, HomologyVector(2, (1, 2, 1)), "declared torus")
TWO_SPHERES = OrderedHandleDecomposition(
    3, (), (HandleRecord(0, Dim3Zero()), HandleRecord(0, Dim3Zero()))
)

# Name -> (first part, second part, glue pairs); each reaches one case of
# the union checker, and "declared" has a Declared record in its second part.
PAIRS = {
    "double": (solid_torus_trace(), dualize(solid_torus_trace()), [["h:2", "base:0"]]),
    "base-component": (
        solid_torus_trace(),
        OrderedHandleDecomposition(3, (Surface(3), Surface(1)), ()),
        [["h:2", "base:1"]],
    ),
    "second-suffix": (
        OrderedHandleDecomposition(3, (), (HandleRecord(0, Dim3Zero()),)),
        OrderedHandleDecomposition(
            3,
            (Sphere(2),),
            (
                HandleRecord(1, Dim3One("base:0", "base:0")),
                HandleRecord(1, Dim3One("h:1", "h:1")),
            ),
        ),
        [["h:1", "base:0"]],
    ),
    "declared": (
        TWO_SPHERES,
        OrderedHandleDecomposition(3, (Sphere(2),), (HandleRecord(2, Declared((TORUS,))),)),
        [["h:1", "base:0"]],
    ),
}

# A closed trace with a Declared record whose second component is later
# capped through a "/k" anchor.
DECLARED_TRACE = OrderedHandleDecomposition(
    3,
    (),
    (
        HandleRecord(0, Dim3Zero()),
        HandleRecord(0, Dim3Zero()),
        HandleRecord(1, Dim3One("h:1", "h:2")),
        HandleRecord(2, Declared((TORUS, Sphere(2)))),
        HandleRecord(3, Dim3Three("h:4/1")),
        HandleRecord(3, Declared(())),
    ),
)


# An m = 5 trace whose components reach every rule of ``pretty``: nested
# products and sums in both bracketing positions, the three surface names
# (``Surface(0)`` prints as S^2), and labelled and unlabelled Explicit data.
CIRCLE = Sphere(1)
WIDE_TRACE = OrderedHandleDecomposition(
    5,
    (Product(CIRCLE, Product(CIRCLE, Surface(1))),),
    (
        HandleRecord(2, Declared((
            ConnectedSum((
                Product(Sphere(2), Sphere(2)),
                Product(Surface(1), Surface(2)),
                Sphere(4),
            )),
            Product(ConnectedSum((Surface(1), Surface(2))), Surface(0)),
        ))),
        HandleRecord(3, Declared((
            Explicit(4, HomologyVector(4, (1, 0, 3, 0, 1))),
            Explicit(4, HomologyVector(4, (1, 0, 2, 0, 1)), "CP^2 # CP^2"),
        ))),
    ),
)

# An m = 4 pair glued across S^2 x S^1 against S^1 x S^2, which only
# ``normalize`` matches.
FLIPPED_PAIR = (
    OrderedHandleDecomposition(4, (), (
        HandleRecord(0, Declared((Sphere(3),))),
        HandleRecord(1, Declared((Product(Sphere(2), CIRCLE),))),
    )),
    OrderedHandleDecomposition(4, (Product(CIRCLE, Sphere(2)),), (
        HandleRecord(3, Declared((Sphere(3),))),
        HandleRecord(4, Declared(())),
    )),
    [["h:2/0", "base:0"]],
)


# Structurally broken: an index that does not fit its move, and a declared
# component of the wrong dimension.
INVALID_TRACE = OrderedHandleDecomposition(
    3,
    (Surface(1),),
    (HandleRecord(1, Dim3Zero()), HandleRecord(2, Declared((Sphere(3),)))),
)


# Decomposition graphs for ``obstruct``: three pieces in a chain with a
# handle cost per piece, and two pieces glued once with none.
GRAPHS = {
    "costs": {
        "boundary_counts": [3, 3, 3],
        "interfaces": [{"i": 0, "j": 1, "count": 1}, {"i": 1, "j": 2, "count": 1}],
        "z": 5,
        "handle_costs": [2, 3, 4],
    },
    "plain": {
        "boundary_counts": [3, 3],
        "interfaces": [{"i": 0, "j": 1, "count": 1}],
        "z": 4,
    },
}

# Name -> (l, z, h_max, h_W) for ``refute``: a target inside the budget, one
# over it, and a piece ceiling 2l + z - 2 below 1.
REFUTATIONS = {
    "possible": (1, 2, 5, 10),
    "refuted": (1, 2, 5, 11),
    "below-one": (0, 0, 0, 0),
    "below-one-with-handles": (0, 1, 5, 3),
}


def write_inputs(directory: Path) -> None:
    def dump(name: str, doc) -> None:
        (directory / name).write_text(canonical_dumps(doc), encoding="utf-8")

    for name, (first, second, pairs) in PAIRS.items():
        dump(f"{name}-m.json", trace_to_json(first))
        dump(f"{name}-n.json", trace_to_json(second))
        dump(f"{name}-glue.json", {"pairs": pairs})
    dump("declared-trace.json", trace_to_json(DECLARED_TRACE))
    dump("wide-trace.json", trace_to_json(WIDE_TRACE))
    first, second, pairs = FLIPPED_PAIR
    dump("flipped-m.json", trace_to_json(first))
    dump("flipped-n.json", trace_to_json(second))
    dump("flipped-glue.json", {"pairs": pairs})
    dump("invalid-trace.json", trace_to_json(INVALID_TRACE))
    for name, graph in GRAPHS.items():
        dump(f"graph-{name}.json", graph)


def cases() -> list[tuple[str, list[str], tuple[str, ...], int]]:
    """(golden stdout file, argv, files the command writes, exit code)."""
    found = []
    for name in PAIRS:
        argv = ["compose", f"{name}-m.json", f"{name}-n.json", "--glue", f"{name}-glue.json"]
        for check in ([], ["--check"]):
            for form, ext in (([], "txt"), (["--json"], "json")):
                stem = "-".join(["compose", name] + [flag[2:] for flag in check])
                found.append((f"{stem}.{ext}", argv + check + form, (), EXIT_OK))
    found.append((
        "compose-double-check-out.txt",
        ["compose", "double-m.json", "double-n.json", "--glue", "double-glue.json",
         "--check", "--out", "compose-double-out.json"],
        ("compose-double-out.json",),
        EXIT_OK,
    ))
    for form, ext in (([], "txt"), (["--json"], "json")):
        for command in ("compute", "search", "validate"):
            for trace in ("declared", "wide"):
                found.append(
                    (f"{command}-{trace}.{ext}", [command, f"{trace}-trace.json"] + form, (), EXIT_OK)
                )
        found.append(
            (f"validate-invalid.{ext}", ["validate", "invalid-trace.json"] + form, (), EXIT_INVALID)
        )
        found.append((f"catalog.{ext}", ["catalog"] + form, (), EXIT_OK))
        for name in GRAPHS:
            found.append(
                (f"obstruct-{name}.{ext}", ["obstruct", f"graph-{name}.json"] + form, (), EXIT_OK)
            )
        for name, (l, z, h_max, h_w) in REFUTATIONS.items():
            argv = ["refute", "--l", str(l), "--z", str(z), "--hmax", str(h_max), "--hW", str(h_w)]
            found.append((f"refute-{name}.{ext}", argv + form, (), EXIT_OK))
        found.append((
            f"compose-flipped-check.{ext}",
            ["compose", "flipped-m.json", "flipped-n.json", "--glue", "flipped-glue.json",
             "--check"] + form,
            (),
            EXIT_OK,
        ))
    found.append(("catalog-verify.json", ["catalog", "--verify", "--json"], (), EXIT_OK))
    for name in names():
        for label, _ in lookup(name).traces:
            found.append((
                f"export-{name}-{label}.json",
                ["catalog", "--export", name, "--base", label],
                (),
                EXIT_OK,
            ))
    return found


def run_case(directory: Path, argv: list[str], written: tuple[str, ...]) -> tuple[int, str, dict]:
    """Exit code, stdout and the written files of one command run in ``directory``."""
    cwd = os.getcwd()
    out = io.StringIO()
    os.chdir(directory)
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {name: (directory / name).read_text(encoding="utf-8") for name in written}
    return code, out.getvalue(), files


@pytest.mark.parametrize("case", cases(), ids=lambda case: case[0])
def test_output_matches_golden(tmp_path, case):
    golden, argv, written, expected_code = case
    write_inputs(tmp_path)
    code, stdout, files = run_case(tmp_path, argv, written)
    assert code == expected_code
    assert stdout == (GOLDEN / golden).read_text(encoding="utf-8")
    for name, text in files.items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8")


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        for golden, argv, written, expected_code in cases():
            code, stdout, files = run_case(directory, argv, written)
            if code != expected_code:
                sys.exit(f"{' '.join(argv)} exited {code}")
            for name, text in {golden: stdout, **files}.items():
                (GOLDEN / name).write_text(text, encoding="utf-8")
                print(f"wrote {name}")


if __name__ == "__main__":
    record()
