"""Seeded single-field mutations of valid documents, through the CLI in-process.

Every catalog export, one trace holding ``Declared``, ``explicit`` and
``product`` descriptors, and one decomposition-graph document are mutated one
field at a time: the field becomes null, a float, a bool, a string, a list,
an object or a negative number, or is deleted.  Each mutated document goes
through ``validate``, ``compute --json``, ``search --json`` and
``obstruct --json``; every run must exit 0, 2 or 3, and no exception may
leave ``cli.main``.  The cases are deterministic, so a failure names the
document, the field and the command that broke.

``run_cases`` returns every case's exit code, stdout and stderr, so the same
cases also compare two versions of the package: run it under each version's
``src`` on ``PYTHONPATH`` and compare the two results.
"""

from __future__ import annotations

from contextlib import redirect_stderr, redirect_stdout
import io
import json

from handlenu.catalog import lookup, names
from handlenu.cli import EXIT_INVALID, EXIT_OK, EXIT_THEOREM, main
from handlenu.trace import canonical_dumps

MIXED = {
    "m": 3,
    "base": [
        {"type": "product",
         "left": {"type": "sphere", "n": 1}, "right": {"type": "sphere", "n": 1}},
    ],
    "handles": [
        {"index": 1, "attachment": {"type": "declared", "components": [
            {"type": "explicit", "dim": 2, "betti": [1, 2, 1], "label": "T"},
            {"type": "connected-sum", "parts": [
                {"type": "surface", "genus": 1}, {"type": "surface", "genus": 1},
            ]},
        ]}},
        {"index": 0, "attachment": {"type": "zero"}},
        {"index": 1, "attachment": {"type": "one", "a": "h:2", "b": "h:2"}},
        {"index": 2, "attachment": {"type": "two", "anchor": "h:3",
                                    "curve": {"kind": "separating", "g1": 1, "g2": 0}}},
        {"index": 2, "attachment": {"type": "two", "anchor": "h:4/0",
                                    "curve": {"kind": "nonseparating"}}},
        {"index": 3, "attachment": {"type": "three", "anchor": "h:5"}},
        {"index": 3, "attachment": {"type": "three", "anchor": "h:4/1"}},
    ],
}

GRAPH = {
    "boundary_counts": [3, 3, 3],
    "interfaces": [{"i": 0, "j": 1, "count": 1}, {"i": 1, "j": 2, "count": 1}],
    "z": 5,
    "handle_costs": [2, 3, 4],
}

VALUES = {"null": None, "float": 1.5, "bool": True, "string": "x", "list": [], "object": {},
          "negative": -1}
DELETE = object()

COMMANDS = (["validate"], ["compute", "--json"], ["search", "--json"], ["obstruct", "--json"])


def documents() -> dict[str, object]:
    """The valid documents by name: the catalog's exports, MIXED and GRAPH."""
    docs = {
        f"{name}/{label}": json.loads(canonical_dumps(trace))
        for name in names()
        for label, trace in lookup(name).traces
    }
    docs["mixed"] = MIXED
    docs["graph"] = GRAPH
    return docs


def fields(doc, path=()):
    """The path of every dict value and list item in ``doc``, parents first."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from fields(value, (*path, key))


def mutated(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``, or deleted."""
    copy = json.loads(json.dumps(doc))
    *parents, last = path
    node = copy
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return copy


def mutations():
    """(case name, mutated document) for every document, field and mutation."""
    for name, doc in documents().items():
        for path in fields(doc):
            where = ".".join(map(str, path))
            for kind, value in (*VALUES.items(), ("deleted", DELETE)):
                yield f"{name} {where}={kind}", mutated(doc, path, value)


def run_cases(tmp_dir) -> dict[str, tuple]:
    """Each case's outcome by name: the exit code, stdout and stderr of the
    command, or the exception that left ``main`` as ``("raised", repr)``."""
    path = f"{tmp_dir}/doc.json"
    outcomes = {}
    for case, doc in mutations():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([*command, path])
            except BaseException as exc:  # noqa: BLE001 -- the fault this harness looks for
                outcomes[f"{case} {' '.join(command)}"] = ("raised", repr(exc))
            else:
                outcomes[f"{case} {' '.join(command)}"] = (code, out.getvalue(), err.getvalue())
    return outcomes


def test_every_single_field_mutation_exits_0_2_or_3(tmp_path):
    outcomes = run_cases(tmp_path)
    bad = {case: o[:2] for case, o in outcomes.items()
           if o[0] not in (EXIT_OK, EXIT_INVALID, EXIT_THEOREM)}
    assert not bad, list(bad.items())[:20]
    # A null is not an absent field: a null m or handle_costs is refused with exit 2.
    for case in ("mixed m=null compute --json", "graph handle_costs=null obstruct --json"):
        assert outcomes[case][0] == EXIT_INVALID, (case, outcomes[case])
    assert len(outcomes) > 19_000  # 19,168 when written
