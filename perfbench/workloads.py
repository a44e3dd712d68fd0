"""Workload definitions: the ops each workload runs and how each is checked.

An op is one ``nu`` command.  Every workload builds a fixed-size pool of
ops from its seed; the measuring loop cycles through the pool.  Every op in
a pool of one workload has the same shape (see ``shapes.py``), so a run's
cost does not depend on the seed.

Each op carries its own output check.  A check never raises: it returns the
reasons the op failed, and an empty list when it passed.  The checks cover
the exit code, facts the generator knows without calling the library, one
cheap consistency check per command, and, for the default seed, the
committed digest of the ``--json`` stdout.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import json
from pathlib import Path
import random
from typing import Callable

import shapes

DEFAULT_SEED = 1
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

# Shapes are fixed per workload; changing one redefines the workload.
SEARCH_SHAPE = shapes.ChainShape((6, 4))
WIDE_SHAPE = shapes.WideShape(base=4, zeros=96, moves=50)
PAIR_SHAPE = shapes.PairShape(zeros=16, first_moves=24, glued=6, free=3, second_moves=40)
POOL_SIZE = 4
EXPORT_NAMES = ("s3", "lens", "solid-torus", "rp3-sum-2")

Checker = Callable[[int | None, str], list[str]]


@dataclass
class Op:
    key: str
    argv: list[str]
    check: Checker
    shape: tuple = ()  # what must not change with the seed: handle and component counts


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _parse(stdout: str, command: str) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None, ["stdout is not JSON"]
    if not isinstance(doc, dict) or doc.get("command") != command:
        return None, [f"report is not a {command!r} report"]
    return doc["result"], []


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _json_check(command: str, facts: Callable[[dict], list[str]]) -> Checker:
    def check(code, stdout):
        if code != 0:
            return [f"exit code {code}, expected 0"]
        result, problems = _parse(stdout, command)
        return problems if result is None else facts(result)

    return check


def _search_facts(item: shapes.SearchInput) -> Callable[[dict], list[str]]:
    from handlenu.nu import nu_of_ordering
    from handlenu.trace import trace_from_json

    def facts(result):
        problems: list[str] = []
        _expect(problems, "enumerated", result.get("enumerated"), item.orderings)
        _expect(problems, "exhaustive", result.get("exhaustive"), True)
        _expect(problems, "upper", result.get("upper"), item.nu)
        try:
            replayed = nu_of_ordering(trace_from_json(result["witness"])).nu
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"witness does not replay: {exc}")
        else:
            _expect(problems, "replayed witness value", replayed, result.get("upper"))
        return problems

    return facts


def _compute_facts(item: shapes.ReplayInput) -> Callable[[dict], list[str]]:
    def facts(result):
        problems: list[str] = []
        _expect(problems, "e_values", result.get("e_values"), list(item.e_values))
        _expect(problems, "nu", result.get("nu"), item.nu)
        e_values, argmax = result.get("e_values") or [], result.get("argmax_mu")
        if not isinstance(argmax, int) or not 0 <= argmax < len(e_values):
            problems.append(f"argmax_mu {argmax!r} is not a prefix")
        else:
            _expect(problems, "e value at argmax_mu", e_values[argmax], result.get("nu"))
        return problems

    return facts


def _compose_facts(item: shapes.PairInput, handles: int) -> Callable[[dict], list[str]]:
    def facts(result):
        problems: list[str] = []
        want = max(item.nu_first, item.nu_second)
        _expect(problems, "nu_first", result.get("nu_first"), item.nu_first)
        _expect(problems, "nu_second", result.get("nu_second"), item.nu_second)
        _expect(problems, "nu_composite", result.get("nu_composite"), want)
        check = result.get("check") or {}
        _expect(problems, "check.holds", check.get("holds"), True)
        _expect(problems, "check.lhs", check.get("lhs"), want)
        _expect(problems, "check.rhs", check.get("rhs"), want)
        composite = result.get("composite") or {}
        _expect(problems, "composite handles", len(composite.get("handles", [])), handles)
        return problems

    return facts


def _plain_facts(expected: dict) -> Callable[[dict], list[str]]:
    def facts(result):
        problems: list[str] = []
        for name, want in expected.items():
            _expect(problems, name, result.get(name), want)
        return problems

    return facts


def _export_check(code, stdout):
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["export is not JSON"]
    if not isinstance(doc, dict) or not isinstance(doc.get("handles"), list):
        return ["export is not a trace document"]
    return []


def _catalog_verify_facts(result):
    items = result.get("items") or []
    problems: list[str] = []
    _expect(problems, "ok", result.get("ok"), True)
    if not items or not all(i.get("ok") for i in items):
        problems.append("a catalog check failed or none ran")
    return problems


def _catalog_list_facts(result):
    names = [row.get("name") for row in result.get("entries") or []]
    missing = [n for n in EXPORT_NAMES if n not in names]
    return [f"catalog lists no {missing}"] if missing else []


def _search_ops(rng, workdir):
    ops = []
    for k in range(POOL_SIZE):
        item = shapes.chain_trace(SEARCH_SHAPE, rng)
        path = _write(workdir / f"search-{k}.json", item.trace)
        check = _json_check("search", _search_facts(item))
        shape = (len(item.trace["handles"]), item.orderings, item.counts)
        ops.append(Op(f"search/{k}", ["search", path, "--json", "--all-orderings"], check, shape))
    return ops


def _wide_ops(rng, workdir):
    ops = []
    for k in range(POOL_SIZE):
        item = shapes.wide_trace(WIDE_SHAPE, rng)
        path = _write(workdir / f"wide-{k}.json", item.trace)
        ops.append(Op(f"wide/{k}", ["compute", path, "--json"],
                      _json_check("compute", _compute_facts(item)),
                      (len(item.trace["handles"]), item.counts)))
    return ops


def _compose_ops(rng, workdir):
    ops = []
    for k in range(POOL_SIZE):
        item = shapes.composable_pair(PAIR_SHAPE, rng)
        first = _write(workdir / f"pair-{k}-first.json", item.first)
        second = _write(workdir / f"pair-{k}-second.json", item.second)
        glue = _write(workdir / f"pair-{k}-glue.json", item.glue)
        argv = ["compose", first, second, "--glue", glue, "--check", "--json"]
        facts = _compose_facts(item, PAIR_SHAPE.handles)
        shape = (len(item.first["handles"]), len(item.second["handles"]),
                 len(item.glue["pairs"]), item.first_counts, item.second_counts)
        ops.append(Op(f"compose/{k}", argv, _json_check("compose", facts), shape))
    return ops


def _cli_small_ops(rng, workdir):
    item = shapes.small_trace(rng)
    trace = _write(workdir / "small.json", item.trace)
    graph_doc, graph_expected = shapes.path_graph(rng)
    graph = _write(workdir / "graph.json", graph_doc)
    refute_args, refute_expected = shapes.refute_case(rng)
    export = rng.choice(EXPORT_NAMES)
    shape = (len(item.trace["handles"]), item.counts)
    return [
        Op("small/compute", ["compute", trace, "--json"],
           _json_check("compute", _compute_facts(item)), shape),
        Op("small/validate", ["validate", trace, "--json"],
           _json_check("validate", _plain_facts({"ok": True, "violations": []})), shape),
        Op("small/catalog", ["catalog", "--json"],
           _json_check("catalog", _catalog_list_facts)),
        Op("small/catalog-verify", ["catalog", "--verify", "--json"],
           _json_check("catalog-verify", _catalog_verify_facts)),
        Op("small/catalog-export", ["catalog", "--export", export], _export_check),
        Op("small/obstruct", ["obstruct", graph, "--json"],
           _json_check("obstruct", _plain_facts(graph_expected))),
        Op("small/refute", ["refute", *refute_args, "--json"],
           _json_check("refute", _plain_facts(refute_expected))),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, Path], list[Op]]
    in_process: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search", _search_ops, True),
        Workload("replay-wide", _wide_ops, True),
        Workload("compose-check", _compose_ops, True),
        Workload("cli-small", _cli_small_ops, False),
    )
}


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


class Verifier:
    """Applies each op's check, plus the committed digest under the default seed.

    Outputs are deterministic, so a verdict is kept per (op, exit code,
    stdout digest) and a repeated output is not checked twice.
    """

    def __init__(self, digests: dict[str, str] | None):
        self.digests = digests
        self._verdicts: dict[tuple, list[str]] = {}

    def __call__(self, op: Op, code: int | None, stdout: str) -> list[str]:
        out_digest = digest(stdout)
        memo = (op.key, code, out_digest)
        if memo not in self._verdicts:
            try:
                problems = op.check(code, stdout)
            except Exception as exc:  # a check must count a failure, not end the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if self.digests is not None:
                want = self.digests.get(op.key)
                if want != out_digest:
                    problems = problems + [f"stdout digest {out_digest[:12]} != committed {str(want)[:12]}"]
            self._verdicts[memo] = problems
        return self._verdicts[memo]


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"), workdir)
