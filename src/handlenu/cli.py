"""Command-line front end.

Subcommands: compute, search, compose, obstruct, refute, catalog, validate.
Exit codes: 0 success, 1 usage error, 2 validation failure, 3 a theorem
check failed (which signals an engine bug, not bad input).  Descriptors are
evaluated without recursion, so only reading and writing JSON limit nesting:
deeper input is invalid and exits 2.  Output is deterministic; ``--json``
renders the report as a stable document with no timestamps.

An argv that starts with a subcommand name is parsed by that subcommand's own
parser alone; the top-level parser runs only for help, usage errors and
strings the subcommand leaves over.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import _lazy
from .homology import json_str, pretty
from .trace import (
    OrderedHandleDecomposition,
    TraceError,
    canonical_dumps,
    trace_from_json,
    validate,
    validated,
    walk,
)

# Registered now and run on first use, so a subcommand runs only those it needs
# (see the package docstring).
catalog, nu, union = _lazy("catalog"), _lazy("nu"), _lazy("union")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_THEOREM = 3

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # validation failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    problem = argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    try:
        value = int(text)
    except ValueError:
        raise problem from None
    if value < 1:
        raise problem
    return value


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_trace(path: str) -> OrderedHandleDecomposition:
    return trace_from_json(_load_json(path))


def _emit(args, report: dict, human_lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(canonical_dumps({"schema_version": SCHEMA_VERSION, **report}))
    else:
        for line in human_lines:
            print(line)


def _require_valid(d: OrderedHandleDecomposition, run) -> tuple[list[str], object]:
    """Validate ``d`` with ``run(d)`` as its one walk; the warnings and what
    ``run`` returned besides the final boundary."""
    report, result = validated(d, run)
    if not report.ok:
        for violation in report.violations:
            print(f"invalid trace (prefix {violation.mu}): {violation.message}", file=sys.stderr)
        raise TraceError("trace failed validation")
    return list(report.warnings), result[0]


def _mu_table(d: OrderedHandleDecomposition, evaluation: nu.NuEvaluation) -> list[str]:
    lines = ["   mu  e_mu  free boundary"]
    for mu, (_, _, live) in enumerate(walk(d)):
        marker = "*" if mu == evaluation.argmax_mu else " "
        comps = ", ".join(f"{c} {pretty(desc)}" for c, desc in live.items())
        lines.append(f" {marker} {mu:>3} {evaluation.e_values[mu]:>5}  {comps or '(empty)'}")
    mu_note = f"mu range {evaluation.mu_start}..{d.delta}"
    if evaluation.argmax_mu is None:
        lines.append(f"nu(ordering) = {evaluation.nu}   [{mu_note}]")
    else:
        lines.append(
            f"nu(ordering) = {evaluation.nu}   achieved at mu={evaluation.argmax_mu}"
            f" by {evaluation.argmax_component}   [{mu_note}]"
        )
    return lines


def cmd_compute(args) -> int:
    d = _load_trace(args.trace)
    warnings, evaluation = _require_valid(d, nu.evaluate)
    # Only the human table needs every prefix.
    lines = [] if args.json else _mu_table(d, evaluation)
    _emit(
        args,
        {"command": "compute", "result": evaluation.as_dict(), "warnings": warnings},
        lines + [f"warning: {w}" for w in warnings],
    )
    return EXIT_OK


def _bound_lines(bound: nu.Bound, order: list[int]) -> list[str]:
    tag = "exhaustive" if bound.exhaustive else "budget hit"
    lines = [
        f"orderings enumerated: {bound.enumerated} ({tag})",
        f"nu bound: [{bound.lower}, {bound.upper}]",
    ]
    for reason in bound.lower_reasons:
        lines.append(f"  lower {bound.lower}: {reason}")
    positions = ", ".join(str(i) for i in order) or "(no handles)"
    lines.append(f"  upper {bound.upper}: witness order (original positions) {positions}")
    return lines


def cmd_search(args) -> int:
    d = _load_trace(args.trace)
    budget = None if args.all_orderings else args.budget
    warnings, bound = _require_valid(d, lambda t: nu._search(t, budget))
    # The upper value is attained by the given order (see search_min_nu),
    # so the witness is the input itself.
    order = list(range(1, d.delta + 1))
    result = {**bound.as_dict(), "witness_order": order, "witness": d}
    # A count of orderings may have any number of digits, so writing it lifts
    # the interpreter's digit limit (3.10.7 on); reading the input keeps it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        # Only the human lines spell out the count and every position.
        lines = [] if args.json else _bound_lines(bound, order)
        _emit(
            args,
            {"command": "search", "result": result, "warnings": warnings},
            lines + [f"warning: {w}" for w in warnings],
        )
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return EXIT_OK


def inequality_exit_code(holds: bool) -> int:
    """A failed union inequality is an engine bug, reported as exit 3."""
    return EXIT_OK if holds else EXIT_THEOREM


def _glue_pair(k: int, pair) -> tuple[str, str]:
    if type(pair) is not list or len(pair) != 2:
        raise TypeError(f"each pair must be an array of two ids, got {pair!r}")
    return json_str(pair[0], f"pairs[{k}][0]"), json_str(pair[1], f"pairs[{k}][1]")


def cmd_compose(args) -> int:
    dm = _load_trace(args.first)
    dn = _load_trace(args.second)
    glue_doc = _load_json(args.glue)
    try:
        if type(glue_doc) is not dict:
            raise TypeError(f"the document must be an object, got {glue_doc!r}")
        if "pairs" not in glue_doc:
            raise TypeError("missing 'pairs'")
        pairs = glue_doc["pairs"]
        if type(pairs) is not list:
            raise TypeError(f"'pairs' must be an array, got {pairs!r}")
        glue = union.GlueSpec(tuple(_glue_pair(k, pair) for k, pair in enumerate(pairs)))
    except TypeError as exc:
        raise union.GlueError(f"glue file must contain a 'pairs' list of id pairs: {exc}") from exc

    report = union.check_key_inequality(dm, dn, glue)
    composite = report.composite
    lines = [
        f"first part: {dm.delta} handles, nu(ordering) = {report.nu_first}",
        f"second part: {dn.delta} handles, nu(ordering) = {report.nu_second}",
        f"composite: {composite.delta} handles over {len(composite.base)} base components, "
        f"nu(ordering) = {report.lhs}",
    ]
    result = {
        "composite": composite,
        "nu_first": report.nu_first,
        "nu_second": report.nu_second,
        "nu_composite": report.lhs,
    }
    code = EXIT_OK
    if args.check:
        verdict = "holds" if report.holds else "VIOLATED (engine bug)"
        lines.append(f"check: {report.lhs} <= max({report.nu_first}, {report.nu_second}) "
                     f"= {report.rhs} {verdict}  [case: {report.case}]")
        lines.extend(f"  - {step}" for step in report.steps)
        result["check"] = {
            key: getattr(report, key) for key in ("lhs", "rhs", "holds", "case", "steps")
        }
        code = inequality_exit_code(report.holds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(composite))
        lines.append(f"composite trace written to {args.out}")
    _emit(args, {"command": "compose", "result": result, "warnings": []}, lines)
    return code


def cmd_obstruct(args) -> int:
    from .obstruction import betti1_floor, graph_from_json, interface_lower_bound, pieces_ceiling

    graph = graph_from_json(_load_json(args.graph))
    interface = interface_lower_bound(graph)
    l_floor = betti1_floor(graph)
    ceiling = pieces_ceiling(l_floor, graph.z)
    lines = [
        f"pieces w = {graph.w}, interfaces rho = {graph.rho}, free boundaries z = {graph.z}",
        f"interface floor ceil((3w - z)/2) = {interface.floor}; rho >= floor "
        f"{'holds' if interface.holds else 'FAILS'}",
        f"first-Betti floor: {l_floor}",
        f"piece ceiling 2l + z - 2 at that floor: {ceiling}",
    ]
    result = {
        "w": graph.w,
        "rho": graph.rho,
        "z": graph.z,
        "interface_floor": interface.floor,
        "interface_holds": interface.holds,
        "betti1_floor": l_floor,
        "pieces_ceiling": ceiling,
    }
    if graph.handle_costs is not None:
        h_max = max(graph.handle_costs)
        # The ceiling is at least w >= 1: the floor makes 2l >= w - z + 2.
        lines.append(
            f"handle budget at the floor: {ceiling} pieces x {h_max} handles = {ceiling * h_max}"
        )
        result["h_max"] = h_max
        result["max_handles"] = ceiling * h_max
    _emit(args, {"command": "obstruct", "result": result, "warnings": []}, lines)
    return EXIT_OK


def cmd_refute(args) -> int:
    from .obstruction import HandleBudget, refute

    verdict = refute(HandleBudget(args.hmax, args.l, args.z), args.hW)
    if verdict.max_pieces < 1:
        line = (
            f"refuted: no qualifying decomposition exists, since the piece ceiling "
            f"2l + z - 2 = {verdict.max_pieces} < 1"
        )
    elif verdict.decomposable_possible:
        line = (
            f"possible: target handle count {args.hW} fits the budget "
            f"{verdict.max_pieces} pieces x {args.hmax} = {verdict.max_handles}"
        )
    else:
        line = (
            f"refuted: target handle count {args.hW} exceeds the fixed budget "
            f"{verdict.max_pieces} pieces x {args.hmax} = {verdict.max_handles}"
        )
    result = {**verdict.as_dict(), "h_w": args.hW}
    _emit(args, {"command": "refute", "result": result, "warnings": []}, [line])
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.base is not None and args.export is None:
        print("error: --base needs --export NAME", file=sys.stderr)
        return EXIT_USAGE
    if args.export:
        try:
            entry = catalog.lookup(args.export)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_USAGE
        traces = dict(entry.traces)
        label = args.base or entry.traces[0][0]
        if label not in traces:
            print(
                f"error: entry {entry.name!r} has no base {label!r}; "
                f"bases: {', '.join(traces)}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        sys.stdout.write(canonical_dumps(traces[label]))
        return EXIT_OK

    if args.verify:
        report = catalog.verify_all()
        lines = [
            f"{'ok  ' if item.ok else 'FAIL'} {item.entry}: {item.check} -- {item.detail}"
            for item in report.items
        ]
        lines.append(f"{'all checks passed' if report.ok else 'CHECKS FAILED'}")
        result = {"ok": report.ok, "items": [item.as_dict() for item in report.items]}
        _emit(args, {"command": "catalog-verify", "result": result, "warnings": []}, lines)
        return EXIT_OK if report.ok else EXIT_THEOREM

    lines = [f"{'name':<20} {'m':>2}  {'certified':<12} {'genus':<6} traces"]
    rows = []
    for name in catalog.names():
        entry = catalog.lookup(name)
        cert = entry.certified
        if cert is None:
            certified = "-"
        elif cert.lower == cert.upper:
            certified = f"= {cert.upper}" + (" (ord)" if cert.scope == "ordering" else "")
        else:
            certified = f"[{cert.lower}, {cert.upper}]"
        genus = "-" if entry.heegaard_genus is None else str(entry.heegaard_genus)
        if entry.heegaard_asserted:
            genus += "*"
        lines.append(f"{name:<20} {entry.m:>2}  {certified:<12} {genus:<6} {len(entry.traces)}")
        rows.append(
            {
                "name": name,
                "m": entry.m,
                "certified_lower": cert.lower if cert else None,
                "certified_upper": cert.upper if cert else None,
                "scope": cert.scope if cert else None,
                "heegaard_genus": entry.heegaard_genus,
                "traces": len(entry.traces),
            }
        )
    lines.append("(* splitting genus recorded as asserted)")
    _emit(args, {"command": "catalog", "result": {"entries": rows}, "warnings": []}, lines)
    return EXIT_OK


def cmd_validate(args) -> int:
    d = _load_trace(args.trace)
    report = validate(d)
    lines = []
    for violation in report.violations:
        lines.append(f"violation (prefix {violation.mu}): {violation.message}")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    lines.append("OK" if report.ok else f"{len(report.violations)} violation(s)")
    result = {
        "ok": report.ok,
        "violations": [v.as_dict() for v in report.violations],
        "warnings": report.warnings,
    }
    _emit(args, {"command": "validate", "result": result, "warnings": report.warnings}, lines)
    return EXIT_OK if report.ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    # The help leaves out the docstring's last paragraph, on parsing.
    parser = _Parser(prog="nu", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices  # name -> that subcommand's parser, read by _parse

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a stable JSON report")
        p.set_defaults(func=func)
        return p

    p = add("compute", cmd_compute, "replay a trace and print the per-prefix table")
    p.add_argument("trace", help="trace JSON file")

    p = add("search", cmd_search, "minimize over admissible orderings of the handles")
    p.add_argument("trace", help="trace JSON file")
    p.add_argument("--budget", type=_positive_int, default=10000,
                   help="max orderings to cover, in lexicographic order (default 10000)")
    p.add_argument("--all-orderings", action="store_true",
                   help="ignore the budget and enumerate everything")

    p = add("compose", cmd_compose, "glue two traces along matched boundary components")
    p.add_argument("first", help="trace JSON file of the first part")
    p.add_argument("second", help="trace JSON file of the second part")
    p.add_argument("--glue", required=True, help="JSON file {\"pairs\": [[id, id], ...]}")
    p.add_argument("--check", action="store_true",
                   help="verify the composite against max of the parts")
    p.add_argument("--out", help="write the composite trace JSON here")

    p = add("obstruct", cmd_obstruct, "piece-counting report for a decomposition graph")
    p.add_argument("graph", help="decomposition-graph JSON file")

    p = add("refute", cmd_refute, "handle-budget feasibility for fixed l, z, and piece budget")
    p.add_argument("--l", type=int, required=True, help="first rational Betti number")
    p.add_argument("--z", type=int, required=True, help="free boundary components")
    p.add_argument("--hmax", type=int, required=True, help="max minimal handle count per piece")
    p.add_argument("--hW", type=int, required=True, help="target minimal handle count")

    p = add("catalog", cmd_catalog, "list, verify, or export the built-in entries")
    action = p.add_mutually_exclusive_group()
    action.add_argument("--verify", action="store_true", help="recompute all certifications")
    action.add_argument("--export", metavar="NAME", help="print one entry's trace JSON")
    p.add_argument("--base", help="which stored base to export (default: first)")

    p = add("validate", cmd_validate, "diagnostics for a trace file")
    p.add_argument("trace", help="trace JSON file")

    return parser


_PARSER = build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, in one pass where ``argv`` starts with a subcommand."""
    sub = _PARSER.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        if not rest:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # TraceError, DescriptorError, GlueError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
