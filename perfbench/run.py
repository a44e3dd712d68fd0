"""Benchmark runner for the ``nu`` command.

Usage (from the repository root):

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's ops back to back for
``--seconds`` seconds: the next op starts when the previous one returns.
In-process workloads call ``handlenu.cli.main(argv)`` with stdout captured;
``cli-small`` starts one ``python -m handlenu.cli`` child at a time.  Every
op's output is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports per-op call counts and self times of
each layer (see ``tracer.py``), the tracing overhead, and start-up costs.
The last stdout line is the JSON result; the line before it carries
details (sample counts, the tail percentile, the host reference loop).
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse
import contextlib
import io
import json
import os
from pathlib import Path
import resource
import shutil
import statistics
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 5
TAIL_BEYOND = 10
REF_REPS = 100  # about 3 ms per reference sample
EDGE_REFS = 5
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program():
    if not (SRC / "handlenu" / "cli.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import handlenu.cli

    if Path(handlenu.cli.__file__).resolve().parent != SRC / "handlenu":
        raise SetupError(f"handlenu was imported from {handlenu.cli.__file__}, not {SRC}")
    return handlenu.cli


def reference_ms() -> float:
    """One sample of a fixed pure-Python kernel in the style of the program's
    hot path: string ids, a dict of tuples, a keyed sort.  It never calls the
    program, so its time tracks only the host's speed."""
    start = perf_counter()
    acc = 0
    for i in range(REF_REPS):
        table = {f"h:{j}": (j, j * i % 7) for j in range(40)}
        acc += sorted(table.values(), key=lambda t: (t[1], t[0]))[0][0]
    return (perf_counter() - start) * 1000.0


def bare_interpreter_ms() -> float:
    """One start of the interpreter with nothing to do: the reference for child ops."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
    return (perf_counter() - start) * 1000.0


def run_in_process(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:  # counted as a failed op by its check
            code = None
    return code, out.getvalue()


def run_child(argv):
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "handlenu.cli", *argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # the child is killed and reaped; the op fails its check
        return None, ""
    return proc.returncode, proc.stdout


def tail(values: list[float]) -> tuple[float, float, int]:
    """The value at the highest percentile that leaves TAIL_BEYOND samples beyond
    it (the maximum when there are fewer), that percentile, and the count beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def executor(workload: str, cli):
    """How one op of the workload runs: in this process, or as a child interpreter."""
    if workloads.WORKLOADS[workload].in_process:
        return lambda argv: run_in_process(cli, argv)
    return run_child


def setup(workload: str, seed: int):
    cli = import_program()
    verify = workloads.Verifier(workloads.load_digests() if seed == workloads.DEFAULT_SEED else None)
    workdir = WORK / f"{os.getpid()}"
    ops = workloads.build(workload, seed, workdir)
    execute = executor(workload, cli)
    for op in ops:  # warm-up pass, not counted
        execute(op.argv)
    return cli, ops, execute, verify, workdir


def measure(ops, execute, verify, seconds: float, reference):
    """Closed loop over whole pool cycles.  Returns per-op latencies, per-op
    wall times (the op and its check), and after every op one sample of the
    reference task, whose time is not measured time."""
    latencies, walls, refs, failures = [], [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while i % len(ops) or perf_counter() < deadline:
        op = ops[i % len(ops)]
        t0 = perf_counter()
        code, stdout = execute(op.argv)
        latencies.append(perf_counter() - t0)
        problems = verify(op, code, stdout)
        if problems:
            failures.append((op.key, problems))
        walls.append(perf_counter() - t0)
        refs.append(reference() / 1000.0)
        i += 1
    return latencies, walls, refs, failures


def measure_traced(cli, ops, verify, seconds: float):
    """Alternate one untraced and one traced in-process op, cycle by cycle."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, failures = [], [], []
    calls, self_s, items = {}, {}, {}
    traced_ops = 0
    deadline = perf_counter() + seconds
    i = 0
    while i % len(ops) or perf_counter() < deadline:
        op = ops[i % len(ops)]
        t0 = perf_counter()
        code, stdout = run_in_process(cli, op.argv)
        plain.append(perf_counter() - t0)
        t0 = perf_counter()
        (code_t, stdout_t), totals = tracer.run(run_in_process, cli, op.argv)
        traced.append(perf_counter() - t0)
        traced_ops += 1
        for got in ((code, stdout), (code_t, stdout_t)):
            problems = verify(op, *got)
            if problems:
                failures.append((op.key, problems))
        for name, n in totals.calls.items():
            calls[name] = calls.get(name, 0) + n
        for name, t in totals.self_s.items():
            self_s[name] = self_s.get(name, 0.0) + t
        for name, n in totals.items.items():
            items[name] = items.get(name, 0) + n
        i += 1
    per_op = lambda table, name: table.get(name, 0) / traced_ops
    ms = lambda *names: sum(per_op(self_s, n) for n in names) * 1000.0
    layers = {
        "nu.orderings": (per_op(items, "nu.orderings"), "count"),
        "nu.search_self_ms": (ms("nu.search_min_nu"), "ms"),
        "nu.nu_of_ordering.calls": (per_op(calls, "nu.nu_of_ordering"), "count"),
        "nu.nu_of_ordering_ms": (ms("nu.nu_of_ordering"), "ms"),
        "nu.e_mu_ms": (ms("nu.e_mu"), "ms"),
        "nu.lower_bound_ms": (ms("nu.lower_bound_rules"), "ms"),
        "trace.attach.calls": (per_op(calls, "trace.attach"), "count"),
        "trace.attach_ms": (ms("trace.attach"), "ms"),
        "trace.replay.calls": (per_op(calls, "trace.replay"), "count"),
        "trace.replay_ms": (ms("trace.replay"), "ms"),
        "trace.reorder.calls": (per_op(calls, "trace.reorder"), "count"),
        "trace.reorder_ms": (ms("trace.reorder"), "ms"),
        "homology.total_betti.calls": (per_op(calls, "homology.total_betti"), "count"),
        "homology.total_betti_ms": (ms("homology.total_betti"), "ms"),
        "homology.betti.calls": (per_op(calls, "homology.betti"), "count"),
        "homology.betti_ms": (ms("homology.betti"), "ms"),
        "homology.normalize.calls": (per_op(calls, "homology.normalize"), "count"),
        "homology.normalize_ms": (ms("homology.normalize"), "ms"),
        "union.compose.calls": (per_op(calls, "union.compose"), "count"),
        "union.compose_ms": (ms("union.compose"), "ms"),
        "union.check_ms": (ms("union.check_key_inequality"), "ms"),
        "cli.load_ms": (ms("cli.trace_from_json"), "ms"),
        "cli.validate_ms": (ms("cli.validate"), "ms"),
        "cli.render_ms": (ms("cli.canonical_dumps", "cli.trace_to_json"), "ms"),
        "cli.main_self_ms": (ms("cli.main"), "ms"),
        "catalog.verify_ms": (ms("catalog.verify_all"), "ms"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(plain), "ratio"),
    }
    details = {
        "traced_ops": traced_ops,
        "traced_op_p50_ms": statistics.median(traced) * 1000.0,
        "untraced_op_p50_ms": statistics.median(plain) * 1000.0,
        "calls_per_op": {n: calls[n] / traced_ops for n in sorted(calls)},
        "unwrapped": tracer.missing,
    }
    return layers, details, failures, 2 * traced_ops, tracer.kept


def startup_costs() -> dict:
    """Bare interpreter start, and ``import handlenu`` read from -X importtime."""
    interp, imports, catalog = [], [], []
    for _ in range(STARTUP_SAMPLES):
        interp.append(bare_interpreter_ms())
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import handlenu"],
            cwd=ROOT, env=child_env(), stderr=subprocess.PIPE, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.partition(":")[2].split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1000.0
        imports.append(cumulative["handlenu"])
        catalog.append(cumulative.get("handlenu.catalog", 0.0))  # 0 once the catalog loads lazily
    return {
        "startup.interp_ms": (statistics.median(interp), "ms"),
        "startup.import_ms": (statistics.median(imports), "ms"),
        "startup.import_catalog_ms": (statistics.median(catalog), "ms"),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as it reports it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        cli, ops, execute, verify, workdir = setup(args.workload, args.seed)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    setup_s = perf_counter() - PROCESS_START
    try:
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        edge_refs = [reference_ms() for _ in range(EDGE_REFS)]
        if args.trace:
            metrics, details, failures, attempted, kept = measure_traced(cli, ops, verify, args.seconds)
            metrics.update(startup_costs())
        else:
            in_process = workloads.WORKLOADS[args.workload].in_process
            reference = reference_ms if in_process else bare_interpreter_ms
            latencies, walls, refs, failures = measure(ops, execute, verify, args.seconds, reference)
            attempted = len(latencies)
            who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
            ratios = [lat / ref for lat, ref in zip(latencies, refs)]
            (op_tail, tail_pct, beyond), (ratio_tail, _, _) = tail(latencies), tail(ratios)
            metrics = {
                "op_p50_ref": (statistics.median(ratios), "ref"),
                "op_tail_ref": (ratio_tail, "ref"),
                "ops_per_ref": (attempted / sum(w / ref for w, ref in zip(walls, refs)), "1/ref"),
                "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
                "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
            }
            details = {
                "ops": attempted,
                "tail_percentile": tail_pct,
                "tail_samples_beyond": beyond,
                "op_p50_ms": statistics.median(latencies) * 1000.0,
                "op_tail_ms": op_tail * 1000.0,
                "ops_per_s": attempted / sum(walls),
                "ref_p50_ms": statistics.median(refs) * 1000.0,
            }
        edge_refs += [reference_ms() for _ in range(EDGE_REFS)]
        if args.trace:
            metrics["host.ref_ms"] = (statistics.median(edge_refs), "ms")
        else:
            setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
            metrics["setup_s"] = (statistics.median(setups), "s")
            details["setup_samples_s"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    details.update(
        workload=args.workload,
        seed=args.seed,
        host_ref_ms={"start": statistics.median(edge_refs[:EDGE_REFS]),
                     "end": statistics.median(edge_refs[EDGE_REFS:])},
        failures=failures[:5],
    )
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}.json"
        spans_file.write_text(json.dumps({"ops": kept}), encoding="utf-8")
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
