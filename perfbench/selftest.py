"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py                   # run the checks below
    python3 perfbench/selftest.py --record-digests  # rewrite digests.json

Checks, for every workload:

* under three seeds, the inputs have the same shape (handle counts,
  ordering counts, the live-component count after every prefix, the glued
  count), and the traced ops make exactly the same per-op calls;
* under the default seed, every op passes its check, committed digest
  included;
* a planted wrong digest makes exactly that op count as failed, without
  ending the run.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads
from tracer import Tracer

SEEDS = (1, 2, 3)
EXACT = ("nu.orderings", "trace.attach", "trace.replay", "homology.total_betti")


def traced_counts(cli, ops) -> list[dict]:
    tracer = Tracer()
    per_op = []
    for op in ops:
        _, totals = tracer.run(run.run_in_process, cli, op.argv)
        counts = {**totals.calls, **totals.items}
        per_op.append({name: counts.get(name, 0) for name in sorted(set(counts) | set(EXACT))})
    return per_op


def main(argv: list[str]) -> int:
    cli = run.import_program()
    workdir = run.WORK / "selftest"
    problems: list[str] = []
    try:
        if "--record-digests" in argv:
            table = {}
            for name in workloads.WORKLOADS:
                execute = run.executor(name, cli)
                for op in workloads.build(name, workloads.DEFAULT_SEED, workdir / name):
                    table[op.key] = workloads.digest(execute(op.argv)[1])
            workloads.DIGESTS_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
            print(f"wrote {len(table)} digests to {workloads.DIGESTS_FILE.name}")
            return 0

        digests = workloads.load_digests()
        for name in workloads.WORKLOADS:
            shapes, counts = {}, {}
            for seed in SEEDS:
                ops = workloads.build(name, seed, workdir / f"{name}-{seed}")
                shapes[seed] = [op.shape for op in ops]
                counts[seed] = traced_counts(cli, ops)
                if name != "cli-small" and any(c != counts[seed][0] for c in counts[seed]):
                    problems.append(f"{name}: per-op counts differ inside the pool at seed {seed}")
            if any(shapes[seed] != shapes[SEEDS[0]] for seed in SEEDS):
                problems.append(f"{name}: shape differs across seeds {SEEDS}")
            if any(counts[seed] != counts[SEEDS[0]] for seed in SEEDS):
                problems.append(f"{name}: per-op counts differ across seeds {SEEDS}")
            first = counts[SEEDS[0]][0]
            print(f"{name}: shape and counts equal under seeds {SEEDS}; op 0: "
                  + ", ".join(f"{n}={first[n]}" for n in EXACT))

            ops = workloads.build(name, workloads.DEFAULT_SEED, workdir / f"{name}-default")
            execute = run.executor(name, cli)
            outputs = [(op, *execute(op.argv)) for op in ops]
            verify = workloads.Verifier(digests)
            failed = [op.key for op, code, out in outputs if verify(op, code, out)]
            if failed:
                problems.append(f"{name}: default-seed ops failed their checks: {failed}")

            planted = dict(digests, **{ops[0].key: "0" * 64})
            verify = workloads.Verifier(planted)
            failed = [op.key for op, code, out in outputs if verify(op, code, out)]
            if failed != [ops[0].key]:
                problems.append(f"{name}: a planted wrong digest gave failures {failed}")
            else:
                print(f"{name}: planted wrong digest counted as 1 failed op of {len(ops)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
