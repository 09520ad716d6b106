"""Self-checks of the benchmark itself (about five minutes, one core).

    python3 bench/check.py

1. Golden gate: changing one recorded cli_sweep digest, or one chain's
   multilink total, makes exactly that op fail, by name.
2. Deterministic counts: traced runs with the same seed repeat every
   ``.calls`` value and size count exactly; on roundtrip and chains a
   different seed changes them (on cli_sweep the seed only reorders a
   fixed op set, so they must not change).
3. Tracer coverage: every traced function records calls on at least one
   workload, so a missed binding cannot read as free, and every traced
   run passes its own checks (traced outputs equal untraced ones, self
   time within each span).

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import copy
import json
import os
import subprocess
from pathlib import Path

from run import GOLDEN, ROOT, Tally, run_pass, setup
from tracer import SIZE_COUNTS, TRACED
from workloads import WORKLOADS, cli_name

RUN = Path(__file__).resolve().parent / "run.py"
SEED, OTHER_SEED = 11, 12


def tamper_fails_by_name(golden) -> list[str]:
    problems = []
    cli = WORKLOADS["cli_sweep"]
    op = ("cross", "crossing", 4, "twisted")
    bad = copy.deepcopy(golden)
    bad["cli"][cli_name(op)][1] = "0" * 64
    workload, _ = setup(cli, bad, 1)
    tally = Tally()
    run_pass(workload, [op, ("cone", "primitive", 2, "plain")], tally)
    if [name for name, _ in tally.failures] != [cli_name(op)]:
        problems.append(f"tampered cli digest: failures {tally.failures}")

    entry = golden["chains"][0]
    bad = copy.deepcopy(golden)
    bad["chains"][0]["total"] = "12345"
    workload, _ = setup(WORKLOADS["chains"], bad, 1)
    index, chain, total = next(e for e in workload.buckets[(len(entry["items"]), entry["ordered"])] if e[0] == 0)
    tally = Tally()
    run_pass(workload, [(index, chain, total, entry["ordered"], 0)], tally)
    if len(tally.failures) != 1 or not tally.failures[0][0].startswith("chain:pool=0:"):
        problems.append(f"tampered chain total: failures {tally.failures}")
    return problems


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["returncode"] = proc.returncode
    result["stderr"] = proc.stderr
    return result


def counts(result) -> dict:
    names = [f"{name}.calls" for name, *_ in TRACED] + list(SIZE_COUNTS)
    return {name: result["metrics"][name]["value"] for name in names}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    problems = tamper_fails_by_name(golden)

    called = set()
    for workload in WORKLOADS:
        first, second, third = (traced_run(workload, s) for s in (SEED, SEED, OTHER_SEED))
        for result in (first, second, third):
            if not result["correct"] or result["returncode"] != 0:
                problems.append(f"{workload}: traced run failed:\n{result['stderr']}")
        if counts(first) != counts(second):
            diff = {k: (v, counts(second)[k]) for k, v in counts(first).items() if counts(second)[k] != v}
            problems.append(f"{workload}: counts differ between two runs of seed {SEED}: {diff}")
        changed = counts(first) != counts(third)
        if changed != (workload != "cli_sweep"):
            problems.append(f"{workload}: seed {OTHER_SEED} {'changed' if changed else 'did not change'} the counts")
        called |= {name for name, *_ in TRACED if first["metrics"][f"{name}.calls"]["value"] > 0}
        print(f"{workload}: counts repeat for seed {SEED}; seed {OTHER_SEED} changes them: {changed}")

    missed = [name for name, *_ in TRACED if name not in called]
    if missed:
        problems.append(f"no calls on any workload (missed binding?): {missed}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print("all benchmark self-checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
