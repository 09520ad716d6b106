"""Output check of the CLI over its whole grid: 768 in-process runs.

Every command of ``wallcross.cli.COMMANDS`` runs on every shipped scenario,
at the scenario's own cutoff and at ``--lambda`` 0/2/3/4/6/8/10, under the
scenario's own mode and under ``--mode`` plain and twisted.  Each run's exit
code, stdout sha256 and stderr text must equal the entry recorded in
``tests/cli_grid.json``, as ``bench/golden.json`` does for the benchmark's
128 runs.  A run that raises instead of returning is recorded as exit code
``"raised"`` with the exception's class and text as its stderr.

    python tests/cli_grid.py            # check every run against the table
    python tests/cli_grid.py --record   # rewrite the table from this checkout

Record only at a commit whose outputs are known good.  Exit 0 when every run
matches, 1 naming each run that differs, 2 when the table is missing or its
runs are not this grid's.  Standard library only; the file is not a test
module, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "cli_grid.json"
SCENARIOS = ("crossing", "kronecker", "pentagon", "primitive")
LAMBDAS = (None, 0, 2, 3, 4, 6, 8, 10)  # None: the scenario's own cutoff
MODES = (None, "plain", "twisted")  # None: the scenario's own mode


def grid(commands):
    """(name, argv) of every run, in a fixed order."""
    for scenario in SCENARIOS:
        for command in commands:
            for lam in LAMBDAS:
                for mode in MODES:
                    argv = ["--scenario", f"scenarios/{scenario}.scn", "--command", command]
                    argv += [] if lam is None else ["--lambda", str(lam)]
                    argv += [] if mode is None else ["--mode", mode]
                    lam_text = "default" if lam is None else lam
                    yield f"{command}:{scenario}:lambda={lam_text}:{mode or 'default'}", argv


def run(main, argv) -> list:
    """[exit code, sha256 of stdout, stderr] of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # an uncaught error is an output too
            code = "raised"
            err.write(f"{type(exc).__name__}: {exc}\n")
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()]


def dumps(table: dict) -> str:
    """One line per run, so a re-recording diffs run by run."""
    lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
    return "{\n" + lines + "\n}\n"


def main(argv: list[str]) -> int:
    if argv not in ([], ["--record"]):
        print("usage: python tests/cli_grid.py [--record]")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from wallcross import cli

    got = {name: run(cli.main, args) for name, args in grid(cli.COMMANDS)}
    if argv:
        TABLE.write_text(dumps(got), encoding="utf-8")
        print(f"wrote {TABLE.relative_to(ROOT)}: {len(got)} runs")
        return 0
    try:
        want = json.loads(TABLE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"no table to check against: {exc}")
        return 2
    if want.keys() != got.keys():
        print(f"the table's runs are not this grid's: {len(want)} recorded, {len(got)} run")
        print(*sorted(want.keys() ^ got.keys())[:20], sep="\n  ")
        return 2
    differ = [name for name in got if got[name] != want[name]]
    for name in differ:
        print(f"differs: {name}\n  recorded {want[name]}\n  got      {got[name]}")
    print(f"{len(got) - len(differ)} of {len(got)} runs match {TABLE.relative_to(ROOT)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
