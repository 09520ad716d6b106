"""Regenerate golden.json: the expected output of every benchmark op.

    python3 bench/record_golden.py

Run this only at a commit whose outputs are known good; the benchmark then
fails, by name, every op whose output differs from what is recorded here.
It records the sha256 of each scenario file, the exit code, stdout sha256
and stderr text of every cli_sweep op, and a fixed pool of chains (drawn
from POOL_SEED) with their multilink totals.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import functools
import json
import os
import random
from fractions import Fraction

from run import GOLDEN, ROOT, import_wallcross
from workloads import SCENARIOS, Chains, cli_grid, cli_name, crossing_geometry, phase_inversions, run_cli, sha256_file

POOL_SEED = 20171115
POOL_SIZE = {True: 12, False: 24}  # chains per vertex count: phase-ordered, with inversions
MAX_HEIGHT = 8  # the chains' algebra is truncated at 8: keep every word inside it


def chain_pool(wc, rng):
    sc, trunc, letters = crossing_geometry(wc, ROOT, 2)
    height = {ch: trunc.height(sc.z.evaluate(ch)) for ch in letters}

    def clockwise(a, b):
        c = wc.cross(sc.z.evaluate(a), sc.z.evaluate(b))
        return (c > 0) - (c < 0)

    pool = []
    for n in Chains.per_pass:
        for ordered, count in POOL_SIZE.items():
            made = 0
            while made < count:
                word = [rng.choice(letters) for _ in range(n)]
                if sum(height[ch] for ch in word) > MAX_HEIGHT:
                    continue
                if ordered:  # clockwise phase order along increasing height
                    word.sort(key=functools.cmp_to_key(clockwise))
                if (phase_inversions(wc, sc.z, word) == 0) != ordered:
                    continue
                thetas = sorted(Fraction(k, 100) for k in rng.sample(range(1, 100), n))
                items = list(zip(thetas, word))
                chain = wc.make_chain(sc.lattice, items)
                total = wc.multilink_total(chain, sc.z, sc.lattice.surface)
                pool.append({
                    "items": [[str(theta), list(ch.coords)] for theta, ch in items],
                    "ordered": ordered,
                    "total": str(total),
                })
                made += 1
    return pool


def dumps(golden) -> str:
    """One line per cli op and per chain, so a re-recording diffs op by op."""
    cli = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in golden["cli"].items())
    chains = ",\n".join(f"  {json.dumps(c)}" for c in golden["chains"])
    return (
        f'{{\n "scenario_sha256": {json.dumps(golden["scenario_sha256"])},\n'
        f' "cli": {{\n{cli}\n }},\n "chains": [\n{chains}\n ]\n}}\n'
    )


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    wc = import_wallcross()
    golden = {
        "scenario_sha256": {s: sha256_file(ROOT / "scenarios" / f"{s}.scn") for s in SCENARIOS},
        "cli": {cli_name(op): list(run_cli(wc, op)) for op in cli_grid(wc.cli.COMMANDS)},
        "chains": chain_pool(wc, random.Random(POOL_SEED)),
    }
    GOLDEN.write_text(dumps(golden), encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(golden['cli'])} cli ops, {len(golden['chains'])} chains")


if __name__ == "__main__":
    main()
