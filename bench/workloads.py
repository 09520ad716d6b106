"""The three benchmark workloads.

Each workload is built from a freshly imported ``wallcross`` package (its
construction is the timed set-up) and then serves passes: fixed-shape lists
of ops drawn from the benchmark seed.  ``run(op)`` executes one op through
the public API and returns ``(ok, record, reason)``: whether the exact
output matched, a value that identifies the output (compared between the
traced and untraced runs), and why the op failed.

Every call into the program goes through attributes of the package module
at call time, so the tracer's patched bindings see it.  ``direct`` names the
traced functions a workload's own code calls (set-up included); a traced run
that records no call of one of them has missed a binding and fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
from collections import Counter
from fractions import Fraction
from pathlib import Path

SCENARIOS = ("primitive", "crossing")
LAMBDAS = (2, 4, 6, 8)
MODES = ("plain", "twisted")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_grid(commands):
    """The full cli_sweep op set: command x scenario x lambda x mode."""
    return [
        (command, scenario, lam, mode)
        for command in commands
        for scenario in SCENARIOS
        for lam in LAMBDAS
        for mode in MODES
    ]


def cli_argv(op):
    command, scenario, lam, mode = op
    return ["--scenario", f"scenarios/{scenario}.scn", "--command", command,
            "--lambda", str(lam), "--mode", mode]


def cli_name(op):
    command, scenario, lam, mode = op
    return f"{command}:{scenario}:lambda={lam}:{mode}"


def run_cli(wc, op):
    """One in-process CLI call: (exit code, sha256 of stdout, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wc.cli.main(cli_argv(op))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue().strip()


def crossing_geometry(wc, root: Path, cutoff):
    """The crossing.scn scenario with its truncation cutoff replaced."""
    sc = wc.parse_scenario((root / "scenarios" / "crossing.scn").read_text(encoding="utf-8"))
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(cutoff))
    members = wc.cone_enumerate(sc.lattice, sc.z, sc.q, sc.sector, trunc)
    return sc, trunc, members


def histogram(values):
    return {str(k): v for k, v in sorted(Counter(values).items())}


def phase_inversions(wc, z, charges):
    """Pairs whose height order (list order) disagrees with clockwise phase order."""
    values = [z.evaluate(ch) for ch in charges]
    return sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if wc.cross(values[i], values[j]) > 0
    )


class CliSweep:
    """Every command on both shipped scenarios at lambda 2/4/6/8 in both modes.

    This is how users drive the system and the only workload where the
    engine (walls, confirmation, transport) and the scenario parser do real
    work.  The seed only shuffles the order of the fixed 128-op set.
    """

    name = "cli_sweep"
    pass_ops = 128
    min_passes = 2
    direct = ("cli.run", "scenario.parse_scenario")

    def __init__(self, wc, root: Path, golden: dict):
        self.wc = wc
        for scenario, digest in golden["scenario_sha256"].items():
            if sha256_file(root / "scenarios" / f"{scenario}.scn") != digest:
                raise RuntimeError(f"scenarios/{scenario}.scn differs from the recorded golden input")
        self.grid = cli_grid(wc.cli.COMMANDS)
        self.expected = {cli_name(op): tuple(golden["cli"][cli_name(op)]) for op in self.grid}

    def next_pass(self, rng):
        ops = list(self.grid)
        rng.shuffle(ops)
        return ops

    def op_name(self, op):
        return cli_name(op)

    def run(self, op):
        record = run_cli(self.wc, op)
        expected = self.expected[cli_name(op)]
        if record == expected:
            return True, record, ""
        return False, record, f"got exit/sha256/stderr {record!r}, expected {expected!r}"

    def properties(self, ops):
        return {
            "expected_error_ops": sum(1 for op in ops if self.expected[cli_name(op)][0] != 0),
            "ops_per_lambda": histogram(op[2] for op in ops),
        }


class Roundtrip:
    """ray_product then factorize on the 37-member crossing cone at cutoff 6.

    The algebra's sorted-concatenation path, with lattice and engine absent
    from the timed loop: a faster product or multiply shows here, a cone or
    wall change must not.  Each pass holds every even support size from 2 to
    32 once per mode, so the size histogram and the plain/twisted split are
    the same on every seed; the seed picks the charges and the weights.
    """

    name = "roundtrip"
    support_sizes = tuple(range(2, 33, 2))
    pass_ops = 2 * len(support_sizes)
    min_passes = 7
    direct = (
        "scenario.parse_scenario", "lattice.cone_enumerate", "algebra.build", "algebra.ray_product",
        "algebra.factorize", "refinement.to_twisted", "refinement.twist_spectrum",
    )
    weights = (-3, -2, -1, 1, 2, 3)

    def __init__(self, wc, root: Path, golden: dict):
        self.wc = wc
        sc, trunc, members = crossing_geometry(wc, root, 6)
        if len(members) != 37:
            raise RuntimeError(f"roundtrip expects the 37-member cone, got {len(members)}")
        self.members = members
        self.algebras = {
            mode: wc.PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, trunc, mode=mode, members=members)
            for mode in MODES
        }
        # to_twisted is a plain -> twisted algebra morphism: check it once on a
        # six-charge spectrum, so a broken twisted algebra fails before timing.
        spectrum = wc.Spectrum({ch: Fraction(1) for ch in members[:6]})
        twisted = wc.to_twisted(sc.refinement, self.algebras["plain"].ray_product(spectrum))
        direct = self.algebras["twisted"].ray_product(
            wc.twist_spectrum(sc.refinement, sc.lattice, spectrum)
        )
        if twisted != direct:
            raise RuntimeError("to_twisted disagrees with the twisted ray product")

    def next_pass(self, rng):
        ops = []
        for size in self.support_sizes:
            for mode in MODES:
                support = rng.sample(self.members, size)
                weights = {ch: Fraction(rng.choice(self.weights), rng.randrange(1, 4)) for ch in support}
                ops.append((self.wc.Spectrum(weights), mode, size))
        rng.shuffle(ops)
        return ops

    def op_name(self, op):
        spectrum, mode, size = op
        return f"roundtrip:{mode}:k={size}:{spectrum!r}"

    def run(self, op):
        spectrum, mode, _size = op
        algebra = self.algebras[mode]
        product = algebra.ray_product(spectrum)
        recovered = algebra.factorize(product)
        if recovered == spectrum:
            return True, (product, recovered), ""
        return False, (product, recovered), f"factorize returned {recovered!r}"

    def properties(self, ops):
        return {
            "support_size_histogram": histogram(op[2] for op in ops),
            "mode_split": histogram(op[1] for op in ops),
        }


class Chains:
    """Nice chains of 3-6 vertices from a recorded pool over the cutoff-2 cone.

    The only workload where multidisk does real work (n=6 enumerates every
    forest on K_6), and a rewrite-heavy use of the algebra: normal_form on
    unsorted words in the cutoff-8 algebra.  Every pass of 30 holds 3, 3, 18
    and 6 chains of 3, 4, 5 and 6 vertices, a third of each phase-ordered,
    so the histogram and the ordered share are fixed while the seed picks the
    chains and the rewrite positions.  The median then falls in the middle
    of the n=5 ops and the p90 tail in the middle of the n=6 ops: a quantile
    at the edge of a group would swing with the host speed.
    """

    name = "chains"
    per_pass = {3: (1, 2), 4: (1, 2), 5: (6, 12), 6: (2, 4)}  # n: (ordered, with inversions)
    pass_ops = sum(a + b for a, b in per_pass.values())
    min_passes = 4
    direct = (
        "scenario.parse_scenario", "lattice.cone_enumerate", "algebra.build",
        "multidisk.multilink_total", "multidisk.crossing_rewrite", "algebra.normal_form",
    )

    def __init__(self, wc, root: Path, golden: dict):
        self.wc = wc
        sc, trunc, members = crossing_geometry(wc, root, 8)
        self.z, self.surface = sc.z, sc.lattice.surface
        self.algebra = wc.PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, trunc, members=members)
        self.buckets: dict[tuple[int, bool], list] = {}
        for index, entry in enumerate(golden["chains"]):
            items = [(Fraction(theta), coords) for theta, coords in entry["items"]]
            chain = wc.make_chain(sc.lattice, items)
            key = (len(chain), entry["ordered"])
            self.buckets.setdefault(key, []).append((index, chain, Fraction(entry["total"])))

    def next_pass(self, rng):
        ops = []
        for n, (ordered, inverted) in self.per_pass.items():
            for is_ordered, count in ((True, ordered), (False, inverted)):
                for _ in range(count):
                    index, chain, total = rng.choice(self.buckets[(n, is_ordered)])
                    ops.append((index, chain, total, is_ordered, rng.randrange(n - 1)))
        rng.shuffle(ops)
        return ops

    def op_name(self, op):
        index, chain, _total, _ordered, j = op
        return f"chain:pool={index}:n={len(chain)}:j={j}"

    def run(self, op):
        _index, chain, expected, ordered, j = op
        wc = self.wc
        total = wc.multilink_total(chain, self.z, self.surface)
        rewritten = wc.multidisk.combination_to_algebra(
            self.algebra, wc.crossing_rewrite(chain, j, self.surface)
        )
        original = wc.multidisk.chain_to_algebra(self.algebra, chain)
        record = (total, rewritten)
        if total != expected:
            return False, record, f"multilink total {total}, expected {expected}"
        if ordered and total != 1:
            return False, record, f"phase-ordered chain has multilink total {total}, not 1"
        if rewritten != original:
            return False, record, "crossing rewrite changed the algebra image"
        return True, record, ""

    def properties(self, ops):
        inverted = sum(
            1 for op in ops if phase_inversions(self.wc, self.z, op[1].to_monomial()) > 0
        )
        return {
            "vertex_count_histogram": histogram(len(op[1]) for op in ops),
            "inverted_share": inverted / len(ops),
        }


WORKLOADS = {w.name: w for w in (CliSweep, Roundtrip, Chains)}
