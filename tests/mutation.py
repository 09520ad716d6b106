"""Mutation check of the fast paths: each mutant must fail tier-1.

Each entry of MUTANTS is (name, file, old text, new text, why).  The script
copies the checkout to a temporary directory once per mutant, replaces the
old text (which must occur exactly once) by the new one and runs tier-1
with ``-x``.  A mutant is killed when tier-1 fails.  EQUIVALENT lists the
mutants that change no behaviour, with the reason; those must survive, so
that a stale reason shows.

    python tests/mutation.py             # every mutant
    python tests/mutation.py NAME ...    # the named ones
    python tests/mutation.py --list

Exit 0 when every mutant is killed and every equivalent one survives, 1
otherwise, 2 when an entry no longer matches its file.  Standard library
only; the file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/wallcross/engine.py"
ALGEBRA = "src/wallcross/algebra.py"
LATTICE = "src/wallcross/lattice.py"
MULTIDISK = "src/wallcross/multidisk.py"
REFINEMENT = "src/wallcross/refinement.py"
SCENARIO = "src/wallcross/scenario.py"
CLI = "src/wallcross/cli.py"

MUTANTS = [
    # -- the closed-form sector product and factorization
    ("closed-form-cutoff", ALGEBRA,
     "while total + k * h <= cap:", "while total + k * h < cap:",
     "the closed form drops the words exactly at the cutoff"),
    ("closed-form-coefficient", ALGEBRA,
     "n, d = n * an, d * ad * k", "n, d = n * an, d * ad",
     "the closed form forgets the 1/k! of a repeated letter"),
    ("closed-form-first-power", ALGEBRA,
     "grown.append((word + (i,) * k, n, d, total + k * h))\n                    k += 1",
     "grown.append((word + (i,) * k, n, d, total + k * h))\n                    break",
     "the closed form keeps only the first power of each letter, in a ray's factor too"),
    ("ray-factor-first-letter", ALGEBRA,
     "for ch in group], math.inf)", "for ch in group[:1]], math.inf)",
     "a ray's factor is the closed form of its first letter alone"),
    # -- the rays of a generator order: one int key per member, grouped by _Cone.runs
    ("ray-key-test", LATTICE,
     "lambda ch: rays[index[ch]])]", "lambda ch: index[ch])]",
     "letters on one ray split into runs of one, so no first-type wall is met"),
    ("first-type-by-height", LATTICE,
     "zip(charges, self._keys(charges)[1])", "zip(charges, self._keys(charges)[0])",
     "the first-type rule groups the support by height, not by ray"),
    ("order-height-unit", ALGEBRA,
     "Fraction(h, cone.scale)", "Fraction(h)",
     "the word heights read the cone's int heights as exact ones"),
    # -- multiply: the right words by height, up to the first over the cutoff
    ("multiply-cutoff", ALGEBRA,
     "if hb > room:", "if hb >= room:",
     "multiply drops the pairs exactly at the cutoff"),
    ("multiply-unsorted", ALGEBRA,
     "right_items = sorted(\n"
     "            [(wb, cb, self._word_height(wb)) for wb, cb in right._terms.items()],\n"
     "            key=lambda item: item[2])",
     "right_items = [(wb, cb, self._word_height(wb)) for wb, cb in right._terms.items()]",
     "the walk stops at the first word over the cutoff and skips later ones that fit"),
    ("multiply-no-early-exit", ALGEBRA,
     "if hb > room:\n                    break", "if hb > room:\n                    continue",
     "every left word tests every right word"),
    # -- the cone's chart: its scan interval and its integer cutoff
    ("scan-upper-bound", LATTICE,
     "hi = min(hi, rest // c)", "hi = min(hi, rest // c - 1)",
     "the scan loses the last point of each interval"),
    ("scan-lower-bound", LATTICE,
     "lo = max(lo, -(rest // -c))", "lo = max(lo, -(rest // -c) + 1)",
     "the scan loses the first point of each interval"),
    ("chart-cut", LATTICE,
     "self.cut = trunc.cutoff.numerator * self.scale // trunc.cutoff.denominator",
     "self.cut = trunc.cutoff.numerator * self.scale // trunc.cutoff.denominator - 1",
     "the integer cutoff drops the members exactly at the cutoff"),
    # -- convert: the insertion memo and the height drop
    ("insert-memo-key", ALGEBRA,
     "got = memo.get((a, u))", "got = memo.get((a, u[1:]))",
     "the memo answers e_a u with e_a of u's tail"),
    ("insert-memo-miss", ALGEBRA,
     "got = memo.get((a, u))", "got = None",
     "the memo never hits"),
    ("convert-height-drop", ALGEBRA,
     "if self._word_height(idxs) > self._cutoff:\n                continue",
     "if self._word_height(idxs) >= self._cutoff:\n                continue",
     "convert drops the words exactly at the cutoff"),
    # -- the bracket memo of a generator order
    ("bracket-memo-key", ALGEBRA,
     "k, tgt = brackets.get((a, b)) or self._bracket(a, b)",
     "k, tgt = brackets.get((b, a)) or self._bracket(a, b)",
     "a rewrite reads the memoized bracket of the reversed pair"),
    ("bracket-twisted-flip", ALGEBRA,
     "if k & 1 and self.mode is BracketMode.TWISTED:\n            k = -k",
     "if False:\n            k = -k",
     "twisted mode brackets by the plain pairing"),
    # -- the transport memo and its target cone
    ("transport-key", ENGINE,
     "key = target.order.charges", "key = tuple(target.members)",
     "every target reads the seeded spectrum of the source order"),
    ("transport-seed", ENGINE,
     "{self._cone.order.charges: self.spectrum}", "{}",
     "the source order's spectrum is factorized again"),
    ("transport-target-z", ENGINE,
     "target = _Cone(struct.lattice, z_new,", "target = _Cone(struct.lattice, struct.z,",
     "a transport builds its target cone under the source central charge"),
    ("transport-source-cone", ENGINE,
     "members, mset = target.members, _same_members(struct, target)",
     "members, mset = struct._cone.members, _same_members(struct, struct._cone)",
     "the membership check and both guards read the source's members"),
    # -- the walls read off a cone: the first-type pair of the support's own
    # ray keys, and the members on a boundary ray
    ("first-type-ray-order", LATTICE,
     "for b1, *rest in rays.values()", "for b1, *rest in reversed(rays.values())",
     "of two walled rays the one with the greatest first member wins, not the least"),
    ("first-type-ray-witness", LATTICE,
     "for b1, *rest in rays.values()", "for *rest, b1 in rays.values()",
     "a ray's witness starts from its last member in coordinates, not its first"),
    ("structure-first-type-members", ENGINE,
     "self._cone.first_type(support)", "self._cone.first_type(self.members)",
     "the structure rejects a wall among its members that its support does not meet"),
    ("second-type-guard", LATTICE,
     "if not all(_dot(row, ch.coords) for row, _ in self.forms[1:])",
     "if all(_dot(row, ch.coords) for row, _ in self.forms[1:])",
     "the boundary holds the members off the boundary rays, not those on them"),
    ("boundary-start-ray", LATTICE,
     "for row, _ in self.forms[1:]))", "for row, _ in self.forms[2:]))",
     "the boundary reads the end ray alone and misses the members on the start ray"),
    # -- with_mode: a twin on the same cone
    ("with-mode-members", ALGEBRA,
     "return PbwAlgebra._over(self._cone, mode)",
     "return PbwAlgebra(self.lattice, self.z, self.q, self.sector, self.trunc, mode)",
     "with_mode widens an algebra on explicit members to the whole cone"),
    ("with-mode-mode", ALGEBRA,
     "return PbwAlgebra._over(self._cone, mode)", "return PbwAlgebra._over(self._cone, self.mode)",
     "with_mode keeps the source's bracket mode"),
    # -- explicit members: the chart's half-planes and a nonzero Z
    ("member-zero-charge", LATTICE,
     "or not _dot(self.hrow, ch.coords)\n", "\n",
     "an explicit member with Z = 0 passes"),
    # -- the kernel check
    ("kernel-pivot-sign", LATTICE,
     "if pivot * sign <= 0:", "if pivot * sign < 0:",
     "a singular form on ker Z passes as negative definite"),
    ("kernel-skip", LATTICE,
     "if _kernel_rows(self.zx, self.zy):", "if False:",
     "the cone no longer checks Q on ker Z"),
    # -- multilink: the link rule on per-vertex readings, shared by link and multilink_total
    ("link-lower-higher", MULTIDISK,
     "cross = _cross(lower[0], higher[0])", "cross = _cross(higher[0], lower[0])",
     "the rule reads the higher curve's phase as the lower one's"),
    ("link-first-type", MULTIDISK,
     "if cross == 0 and pairing:", "if False:",
     "parallel charges with a nonzero pairing give the pairing, not a first-type wall"),
    ("readings-surface-check", MULTIDISK,
     "if len(b) != surface.dim:", "if False:",
     "a surface of the wrong genus passes wherever no pairing is read"),
    ("multilink-factorial", MULTIDISK,
     "return sum(Fraction(s, factorial(k)) for k, s in enumerate(by_count))",
     "return sum(Fraction(s, factorial(k + 1)) for k, s in enumerate(by_count))",
     "each edge count is divided by the wrong factorial"),
    ("multilink-last-count", MULTIDISK,
     "for k, s in enumerate(by_count))", "for k, s in enumerate(by_count[:-1]))",
     "the sum leaves out the count of n edges"),
    # -- the forest edge sets that multilink_total and enumerate_forests share
    ("forest-spanning-trees", MULTIDISK,
     "for k in range(n or 1):", "for k in range(max(n - 1, 1)):",
     "the edge sets stop short of the spanning trees"),
    ("forest-cycle-filter", MULTIDISK,
     "if _acyclic(n, subset):", "if True:",
     "every edge subset passes as a forest, cycles included"),
    # -- the variation walk: the cone at every interior keyframe
    ("keyframe-membership", ENGINE,
     "if frame != struct.z:", "if False:",
     "a keyframe whose cone differs passes when no sample lands near it"),
    # -- root isolation and clustering
    ("roots-double-root", ENGINE,
     "if disc <= 0:\n        return []", "if disc < 0:\n        return []",
     "a grazing double root counts as an event"),
    ("roots-integer-square", ENGINE,
     "if root * root == disc:", "if root * root <= disc:",
     "an irrational root pair is read as rational, on the floor of its square root"),
    ("roots-bisection-stop", ENGINE,
     "while hi - lo > tol or lo < 0 < hi or lo < 1 < hi:", "while hi - lo > tol:",
     "bisection stops at the width alone, before the bracket clears 0 and 1"),
    ("roots-bisection-side", ENGINE,
     "if value(mid) * flo < 0:", "if value(mid) * flo > 0:",
     "bisection keeps the half without the root"),
    ("cluster-touching", ENGINE,
     "if clusters and lo <= clusters[-1].hi:", "if clusters and lo < clusters[-1].hi:",
     "touching event intervals form two clusters"),
    # -- to_twisted
    ("to-twisted-signs", REFINEMENT,
     "word: coeff * math.prod(map(signs.__getitem__, word))",
     "word: coeff",
     "to_twisted keeps the plain coefficients"),
    # -- the fixed cost of a command: cone scan, closure and output
    ("cone-zero-point", LATTICE,
     "if h and _dot(qm, [a * b for a in point for b in point]) >= 0:",
     "if _dot(qm, [a * b for a in point for b in point]) >= 0:",
     "the cone keeps the points where Z = 0"),
    ("cone-q-test", LATTICE,
     "if h and _dot(qm, [a * b for a in point for b in point]) >= 0:",
     "if h and _dot(qm, [a * b for a in point for b in point]) > 0:",
     "the cone drops the generators with Q = 0"),
    ("cone-key-base", LATTICE,
     "powers = [(2 * box * self.cut + 1) ** i for i in range(self.lattice.rank)]",
     "powers = [(box + 1) ** i for i in range(self.lattice.rank)]",
     "the member keys collide once a coordinate leaves the box"),
    ("cone-height-text", CLI,
     'return f"{n // g}" if g == d else f"{n // g}/{d // g}"',
     'return f"{n // g}/{d // g}"',
     "cone prints an integral height as p/1"),
    ("square-check-sign", LATTICE,
     "if mat != tuple(zip(*mat) if sign > 0 else",
     "if mat != tuple(zip(*mat) if sign < 0 else",
     "the symmetric and skew tests swap"),
    ("sector-convexity", LATTICE,
     "if _cross(*_scaled((start, end))[1]) >= 0:", "if _cross(*_scaled((start, end))[1]) > 0:",
     "a sector of parallel rays passes as strictly convex"),
    ("sector-positivity", LATTICE,
     "if _dot(cov, start) <= 0 or _dot(cov, end) <= 0:",
     "if _dot(cov, start) < 0 or _dot(cov, end) < 0:",
     "a covector vanishing on a sector ray passes"),
    ("token-signed-denominator", SCENARIO,
     '(?:/([0-9]{1,640}))?', '(?:/([+-]?[0-9]{1,640}))?',
     "a token p/-q reads as a rational, where Fraction rejects it"),
    ("token-integer-denominator", SCENARIO,
     "Fraction(int(m[1]), int(m[2] or 1))", "Fraction(int(m[1]), int(m[2] or 2))",
     "an integer token reads as half its value"),
    ("token-row-unicode-digits", SCENARIO,
     'r"\\s*[+-]?[0-9]{1,640}(?:\\s+[+-]?[0-9]{1,640})*\\s*", re.ASCII',
     'r"\\s*[+-]?\\d{1,640}(?:\\s+[+-]?\\d{1,640})*\\s*"',
     "a row of non-ASCII digits or whitespace takes the int() path"),
    ("chain-distinct-heights", MULTIDISK,
     "if any(a == b for a, b in zip(thetas, thetas[1:])):",
     "if any(a == b for a, b in zip(thetas, thetas[2:])):",
     "two vertices at one height pass when they are neighbours"),
    ("chain-height-range", MULTIDISK,
     "if not 0 < self.theta.numerator < self.theta.denominator:",
     "if not 0 < self.theta.numerator <= self.theta.denominator:",
     "a chain vertex at height 1 passes"),
]

EQUIVALENT = {
    "multilink-last-count": "by_count[n] is always 0: a forest on n vertices has at most n - 1 edges",
    "insert-memo-miss": "a memo that always misses only makes convert slower",
    "multiply-no-early-exit": "only slower; item 14's work goldens will kill it",
    "token-row-unicode-digits": (
        "int() reads non-ASCII digits and strips Unicode whitespace as the "
        "per-token readers do, so the row's values are the same"),
}

TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 900  # tier-1 takes under a minute


def stale(tree: Path, file: str, old: str) -> str | None:
    """Why the entry no longer applies to tree, or None."""
    found = (tree / file).read_text(encoding="utf-8").count(old)
    return None if found == 1 else f"{file}: expected one occurrence of {old!r}, found {found}"


def run(name: str, file: str, old: str, new: str) -> tuple[bool, float, str]:
    """(killed, seconds, the first failing test or the tail of the output)."""
    with tempfile.TemporaryDirectory(prefix="wallcross-mutant-") as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        path = tree / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        began = time.perf_counter()
        try:
            done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # a mutant that hangs tier-1 is caught too
            return True, time.perf_counter() - began, f"tier-1 ran past {TIMEOUT_S} s"
        seconds = time.perf_counter() - began
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    tail = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
    return done.returncode != 0, seconds, (failed or tail)[0]


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, file, _, _, why in MUTANTS:
            print(f"{name:28} {file:30} {why}")
        return 0
    table = {m[0]: m for m in MUTANTS}
    unknown = [a for a in argv if a not in table]
    if unknown or set(EQUIVALENT) - set(table):
        print(f"unknown mutants: {unknown or sorted(set(EQUIVALENT) - set(table))}")
        return 2
    names = argv or list(table)
    problems = [p for p in (stale(ROOT, *table[n][1:3]) for n in names) if p]
    if problems:
        print("stale entries:", *problems, sep="\n  ")
        return 2
    bad = 0
    for name in names:
        _, file, old, new, why = table[name]
        killed, seconds, detail = run(name, file, old, new)
        if name in EQUIVALENT:
            verdict = "KILLED (listed as equivalent)" if killed else "equivalent"
            bad += killed
        else:
            verdict = "killed" if killed else "SURVIVED"
            bad += not killed
        print(f"{verdict:10} {name:28} {seconds:6.1f} s  {why}")
        print(f"{'':10} {detail if killed else EQUIVALENT.get(name, 'tier-1 passed')}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
