"""Command line front end: load a scenario file, run one command, print
an exact-rational report.

Identical input produces byte-identical output; every number is printed
as an integer or p/q, never a float.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import random
import sys
from fractions import Fraction

from .algebra import BracketMode, PbwAlgebra, Spectrum
from .engine import (
    StabilityStructure,
    VariationPath,
    _event_lines,
    _spectrum_lines,
    check_variation,
    detect_walls,
)
from .errors import ReconstructionError, ValidationError, WallcrossError
from .lattice import _Cone, _dot, wall_first_type
from .multidisk import enumerate_forests, multilink_total
from .refinement import all_refinements, twist_spectrum
from .scenario import Scenario, parse_scenario

def _structure(sc: Scenario) -> StabilityStructure:
    return StabilityStructure(
        sc.lattice, sc.z, sc.q, sc.sector, sc.trunc, sc.spectrum,
        mode=sc.mode, refinement=sc.refinement,
    )


def _path(sc: Scenario) -> VariationPath:
    if not sc.keyframes:
        raise ValidationError(
            "this command needs at least one keyframe in [central_charge]"
        )
    return VariationPath(sc.path_keyframes())


def cmd_cone(sc: Scenario) -> list[str]:
    cone = _Cone(sc.lattice, sc.z, sc.q, sc.sector, sc.trunc)
    if not cone.members:
        return ["(empty)"]
    # the cone's int heights are the exact ones times its scale
    return [f"{ch.coords} height {_ratio(_dot(cone.hrow, ch.coords), cone.scale)}" for ch in cone.members]


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = math.gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


def _word_str(word) -> str:
    if not word:
        return "1"
    return " ".join(f"e{ch.coords}" for ch in word)


def cmd_product(sc: Scenario) -> list[str]:
    element = _structure(sc).algebra().ray_product(sc.spectrum)
    return [f"{_word_str(word)} -> {c}" for word, c in element.terms()]


def cmd_factorize(sc: Scenario) -> list[str]:
    alg = _structure(sc).algebra()
    recovered = alg.factorize(alg.ray_product(sc.spectrum))
    return _spectrum_lines(recovered)


def cmd_cross(sc: Scenario) -> list[str]:
    report = check_variation(_path(sc), _structure(sc))
    return report.lines()


def cmd_walls(sc: Scenario) -> list[str]:
    struct = _structure(sc)
    events = detect_walls(_path(sc), struct.members, sc.sector)
    if not events:
        return ["no wall events"]
    return _event_lines(events)


def cmd_multilink(sc: Scenario) -> list[str]:
    if not sc.chains:
        raise ValidationError("this command needs a [chains] section")
    surface = sc.lattice.surface
    return [
        f"chain {i}: total = {multilink_total(chain, sc.z, surface)}"
        for i, chain in enumerate(sc.chains, start=1)
    ]


def cmd_twist(sc: Scenario) -> list[str]:
    if sc.refinement is None:
        raise ValidationError("this command needs a [refinement] section")
    return _spectrum_lines(twist_spectrum(sc.refinement, sc.lattice, sc.spectrum))


def _check(ok: bool, what: str) -> None:
    """A selftest check: unlike assert, it holds under python -O and exits 4."""
    if not ok:
        raise ReconstructionError(f"selftest check failed: {what}")


def cmd_selftest(sc: Scenario) -> list[str]:
    """Small property suites over the scenario's own stability data."""
    rng = random.Random(7)
    out = []

    alg = PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, sc.trunc, sc.mode)
    members = alg.members
    _check(alg._cone.first_type(members) == wall_first_type(sc.z, members), "first-type rule")
    for ch in members:
        _check(sc.sector.contains(sc.z.evaluate(ch)), f"member {ch.coords} phase")
        _check(sc.trunc.height(sc.z.evaluate(ch)) <= sc.trunc.cutoff, f"member {ch.coords} height")
    out.append(f"ok cone ({len(members)} members)")

    if members:
        for _ in range(3):
            spectrum = Spectrum({ch: Fraction(rng.randrange(-2, 3)) for ch in members})
            _check(alg.factorize(alg.ray_product(spectrum)) == spectrum, "factorization")
        out.append("ok factorization round trip")

        for _ in range(5):
            word = tuple(rng.choice(members) for _ in range(3))
            left = alg.normal_form(word, strategy="leftmost")
            right = alg.normal_form(word, strategy="rightmost")
            _check(left == right, "rewrite confluence")
        out.append("ok rewrite confluence")
    else:
        out.append("skip algebra checks: the truncated cone is empty")

    surface = sc.lattice.surface
    if surface.dim and surface.dim <= 6:
        vectors = [
            tuple(rng.randrange(-2, 3) for _ in range(surface.dim))
            for _ in range(4)
        ]
        for sigma in all_refinements(surface):
            for x in vectors:
                for y in vectors:
                    total = tuple(a + b for a, b in zip(x, y))
                    rhs = (-1) ** surface.pairing_h1(x, y) * sigma.evaluate(total)
                    _check(sigma.evaluate(x) * sigma.evaluate(y) == rhs, "refinement relation")
        out.append("ok refinement defining relation")

    zero = sc.lattice.charge((0,) * sc.lattice.rank)
    counts = [len(enumerate_forests((zero,) * n)) for n in range(1, 5)]
    _check(counts == [1, 2, 7, 38], "forest enumeration")
    out.append("ok forest enumeration")

    if alg._cone.boundary:
        out.append("skip wall scan: a member rides the sector boundary")
    else:
        constant = VariationPath((sc.z, sc.z))
        _check(detect_walls(constant, members, sc.sector) == (), "constant path")
        out.append("ok constant path has no walls")

    out.append("selftest passed")
    return out


_DISPATCH = {
    "cone": cmd_cone,
    "product": cmd_product,
    "factorize": cmd_factorize,
    "cross": cmd_cross,
    "walls": cmd_walls,
    "multilink": cmd_multilink,
    "twist": cmd_twist,
    "selftest": cmd_selftest,
}
COMMANDS = tuple(_DISPATCH)


def run(command: str, sc: Scenario) -> str:
    if command not in _DISPATCH:
        raise ValidationError(f"unknown command {command!r}")
    return "\n".join(_DISPATCH[command](sc)) + "\n"


def _apply_overrides(sc: Scenario, cutoff: str | None, mode: str | None) -> Scenario:
    changes = {}
    if cutoff is not None:
        try:
            value = Fraction(cutoff)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"malformed rational {cutoff!r}") from None
        changes["trunc"] = dataclasses.replace(sc.trunc, cutoff=value)
    if mode is not None:
        changes["mode"] = BracketMode(mode)
    return dataclasses.replace(sc, **changes) if changes else sc


# built once: parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="wallcross",
    description="Exact wall-crossing computations from a scenario file.",
)
_PARSER.add_argument("--scenario", required=True, help="path to a scenario file")
_PARSER.add_argument("--command", required=True, choices=COMMANDS)
_PARSER.add_argument(
    "--lambda", dest="cutoff", default=None, metavar="P/Q",
    help="override the truncation cutoff",
)
_PARSER.add_argument("--mode", choices=("plain", "twisted"), default=None)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        try:
            with open(args.scenario, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:  # an unreadable scenario file
            raise ValidationError(exc) from None
        sc = _apply_overrides(parse_scenario(text), args.cutoff, args.mode)
        sys.stdout.write(run(args.command, sc))
    except WallcrossError as exc:  # its class gives the kind and the exit code
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
