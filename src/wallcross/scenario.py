"""Plain-text scenario files describing a full stability setup.

The format is line based so golden outputs stay diff friendly:

    # full-line comments and blank lines are ignored; no comment after a value
    [lattice]
    rank = 2
    boundary = 1 0 ; 0 1

    [central_charge]
    matrix = 1 -1 ; 1 1
    # optional, repeatable
    keyframe = -3 -1 ; 1 1

Matrices are rows of whitespace-separated rationals joined by ';'.
Spectrum entries read ``entry = <coords> : <weight>`` and chains read
``chain = <height> : <coords> , <height> : <coords> , ...``.  Every
value is parsed as an exact rational; malformed input is rejected with
the offending line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import BracketMode, Spectrum
from .errors import ValidationError
from .lattice import (
    CentralCharge,
    ChargeLattice,
    QuadraticForm,
    Sector,
    SurfaceModel,
    TruncationSet,
    _checker,
    check_kernel_definiteness,
)
from .multidisk import NiceChain, make_chain
from .refinement import QuadraticRefinement


@dataclass(frozen=True)
class Scenario:
    lattice: ChargeLattice
    z: CentralCharge
    keyframes: tuple[CentralCharge, ...]
    q: QuadraticForm
    sector: Sector
    trunc: TruncationSet
    mode: BracketMode
    spectrum: Spectrum
    refinement: Optional[QuadraticRefinement]
    chains: tuple[NiceChain, ...]

    def path_keyframes(self) -> tuple[CentralCharge, ...]:
        return (self.z,) + self.keyframes


# section name -> (repeatable keys, single keys)
_SCHEMA = {
    "lattice": ((), ("rank", "boundary")),
    "surface": ((), ("genus", "intersection")),
    "central_charge": (("keyframe",), ("matrix",)),
    "quadratic_form": ((), ("matrix",)),
    "sector": ((), ("start", "end")),
    "truncation": ((), ("covector", "cutoff", "scan_box")),
    "mode": ((), ("value",)),
    "spectrum": (("entry",), ()),
    "refinement": ((), ("signs",)),
    "chains": (("chain",), ()),
}
_REQUIRED = (
    "lattice", "surface", "central_charge", "quadratic_form",
    "sector", "truncation", "mode", "spectrum",
)

# ASCII integers apart by whitespace, and an ASCII p or p/q, of at most 640 digits (int()'s
# least limit): int() reads these as Fraction would; '_' or a non-ASCII digit takes parse
_INTEGERS = re.compile(r"\s*[+-]?[0-9]{1,640}(?:\s+[+-]?[0-9]{1,640})*\s*", re.ASCII).fullmatch
_RATIONAL = re.compile(r"\s*([+-]?[0-9]{1,640})(?:/([0-9]{1,640}))?\s*", re.ASCII).fullmatch


def _fail(lineno: int, message: str):
    raise ValidationError(f"line {lineno}: {message}")


def _fraction(token: str, lineno: int) -> Fraction:
    try:
        m = _RATIONAL(token)
        return Fraction(int(m[1]), int(m[2] or 1)) if m else Fraction(token)
    except (ValueError, ZeroDivisionError):
        _fail(lineno, f"malformed rational {token!r}")


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(lineno, f"expected an integer, got {token!r}")


def _row(value: str, lineno: int, parse=_fraction) -> tuple:
    """The whitespace-separated tokens, each read by parse (ASCII integers by int())."""
    parts = value.split()
    if not parts:
        _fail(lineno, "empty vector")
    if _INTEGERS(value):
        return tuple(map(int, parts))  # every value type makes its ints exact
    return tuple(parse(p, lineno) for p in parts)


def _matrix(value: str, lineno: int, parse=_fraction):
    rows = [_row(chunk, lineno, parse) for chunk in value.split(";")]
    if len({len(r) for r in rows}) != 1:
        _fail(lineno, "matrix rows have unequal lengths")
    return tuple(rows)


def _build(lineno: int, fn, *args, **kw):
    # re-raise constructor errors with the line that caused them
    try:
        return fn(*args, **kw)
    except ValidationError as exc:
        _fail(lineno, str(exc))


class _Section:
    def __init__(self, lineno: int):
        self.lineno = lineno
        self.single: dict[str, tuple[int, str]] = {}
        self.repeated: list[tuple[int, str, str]] = []


def _collect(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                _fail(lineno, f"unknown section [{name}]")
            if name in sections:
                _fail(lineno, f"duplicate section [{name}]")
            section = sections[name] = _Section(lineno)
            current, (repeatable, single) = name, _SCHEMA[name]
            continue
        if "=" not in line:
            _fail(lineno, "expected 'key = value' or a [section] header")
        if current is None:
            _fail(lineno, "key outside a section")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in repeatable:
            section.repeated.append((lineno, key, value))
        elif key in single:
            if key in section.single:
                _fail(lineno, f"duplicate key {key!r} in [{current}]")
            section.single[key] = (lineno, value)
        else:
            _fail(lineno, f"unknown key {key!r} in [{current}]")
    for name in _REQUIRED:
        if name not in sections:
            raise ValidationError(f"scenario is missing section [{name}]")
    return sections


def parse_scenario(text: str) -> Scenario:
    if not isinstance(text, str):
        raise ValidationError(f"scenario text must be a str, got {text!r}")
    sections = _collect(text)

    def need(section: str, key: str) -> tuple[int, str]:
        entry = sections[section].single.get(key)
        if entry is None:
            raise ValidationError(f"section [{section}] is missing key {key!r}")
        return entry

    ln, val = need("lattice", "rank")
    rank = _int(val, ln)
    ln, val = need("surface", "genus")
    genus = _int(val, ln)
    inter = sections["surface"].single.get("intersection")
    if inter is None:
        if genus >= 0:  # the lattice's rank and row checks, before the 2g x 2g form is built
            bln, bval = need("lattice", "boundary")
            rows = len(_matrix(bval, bln, _int))
            if rank < 1:
                _fail(bln, "lattice rank must be positive")
            if rows != 2 * genus:
                _fail(bln, "boundary matrix must have one row per homology basis vector")
        surface = _build(ln, SurfaceModel.standard, genus)
    else:
        surface = _build(inter[0], SurfaceModel, _matrix(inter[1], inter[0], _int))
        if surface.dim != 2 * genus:
            _fail(inter[0], "intersection matrix does not match the genus")
    ln, val = need("lattice", "boundary")
    lattice = _build(ln, ChargeLattice, rank, _matrix(val, ln, _int), surface)

    ln, val = need("central_charge", "matrix")
    z = _build(ln, CentralCharge, _matrix(val, ln))
    keyframes = tuple(
        _build(kln, CentralCharge, _matrix(kval, kln))
        for kln, _, kval in sections["central_charge"].repeated
    )
    ln, val = need("quadratic_form", "matrix")
    q = _build(ln, QuadraticForm, _matrix(val, ln))

    sln, sval = need("sector", "start")
    eln, eval_ = need("sector", "end")
    start, end = _row(sval, sln), _row(eval_, eln)
    if len(start) != 2 or len(end) != 2:
        _fail(sln if len(start) != 2 else eln, "sector directions live in the plane")
    sector = _build(eln, Sector, start, end)

    ln, val = need("truncation", "covector")
    covector = _row(val, ln)
    if len(covector) != 2:
        _fail(ln, "truncation covector lives in the plane")
    cln, cval = need("truncation", "cutoff")
    bln, bval = need("truncation", "scan_box")
    trunc = _build(cln, TruncationSet, covector, _fraction(cval, cln), _int(bval, bln))

    ln, val = need("mode", "value")
    if val not in ("plain", "twisted"):
        _fail(ln, f"mode must be 'plain' or 'twisted', got {val!r}")
    mode = BracketMode(val)

    weights = {}
    for ln, _, val in sections["spectrum"].repeated:
        coords, sep, weight = val.partition(":")
        if not sep:
            _fail(ln, "spectrum entry needs '<coords> : <weight>'")
        charge = _build(ln, lattice.charge, _row(coords.strip(), ln, _int))
        if charge in weights:
            _fail(ln, f"duplicate spectrum charge {charge.coords}")
        weights[charge] = _fraction(weight.strip(), ln)
    spectrum = Spectrum(weights)

    refinement = None
    if "refinement" in sections:
        ln, val = need("refinement", "signs")
        refinement = _build(ln, QuadraticRefinement, surface, _row(val, ln, _int))

    chains = []
    for ln, _, val in sections.get("chains", _Section(0)).repeated:
        items = []
        for chunk in val.split(","):
            theta, sep, coords = chunk.partition(":")
            if not sep:
                _fail(ln, "chain item needs '<height> : <coords>'")
            items.append(
                (_fraction(theta.strip(), ln),
                 _build(ln, lattice.charge, _row(coords.strip(), ln, _int)))
            )
        chains.append(_build(ln, make_chain, lattice, items))

    # cross-section consistency, reported against the section headers
    if z.rank != rank:
        _fail(sections["central_charge"].lineno, "central charge rank must match the lattice")
    for kf in keyframes:
        if kf.rank != rank:
            _fail(sections["central_charge"].lineno, "keyframe rank must match the lattice")
    if q.rank != rank:
        _fail(sections["quadratic_form"].lineno, "quadratic form rank must match the lattice")
    _build(sections["truncation"].lineno, trunc.validate_for, sector)
    _build(sections["quadratic_form"].lineno, check_kernel_definiteness, z, q)

    return Scenario(
        lattice=lattice, z=z, keyframes=keyframes, q=q, sector=sector,
        trunc=trunc, mode=mode, spectrum=spectrum,
        refinement=refinement, chains=tuple(chains),
    )


def _fmt_row(row) -> str:
    return " ".join(str(x) for x in row)


def _fmt_matrix(rows) -> str:
    return " ; ".join(_fmt_row(r) for r in rows)


def format_scenario(sc: Scenario) -> str:
    """Canonical text for a scenario; parsing it back gives an equal value."""
    _checker({"sc": Scenario})(sc=sc)
    genus = sc.lattice.surface.dim // 2
    out = [
        "[lattice]",
        f"rank = {sc.lattice.rank}",
        f"boundary = {_fmt_matrix(sc.lattice.boundary)}",
        "",
        "[surface]",
        f"genus = {genus}",
    ]
    if sc.lattice.surface != SurfaceModel.standard(genus):
        out.append(f"intersection = {_fmt_matrix(sc.lattice.surface.intersection)}")
    out += [
        "",
        "[central_charge]",
        f"matrix = {_fmt_matrix(sc.z.matrix)}",
    ]
    out += [f"keyframe = {_fmt_matrix(kf.matrix)}" for kf in sc.keyframes]
    out += [
        "",
        "[quadratic_form]",
        f"matrix = {_fmt_matrix(sc.q.matrix)}",
        "",
        "[sector]",
        f"start = {_fmt_row(sc.sector.start)}",
        f"end = {_fmt_row(sc.sector.end)}",
        "",
        "[truncation]",
        f"covector = {_fmt_row(sc.trunc.covector)}",
        f"cutoff = {sc.trunc.cutoff}",
        f"scan_box = {sc.trunc.scan_box}",
        "",
        "[mode]",
        f"value = {sc.mode.value}",
        "",
        "[spectrum]",
    ]
    out += [
        f"entry = {_fmt_row(ch.coords)} : {c}" for ch, c in sc.spectrum.items()
    ]
    if sc.refinement is not None:
        out += ["", "[refinement]", f"signs = {_fmt_row(sc.refinement.basis_signs)}"]
    if sc.chains:
        out += ["", "[chains]"]
        for chain in sc.chains:
            items = ", ".join(
                f"{v.theta} : {_fmt_row(v.charge.coords)}" for v in chain.vertices
            )
            out.append(f"chain = {items}")
    return "\n".join(out) + "\n"
