"""Stability data, exact wall detection along paths, spectrum transport.

A variation path moves the central charge matrix linearly between
keyframes.  Along each segment the cross product of two charge values is
a polynomial of degree at most two in the segment parameter, so every
phase alignment is found by exact root isolation: rational roots are
reported as degenerate intervals, irrational ones as rational brackets.
No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import AlgebraElement, BracketMode, PbwAlgebra, Spectrum
from .errors import FirstTypeWallError, SecondTypeWallError, ValidationError
from .lattice import (
    CentralCharge,
    Charge,
    ChargeLattice,
    QuadraticForm,
    Sector,
    TruncationSet,
    _GEOMETRY,
    _Cone,
    _charge_set,
    _checker,
    _cross,
    _dot,
    _exact,
    _scaled,
    _sequence,
    charges_parallel,
)
from .refinement import QuadraticRefinement, _check_surface


@dataclass(frozen=True, eq=False)
class StabilityStructure:
    """A central charge with a spectrum supported on its truncated cone.

    _transports maps each target generator order to the spectrum under it,
    seeded with this spectrum under its own, whose ray product is already
    normal.  The members are closed under sums within the cutoff and every
    target has them, so a word fits under any target's heights exactly when
    its charge is a member: the order alone keys the memo."""

    lattice: ChargeLattice
    z: CentralCharge
    q: QuadraticForm
    sector: Sector
    trunc: TruncationSet
    spectrum: Spectrum
    mode: BracketMode = BracketMode.PLAIN
    refinement: Optional[QuadraticRefinement] = None
    members: tuple[Charge, ...] = field(init=False, repr=False)
    _cone: _Cone = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mode", BracketMode.coerce(self.mode))
        if not isinstance(self.spectrum, Spectrum):
            object.__setattr__(self, "spectrum", Spectrum(self.spectrum))
        object.__setattr__(self, "_cone", _Cone(self.lattice, self.z, self.q, self.sector, self.trunc))
        object.__setattr__(self, "members", self._cone.members)
        support = self.spectrum.support()
        for ch in support:
            if ch not in self._cone.order.index:
                raise ValidationError(f"spectrum weight outside the truncated cone: {ch.coords}")
        if witness := self._cone.first_type(support):
            raise FirstTypeWallError("central charge lies on a first-type wall for the spectrum "
                                     f"support: {witness[0].coords} ~ {witness[1].coords}")
        if self.refinement is not None:
            _check_args(refinement=self.refinement)
            _check_surface(self.refinement, self.lattice)

    def algebra(self) -> PbwAlgebra:
        """The algebra over this structure's cone, built on first use."""
        return self._algebra

    @functools.cached_property
    def _algebra(self) -> PbwAlgebra:
        return PbwAlgebra._over(self._cone, self.mode)

    @functools.cached_property
    def _transports(self) -> dict:
        return {self._cone.order.charges: self.spectrum}

    @functools.cached_property
    def _product(self) -> AlgebraElement:
        """The spectrum's ray product, which every transport refactorizes."""
        return self._algebra.ray_product(self.spectrum)


@dataclass(frozen=True)
class VariationPath:
    """Piecewise-linear interpolation between central charge keyframes."""

    keyframes: tuple[CentralCharge, ...]

    def __post_init__(self):
        frames = _sequence(self.keyframes, "keyframes must be a sequence of central charges")
        object.__setattr__(self, "keyframes", frames)
        if len(frames) < 2:
            raise ValidationError("a variation path needs at least two keyframes")
        if not all(isinstance(f, CentralCharge) and f.rank == frames[0].rank for f in frames):
            raise ValidationError("keyframes must be central charges of equal rank")

    @property
    def segment_count(self) -> int:
        return len(self.keyframes) - 1

    def z_at(self, t) -> CentralCharge:
        t = _exact(t)
        if not 0 <= t <= 1:
            raise ValidationError("path parameter outside [0, 1]")
        m = self.segment_count
        scaled = t * m
        i = min(int(scaled), m - 1)
        s = scaled - i
        a, b = self.keyframes[i].matrix, self.keyframes[i + 1].matrix
        return CentralCharge(tuple(
            tuple(x + s * (y - x) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)))


_check_args = _checker({**_GEOMETRY, "path": VariationPath, "struct": StabilityStructure,
                        "refinement": QuadraticRefinement})


@dataclass(frozen=True)
class WallEvent:
    t_lo: Fraction
    t_hi: Fraction
    kind: str  # "first_type" or "second_type"
    beta1: Charge
    beta2: Charge

    def sort_key(self):
        return (self.t_lo, self.t_hi, self.kind, self.beta1.coords, self.beta2.coords)


def _quadratic_events(a: int, b: int, c: int, tol: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Sign-changing roots of a + b s + c s^2, a, b, c ints, on [0, 1] as rational intervals.

    A double root grazes zero without changing sign, so inside a segment it
    is not an event.  Two irrational roots lie one on each side of the
    vertex, where the value is not 0, and strictly within the Cauchy bound,
    so each half changes sign.  Each is bisected to width <= tol and on
    until clear of 0 and 1: a bracket that meets [0, 1] lies inside it."""
    if c == 0:
        if b == 0:
            return []
        s = Fraction(-a, b)
        return [(s, s)] if 0 <= s <= 1 else []
    disc = b * b - 4 * a * c
    if disc <= 0:
        return []
    root = math.isqrt(disc)
    if root * root == disc:
        pair = sorted((Fraction(-b - root, 2 * c), Fraction(-b + root, 2 * c)))
        return [(r, r) for r in pair if 0 <= r <= 1]

    def value(s: Fraction) -> Fraction:
        return a + s * (b + s * c)

    vertex = Fraction(-b, 2 * c)
    bound = 1 + Fraction(max(abs(a), abs(b)), abs(c))  # Cauchy bound on root size
    out = []
    for lo, hi in ((min(-bound, vertex - 1), vertex), (vertex, max(bound, vertex + 1))):
        flo = value(lo)
        while hi - lo > tol or lo < 0 < hi or lo < 1 < hi:
            mid = (lo + hi) / 2
            # mid is rational and the roots are not, so value(mid) != 0
            if value(mid) * flo < 0:
                hi = mid
            else:
                lo, flo = mid, value(mid)
        if 0 < hi and lo < 1:
            out.append((lo, hi))
    return out


def _crossing(u0, du, v0, dv) -> tuple[int, int, int]:
    """(a, b, c) with cross(u0 + s du, v0 + s dv) = a + b s + c s^2."""
    return _cross(u0, v0), _cross(u0, dv) + _cross(du, v0), _cross(du, dv)


def _segment_events(
    i: int, m: int, poly: tuple[int, int, int], before, tol: Fraction,
    memo: dict, events: dict,
) -> list[set]:
    """The sets in events of the intervals in t where one crossing
    polynomial changes sign on segment i of m.

    A root on an interior keyframe is decided once, on the segment that
    starts there; before is the previous segment's polynomial.  Next to a
    root s0 the sign is that of b + 2 c s0 just above and the opposite just
    below, or sign(c) on both sides at a double root.  Neither sign is 0:
    they vanish only for a zero poly or before (whose value at 1 is a = 0),
    and the caller rejects those, or skips them as u0 is off the open ray.

    The other roots are those of every nonzero multiple of poly, so memo,
    one per segment, keeps their sets under poly over its gcd, signed to
    make the first nonzero coefficient positive: each distinct polynomial
    is root-isolated, and each of its intervals hashed, once."""
    a, b, c = poly
    g = math.gcd(a, b, c)
    if (a or b or c) < 0:
        g = -g
    key = (a // g, b // g, c // g)
    sets = memo.get(key)
    if sets is None:
        sets = memo[key] = [
            events.setdefault((Fraction(i + lo, m), Fraction(i + hi, m)), set())
            for lo, hi in _quadratic_events(*key, tol)
            # an interior keyframe root is decided from before, below
            if not ((i and lo == 0 or i < m - 1 and lo == 1) and lo == hi)
        ]
    if i and a == 0:
        _, pb, pc = before
        if (-(pb + 2 * pc) or pc) * (b or c) < 0:
            t = Fraction(i, m)
            return [events.setdefault((t, t), set()), *sets]
    return sets


def detect_walls(
    path: VariationPath,
    charges: Iterable[Charge],
    sector: Sector,
    tolerance: Fraction = Fraction(1, 1024),
) -> tuple[WallEvent, ...]:
    """Every phase alignment along the path, sorted by interval.

    First-type events pair two non-parallel tracked charges; second-type
    events pair a charge whose phase meets a sector boundary ray with each
    partner completing a tracked total.  A pair whose phases agree along a
    whole segment, or a charge riding a boundary ray, is rejected.

    An event is a sign change of a crossing polynomial: a simple root inside
    a segment, or a root on an interior keyframe where the previous
    segment's polynomial just below it and the next one's just above it
    have opposite signs.  A path that touches a wall on a keyframe and
    bounces back has no event there; one whose phases meet tangentially
    there and swap has one.

    Both keyframes of a segment and the sector rays are scaled by one
    positive integer D, so each crossing polynomial has int coefficients
    and is D^2 times the rational one, with the same roots and signs.

    Roots are isolated once per distinct polynomial on a segment, up to a
    nonzero integer factor: at rank 2, cross(Z b1, Z b2) is det Z times
    det[b1 b2], so every pair shares one.  Each pair still makes its own
    keyframe sign test and its own checks."""
    _check_args(path=path, sector=sector)
    mset = _charge_set(charges, path.keyframes[0].rank)
    charge_list = sorted(mset, key=lambda ch: ch.coords)
    m = path.segment_count
    tol = _exact(tolerance)
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    still = (0, 0)
    # interval -> its (kind, beta1, beta2) set, so that Fractions are hashed
    # per distinct interval and compared only between distinct intervals
    events: dict[tuple[Fraction, Fraction], set] = {}
    last: dict[Charge, tuple] = {}  # the previous segment's (value, step)
    for i, (z0, z1) in enumerate(zip(path.keyframes, path.keyframes[1:])):
        *rows, ray_start, ray_end = _scaled(
            z0.matrix + z1.matrix + (sector.start, sector.end))[1]
        seg, memo = {}, {}
        for ch in charge_list:
            x0, y0, x1, y1 = (_dot(row, ch.coords) for row in rows)
            seg[ch] = ((x0, y0), (x1 - x0, y1 - y0))
        for ai in range(len(charge_list)):
            b1 = charge_list[ai]
            for b2 in charge_list[ai + 1:]:
                if charges_parallel(b1, b2):
                    continue
                poly = _crossing(*seg[b1], *seg[b2])
                if poly == (0, 0, 0):
                    raise ValidationError(
                        "variation path runs along a first-type wall for "
                        f"{b1.coords} ~ {b2.coords}"
                    )
                before = _crossing(*last[b1], *last[b2]) if i and poly[0] == 0 else None
                for found in _segment_events(i, m, poly, before, tol, memo, events):
                    found.add(("first_type", b1, b2))
        for b1 in charge_list:
            u0, du = seg[b1]
            for ray in (ray_start, ray_end):
                poly = la, lb, _ = _crossing(u0, du, ray, still)
                if la == 0 and lb == 0:
                    end = (u0[0] + du[0], u0[1] + du[1])
                    if _dot(u0, ray) > 0 or _dot(end, ray) > 0:
                        raise ValidationError(
                            f"charge {b1.coords} rides the sector boundary "
                            "along the path"
                        )
                    continue
                # lb^2 times (u0 + s du) . ray at the root s = -la/lb: not
                # positive means no root (lb = 0), or a value that is 0 or on
                # the opposite ray there
                if (lb * _dot(u0, ray) - la * _dot(du, ray)) * lb <= 0:
                    continue
                before = _crossing(*last[b1], ray, still) if i and la == 0 else None
                # a linear polynomial: every interval is a point (t, t)
                for found in _segment_events(i, m, poly, before, tol, memo, events):
                    for b2 in charge_list:
                        if (b1 + b2) in mset:
                            found.add(("second_type", b1, b2))
        last = seg
    # the order of WallEvent.sort_key: interval first, then kind and charges
    return tuple(
        WallEvent(lo, hi, kind, b1, b2)
        for lo, hi in sorted(events)
        for kind, b1, b2 in sorted(
            events[lo, hi], key=lambda e: (e[0], e[1].coords, e[2].coords)
        )
    )


def transport_spectrum(
    struct: StabilityStructure, z_new: CentralCharge
) -> Spectrum:
    """Refactorize the sector product of the spectrum under a new order.

    The product is formed in the source algebra, re-expressed in an algebra
    on the same cone sorted by the new central charge, and read back off.
    The element itself never changes; only the ordered factorization does.

    Every call checks the membership, the first-type wall, read off the
    target cone's runs of one ray key by `_Cone.first_type`, and the
    second-type rule `_Cone.boundary_split` on both cones.  The target algebra,
    the conversion and the factorization come once per distinct target order."""
    _check_args(struct=struct)
    target = _Cone(struct.lattice, z_new, struct.q, struct.sector, struct.trunc)
    members, mset = target.members, set(target.members)
    if mset != set(struct.members):
        raise ValidationError(
            "transport requires the same truncated cone membership under "
            "both central charges"
        )
    if witness := target.first_type(members):
        b1, b2 = witness
        raise FirstTypeWallError(
            f"target central charge lies on a first-type wall: {b1.coords} ~ {b2.coords}")
    if split := struct._cone.boundary_split(members, mset) or target.boundary_split(members, mset):
        b1, b2 = split
        raise SecondTypeWallError(f"second-type wall: charge {(b1 + b2).coords} splits as {b1.coords} + "
                                  f"{b2.coords} with a constituent on the sector boundary")
    key = target.order.charges
    spectrum = struct._transports.get(key)
    if spectrum is None:
        alg = PbwAlgebra._over(target, struct.mode)
        spectrum = struct._transports[key] = alg.factorize(alg.convert(struct._product))
    return spectrum


@dataclass(frozen=True)
class SpectrumJump:
    t_lo: Fraction
    t_hi: Fraction
    before: Spectrum
    after: Spectrum
    witnesses: tuple[tuple[Charge, Charge], ...]


@dataclass(frozen=True)
class VariationReport:
    initial: Spectrum
    final: Spectrum
    events: tuple[WallEvent, ...]
    jumps: tuple[SpectrumJump, ...]

    def lines(self) -> list[str]:
        out = ["spectrum at t=0:"]
        out.extend("  " + line for line in _spectrum_lines(self.initial))
        if not self.events:
            out.append("no events, spectrum constant")
            return out
        out.extend("event " + line for line in _event_lines(self.events))
        for jump in self.jumps:
            out.append(f"jump on [{jump.t_lo}, {jump.t_hi}]:")
            out.append("  before:")
            out.extend("    " + line for line in _spectrum_lines(jump.before))
            out.append("  after:")
            out.extend("    " + line for line in _spectrum_lines(jump.after))
        out.append("spectrum at t=1:")
        out.extend("  " + line for line in _spectrum_lines(self.final))
        return out


def _spectrum_lines(spectrum: Spectrum) -> list[str]:
    if not len(spectrum):
        return ["(empty)"]
    return [f"{ch.coords} -> {c}" for ch, c in spectrum.items()]


def _event_lines(events) -> list[str]:
    """One line per event.  Events come sorted by interval, and many share
    one, so each distinct interval is formatted once."""
    out = []
    for (lo, hi), group in itertools.groupby(events, lambda ev: (ev.t_lo, ev.t_hi)):
        head = f"t in [{lo}, {hi}] "
        out.extend(f"{head}{ev.kind} {ev.beta1.coords} x {ev.beta2.coords}" for ev in group)
    return out


@dataclass
class _Cluster:
    lo: Fraction
    hi: Fraction
    events: list[WallEvent]


def _cluster_events(events) -> list[_Cluster]:
    """Overlapping intervals of the sorted events, merged, comparing each
    distinct interval once (its events share its two Fractions)."""
    clusters: list[_Cluster] = []
    for (lo, hi), group in itertools.groupby(events, lambda ev: (ev.t_lo, ev.t_hi)):
        if clusters and lo <= clusters[-1].hi:
            clusters[-1].hi = max(clusters[-1].hi, hi)
            clusters[-1].events.extend(group)
        else:
            clusters.append(_Cluster(lo, hi, list(group)))
    return clusters


def check_variation(
    path: VariationPath,
    struct: StabilityStructure,
    tolerance: Fraction = Fraction(1, 1024),
) -> VariationReport:
    """Walk the path, asserting constancy between walls and recording jumps.

    Events are clustered into disjoint intervals, and a cluster containing
    a second-type event aborts the walk.  Every rational sample point
    between clusters, and t = 1, is transported straight from the starting
    structure: the sector product is one element along the whole path and
    only its ordered factorization changes, so no intermediate structure
    is needed, and samples that sort the members alike share one
    factorization."""
    _check_args(path=path, struct=struct)
    if path.keyframes[0] != struct.z:
        raise ValidationError(
            "structure central charge must match the start of the path"
        )
    events = detect_walls(path, struct.members, struct.sector, tolerance)
    clusters = _cluster_events(events)
    for cl in clusters:
        for ev in cl.events:
            if ev.kind == "second_type":
                total = ev.beta1 + ev.beta2
                raise SecondTypeWallError(
                    f"second-type wall on [{cl.lo}, {cl.hi}]: charge "
                    f"{total.coords} splits as {ev.beta1.coords} + "
                    f"{ev.beta2.coords}"
                )
    cuts = [Fraction(0), *(t for cl in clusters for t in (cl.lo, cl.hi)), Fraction(1)]
    spans = list(zip(cuts[::2], cuts[1::2]))  # the wall-free stretches around the clusters
    if any(lo >= hi for lo, hi in spans):
        raise ValidationError(
            "wall events touch an end of the path; cannot sample around them"
        )

    # a third of each wall-free stretch in from either end, then t = 1; the
    # first sample past a cluster carries it
    samples = [(t, c) for cl, (lo, hi) in zip([None, *clusters], spans)
               for t, c in ((lo + (hi - lo) / 3, cl), (hi - (hi - lo) / 3, None))]
    current, jumps = struct.spectrum, []
    for t, cl in [*samples, (Fraction(1), None)]:
        stepped = transport_spectrum(struct, path.z_at(t))
        if cl is not None:
            jumps.append(SpectrumJump(cl.lo, cl.hi, current, stepped, tuple(
                (ev.beta1, ev.beta2) for ev in cl.events if ev.kind == "first_type")))
            current = stepped
        elif stepped != current:
            raise ValidationError("spectrum changed between detected walls")
    return VariationReport(struct.spectrum, current, tuple(events), tuple(jumps))
