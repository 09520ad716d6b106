from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import settings

from wallcross.lattice import (
    CentralCharge,
    Charge,
    ChargeLattice,
    QuadraticForm,
    Sector,
    SurfaceModel,
    TruncationSet,
    cross,
)

# Every property test runs the same examples on every run, writes no
# example database and has no per-example deadline; each test still sets
# its own max_examples.
settings.register_profile("wallcross", derandomize=True, database=None, deadline=None)
settings.load_profile("wallcross")


@dataclass
class LatticeSetup:
    lattice: ChargeLattice
    z: CentralCharge
    q: QuadraticForm
    sector: Sector
    trunc: TruncationSet
    g1: Charge
    g2: Charge


def build_setup(
    cutoff=2,
    z_rows=((1, -1), (1, 1)),
    sector_dirs=((-1, 1), (1, 1)),
    q_rows=((1, 0), (0, 1)),
    covector=(0, 1),
    scan_box=4,
) -> LatticeSetup:
    """Rank-2 lattice over a genus-1 surface with identity boundary map."""
    surface = SurfaceModel.standard(1)
    lattice = ChargeLattice(rank=2, boundary=((1, 0), (0, 1)), surface=surface)
    z = CentralCharge(tuple(tuple(Fraction(x) for x in row) for row in z_rows))
    q = QuadraticForm(tuple(tuple(Fraction(x) for x in row) for row in q_rows))
    sector = Sector(
        (Fraction(sector_dirs[0][0]), Fraction(sector_dirs[0][1])),
        (Fraction(sector_dirs[1][0]), Fraction(sector_dirs[1][1])),
    )
    trunc = TruncationSet(
        (Fraction(covector[0]), Fraction(covector[1])), Fraction(cutoff), scan_box
    )
    return LatticeSetup(lattice, z, q, sector, trunc, Charge((1, 0)), Charge((0, 1)))


def ray_invariants(spectrum: dict, cutoff: int) -> dict:
    """Omega by Moebius inversion of a(k g) = sum over d | k of
    Omega(k g / d) * (-1/d^2), g primitive, in Fractions over every multiple
    k g of a support ray with height p + q (the height under every central
    charge used here) within the cutoff; a charge absent from the spectrum
    has a = 0.  Zero values are dropped."""
    omega: dict = {}
    for g in {tuple(x // math.gcd(*c) for x in c) for c in spectrum}:
        for k in range(1, cutoff // sum(g) + 1):
            c = tuple(k * x for x in g)
            below = sum((omega[tuple(k // d * x for x in g)] / (d * d)
                         for d in range(2, k + 1) if k % d == 0), Fraction(0))
            omega[c] = -spectrum.get(c, Fraction(0)) - below
    return {c: v for c, v in omega.items() if v}


@pytest.fixture
def setup() -> LatticeSetup:
    return build_setup()


def tied_geometry(rng):
    """(lattice, Z, Q, sector, truncation, points) of rank 2 or 3, drawn
    from rng, or None when a draw fails.  Rank 3 puts an integer kernel
    vector under Z, so distinct charges share a value and non-parallel
    ones share a ray; the sector runs through two values of the points,
    so points sit on both of its rays.  The points are those of 60 drawn
    from a small box with Z in the truncated sector and not 0, and the
    lattice's pairing is 0."""
    rank = rng.choice((2, 3))

    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    rows = [[frac() for _ in range(rank)] for _ in range(2)]
    if rank == 3:
        k0, k1 = rng.randint(-1, 1), rng.randint(-1, 1)
        for row in rows:
            row[2] = -(k0 * row[0] + k1 * row[1])
    z = CentralCharge(rows)
    points = {Charge(rng.randint(-3, 3) for _ in range(rank)) for _ in range(60)}
    values = [v for v in map(z.evaluate, points) if v != (0, 0)]
    if len(values) < 2:
        return None
    start, end = rng.sample(values, 2)
    if cross(start, end) == 0:
        return None
    if cross(start, end) > 0:
        start, end = end, start
    sector = Sector(start, end)
    for _ in range(100):
        trunc = TruncationSet((frac(), frac()), Fraction(20), 1)
        if trunc.height(sector.start) > 0 and trunc.height(sector.end) > 0:
            break
    else:
        return None
    inside = tuple(
        p for p in points
        if z.evaluate(p) != (0, 0) and sector.contains(z.evaluate(p))
        and trunc.height(z.evaluate(p)) <= trunc.cutoff
    )
    identity = QuadraticForm(tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank)))
    return ChargeLattice(rank, (), SurfaceModel(())), z, identity, sector, trunc, inside
