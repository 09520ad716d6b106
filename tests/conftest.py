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
