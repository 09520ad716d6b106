from __future__ import annotations

import itertools
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import build_setup
from wallcross.algebra import PbwAlgebra, Spectrum
from wallcross.engine import (
    StabilityStructure,
    VariationPath,
    check_variation,
    detect_walls,
    transport_spectrum,
)
from wallcross.errors import ValidationError
from wallcross.lattice import (
    CentralCharge,
    Charge,
    ChargeLattice,
    QuadraticForm,
    Sector,
    SurfaceModel,
    TruncationSet,
    _Cone,
    _dot,
    charges_parallel,
    check_kernel_definiteness,
    cone_enumerate,
    cross,
    phase_precedes,
    wall_first_type,
    wall_second_type,
)
from wallcross.multidisk import ChainCombination, ChainVertex, make_chain
from wallcross.refinement import CohomologyAction, QuadraticRefinement


def _ch(*coords: int) -> Charge:
    return Charge(coords)


def test_central_charge_evaluation(setup):
    assert setup.z.evaluate(setup.g1) == (1, 1)
    assert setup.z.evaluate(setup.g2) == (-1, 1)
    assert setup.z.evaluate(setup.g1 + setup.g2) == (0, 2)


def test_central_charge_additive(setup):
    rng = random.Random(7)
    for _ in range(200):
        a = _ch(rng.randint(-9, 9), rng.randint(-9, 9))
        b = _ch(rng.randint(-9, 9), rng.randint(-9, 9))
        za, zb = setup.z.evaluate(a), setup.z.evaluate(b)
        zab = setup.z.evaluate(a + b)
        assert zab == (za[0] + zb[0], za[1] + zb[1])


def test_pairing_values(setup):
    lat = setup.lattice
    assert lat.pairing(setup.g1, setup.g2) == 1
    assert lat.pairing(setup.g2, setup.g1) == -1
    assert lat.pairing(setup.g1, setup.g1) == 0
    assert lat.pairing(setup.g1 + setup.g2, setup.g2) == 1


def test_pairing_bilinear_skew(setup):
    lat = setup.lattice
    rng = random.Random(11)
    for _ in range(300):
        a = _ch(rng.randint(-5, 5), rng.randint(-5, 5))
        b = _ch(rng.randint(-5, 5), rng.randint(-5, 5))
        c = _ch(rng.randint(-5, 5), rng.randint(-5, 5))
        assert lat.pairing(a, b) == -lat.pairing(b, a)
        assert lat.pairing(a + c, b) == lat.pairing(a, b) + lat.pairing(c, b)


def test_boundary_map_applied():
    # non-trivial boundary map: both generators hit the same homology class
    surface = SurfaceModel.standard(1)
    from wallcross.lattice import ChargeLattice

    lat = ChargeLattice(rank=2, boundary=((1, 1), (0, 0)), surface=surface)
    assert lat.boundary_of(_ch(2, 3)) == (5, 0)
    assert lat.pairing(_ch(1, 0), _ch(0, 1)) == 0


def test_sector_contains(setup):
    s = setup.sector
    one = Fraction(1)
    assert s.contains((Fraction(0), one)) is True
    assert s.contains((Fraction(0), -one)) is False
    assert s.contains((one, one)) is True  # closed boundary
    assert s.contains((-one, one)) is True
    with pytest.raises(ValidationError):
        s.contains((Fraction(0), Fraction(0)))


def test_sector_strict_convexity():
    with pytest.raises(ValidationError, match="strictly convex"):
        Sector((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1)))  # wrong sweep
    with pytest.raises(ValidationError, match="strictly convex"):
        Sector((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)))  # opening = pi
    with pytest.raises(ValidationError):
        Sector((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))


def test_phase_precedes(setup):
    zg1 = setup.z.evaluate(setup.g1)
    zg2 = setup.z.evaluate(setup.g2)
    assert phase_precedes(zg2, zg1) is True
    assert phase_precedes(zg1, zg2) is False
    assert phase_precedes(zg1, (Fraction(2), Fraction(2))) is False  # same ray


@pytest.mark.parametrize("u, v, expected", [
    ((1, 2), (3, 4), -2),
    ((True, 0), (0, 1), 1),
    ((Fraction(1, 2), 1), (1, 2), Fraction(0)),
    ((Fraction(1, 2), 1), (Fraction(1, 3), 2), Fraction(2, 3)),
    ((Decimal("0.5"), "1/3"), (1, 2), Fraction(2, 3)),
    ([1, 2], range(3, 5), -2),
], ids=["ints", "bool", "mixed", "fractions", "other-rationals", "sequences"])
def test_cross_keeps_the_value_and_type_of_int_and_fraction_entries(u, v, expected):
    # ints and Fractions are multiplied as given: int pairs give an int;
    # any other exact rational enters as its Fraction
    got = cross(u, v)
    assert got == expected and type(got) is type(expected)
    assert phase_precedes(u, v) is (expected < 0)


def test_phase_precedes_is_strict_order(setup):
    # vectors in the upper half plane: clockwise precedence is a strict
    # total order on distinct rays
    vecs = [
        (Fraction(x), Fraction(y))
        for x in range(-3, 4)
        for y in range(1, 4)
    ]
    for u in vecs:
        assert not phase_precedes(u, u)
        for v in vecs:
            if phase_precedes(u, v):
                assert not phase_precedes(v, u)
            for w in vecs:
                if phase_precedes(u, v) and phase_precedes(v, w):
                    assert phase_precedes(u, w)


def test_cone_running_example(setup):
    members = cone_enumerate(setup.lattice, setup.z, setup.q, setup.sector, setup.trunc)
    assert set(members) == {_ch(1, 0), _ch(0, 1), _ch(1, 1), _ch(2, 0), _ch(0, 2)}
    # sorted by height then lexicographic coordinates
    assert members == (_ch(0, 1), _ch(1, 0), _ch(0, 2), _ch(1, 1), _ch(2, 0))


def test_cone_smaller_cutoffs():
    s1 = build_setup(cutoff=1)
    members = cone_enumerate(s1.lattice, s1.z, s1.q, s1.sector, s1.trunc)
    assert set(members) == {_ch(1, 0), _ch(0, 1)}
    s0 = build_setup(cutoff=0)
    assert cone_enumerate(s0.lattice, s0.z, s0.q, s0.sector, s0.trunc) == ()


def test_cone_brute_force_oracle(setup):
    # oracle: in this configuration membership reduces to first-quadrant
    # lattice points of height <= cutoff, checked by direct scan
    expected = {
        _ch(a, b)
        for a in range(0, 5)
        for b in range(0, 5)
        if 0 < a + b <= 2
    }
    members = cone_enumerate(setup.lattice, setup.z, setup.q, setup.sector, setup.trunc)
    assert set(members) == expected


def test_cone_scan_box_stability():
    small = build_setup(scan_box=2)
    large = build_setup(scan_box=7)
    assert cone_enumerate(
        small.lattice, small.z, small.q, small.sector, small.trunc
    ) == cone_enumerate(large.lattice, large.z, large.q, large.sector, large.trunc)


def _oracle_scan(lattice, z, q, sector, trunc):
    """(charge, height) of every scan-box point passing the generator
    tests, in Fraction arithmetic, with the height cutoff not applied."""
    out = []
    box = trunc.scan_box
    for point in itertools.product(range(-box, box + 1), repeat=lattice.rank):
        zv = z.evaluate(point)
        if zv != (0, 0) and sector.contains(zv) and q.evaluate(point) >= 0:
            out.append((Charge(point), trunc.height(zv)))
    return out


def _oracle_cone(gens, z, trunc):
    """Additive closure of the generators below the cutoff, every height
    evaluated from Z in Fractions, sorted by (height, coordinates)."""
    gens = [g for g, h in gens if h <= trunc.cutoff]
    members, frontier = set(gens), list(gens)
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                s = m + g
                if s not in members and trunc.height(z.evaluate(s)) <= trunc.cutoff:
                    members.add(s)
                    fresh.append(s)
        frontier = fresh
    return tuple(sorted(members, key=lambda b: (trunc.height(z.evaluate(b)), b.coords)))


@pytest.mark.parametrize("rank, box", [(2, 4), (3, 2), (3, 3)])
def test_cone_enumerate_matches_fraction_oracle(rank, box):
    rng = random.Random(1000 + rank)
    lattice = ChargeLattice(rank, (), SurfaceModel(()))

    def frac():
        return Fraction(rng.randint(-7, 7), rng.randint(1, 6))

    nonempty = 0
    for _ in range(60):
        z_rows = [[frac() for _ in range(rank)] for _ in range(2)]
        q_rows = [[frac() for _ in range(rank)] for _ in range(rank)]
        q_rows = [[q_rows[min(i, j)][max(i, j)] for j in range(rank)] for i in range(rank)]
        if rank == 3:
            # ker Z = span of k; lower Q[2][2] until Q(k) < 0
            k = (rng.randint(-2, 2), rng.randint(-2, 2), 1)
            for row in z_rows:
                row[2] = -(k[0] * row[0] + k[1] * row[1])
            qk = sum(k[i] * q_rows[i][j] * k[j] for i in range(3) for j in range(3))
            q_rows[2][2] -= max(qk, 0) + Fraction(1, rng.randint(1, 6))
        z, q = CentralCharge(z_rows), QuadraticForm(q_rows)
        try:  # a degenerate Z can still have a kernel Q is not negative on
            check_kernel_definiteness(z, q)
        except ValidationError:
            continue
        start, end = (frac(), frac()), (frac(), frac())
        if cross(start, end) == 0:
            continue
        if cross(start, end) > 0:
            start, end = end, start
        sector = Sector(start, end)
        for _ in range(50):
            probe = TruncationSet((frac(), frac()), 0, box)
            if probe.height(start) > 0 and probe.height(end) > 0:
                break
        else:
            continue
        gens = _oracle_scan(lattice, z, q, sector, probe)
        lowest = min((h for _, h in gens), default=Fraction(1))
        trunc = TruncationSet(probe.covector, lowest * Fraction(rng.randint(2, 9), 2), box)
        expected = _oracle_cone(gens, z, trunc)
        assert cone_enumerate(lattice, z, q, sector, trunc) == expected
        nonempty += len(expected) > 1
    assert nonempty >= 20


# Fixed geometries for the scan's interval solve: per half-plane c t <= rest
# in the last coordinate t, with c > 0, c < 0, and c = 0 with rest >= 0
# (the whole box) or rest < 0 (no point).
_HALF_PLANE_CASES = {
    # Z(p) = (p1, p0): the height p0 has last coefficient 0, so heads with
    # p0 above the cutoff are empty; the start form has c < 0, the end c > 0
    "height coefficient 0": (((0, 1), (1, 0)), ((1, 0), (0, 1)), ((-1, 1), (1, 1)), (0, 1)),
    # Z e2 = (-1, 1) lies on the start ray: that form's last coefficient is
    # 0 and it keeps the heads with p0 >= 0 only
    "start-ray coefficient 0": (((1, -1), (1, 1)), ((1, 2), (2, 1)), ((-1, 1), (1, 1)), (0, 1)),
    # Z e2 = (2, 1) lies on the end ray
    "end-ray coefficient 0": (((0, 2), (1, 1)), ((1, 0), (0, 1)), ((-1, 3), (2, 1)), (1, 2)),
    # rational data: floor and ceil of non-integer quotients
    "rational data": (
        ((Fraction(1, 3), Fraction(-2, 5)), (Fraction(3, 4), Fraction(1, 2))),
        ((1, 0), (0, -1)),
        ((Fraction(-1, 2), 1), (Fraction(3, 2), Fraction(2, 3))),
        (Fraction(1, 7), Fraction(3, 2)),
    ),
    # rank 1: no head, one interval
    "rank 1": (((Fraction(1, 2),), (3,)), ((1,),), ((-1, 2), (1, 2)), (0, 1)),
}


@pytest.mark.parametrize("name", sorted(_HALF_PLANE_CASES))
@pytest.mark.parametrize("box", [1, 2, 5])
def test_cone_enumerate_matches_fraction_oracle_on_fixed_half_planes(name, box):
    z_rows, q_rows, (start, end), covector = _HALF_PLANE_CASES[name]
    z, q, sector = CentralCharge(z_rows), QuadraticForm(q_rows), Sector(start, end)
    lattice = ChargeLattice(z.rank, (), SurfaceModel(()))
    sizes = set()
    for cutoff in (0, Fraction(1, 2), 1, Fraction(7, 3), 4, 9):
        trunc = TruncationSet(covector, cutoff, box)
        expected = _oracle_cone(_oracle_scan(lattice, z, q, sector, trunc), z, trunc)
        assert cone_enumerate(lattice, z, q, sector, trunc) == expected
        sizes.add(len(expected))
    assert len(sizes) >= 3  # the cutoffs cut the cone in different places


def _leibniz_det(m) -> Fraction:
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _negative_definite_by_minors(m) -> bool:
    """Sylvester's criterion: the k-th leading minor has the sign (-1)^k."""
    return all(
        (-1) ** k * _leibniz_det([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1)
    )


def test_kernel_definiteness_matches_leading_minors():
    # Z = (e1, e2) kills e3 .. e(k+2), so Q on ker Z is Q's lower right block
    rng = random.Random(47)
    verdicts = []
    for _ in range(300):
        k = rng.randint(1, 3)
        if rng.random() < 0.4:
            upper = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)] for _ in range(k)]
            block = [[upper[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
        else:  # -A^T A plus a shift: semidefinite, singular when A has low rank
            a = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(k)]
                 for _ in range(rng.randint(1, k))]
            shift = rng.choice((0, 0, Fraction(-1, 3), Fraction(1, 5)))
            block = [[-sum(r[i] * r[j] for r in a) + (shift if i == j else 0) for j in range(k)]
                     for i in range(k)]
        n = k + 2
        upper = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        q = [[block[i - 2][j - 2] if min(i, j) >= 2 else upper[min(i, j)][max(i, j)]
              for j in range(n)] for i in range(n)]
        z = CentralCharge(tuple(tuple(int(c == r) for c in range(n)) for r in range(2)))
        expected = _negative_definite_by_minors(block)
        try:
            check_kernel_definiteness(z, QuadraticForm(q))
            got = True
        except ValidationError as exc:
            assert str(exc) == "quadratic form is not negative definite on ker Z"
            got = False
        assert got == expected, block
        verdicts.append(got)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def _fraction_kernel(z_rows) -> list[list[Fraction]]:
    """A basis of ker Z by Gauss-Jordan elimination in Fractions."""
    n = len(z_rows[0])
    rows, pivots = [list(map(Fraction, r)) for r in z_rows], []
    for col in range(n):
        found = next((i for i in range(len(pivots), 2) if rows[i][col] != 0), None)
        if found is None:
            continue
        r = len(pivots)
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(2):
            if i != r:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        if len(pivots) == 2:
            break
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(int(c == free)) for c in range(n)]
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        basis.append(vec)
    return basis


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_kernel_definiteness_matches_leading_minors_on_random_z(rank):
    # random Z, singular at rank 2 (a rank-1 or zero matrix), and random Q
    rng = random.Random(53 + rank)
    verdicts = []
    for _ in range(150):
        if rank == 2:
            u = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
            z_rows = [[x * k for x in u] for k in (rng.randint(-2, 2), rng.randint(-2, 2))]
        else:
            z_rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)]
                      for _ in range(2)]
        if rng.random() < 0.4:
            upper = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)]
                     for _ in range(rank)]
            q_rows = [[upper[min(i, j)][max(i, j)] for j in range(rank)] for i in range(rank)]
        else:  # -A^T A plus a shift: semidefinite, singular when A has low rank
            a = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(rank)]
                 for _ in range(rng.randint(1, rank))]
            shift = rng.choice((0, 0, Fraction(-1, 3), Fraction(1, 5), 2))
            q_rows = [[-sum(r[i] * r[j] for r in a) + (shift if i == j else 0)
                       for j in range(rank)] for i in range(rank)]
        basis = _fraction_kernel(z_rows)
        for v in basis:  # the oracle's basis is a basis of ker Z
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in z_rows)
        block = [[sum(a[i] * q_rows[i][j] * b[j] for i in range(rank) for j in range(rank))
                  for b in basis] for a in basis]
        expected = _negative_definite_by_minors(block)
        try:
            check_kernel_definiteness(CentralCharge(z_rows), QuadraticForm(q_rows))
            got = True
        except ValidationError as exc:
            assert str(exc) == "quadratic form is not negative definite on ker Z"
            got = False
        assert got == expected, (z_rows, q_rows)
        verdicts.append((len(basis), got))
    assert sum(got for _, got in verdicts) >= 30 and sum(not got for _, got in verdicts) >= 30
    if rank == 2:  # both singular kinds: a line and the whole plane
        assert {dim for dim, _ in verdicts} == {1, 2}


def test_cone_closure_under_addition(setup):
    members = cone_enumerate(setup.lattice, setup.z, setup.q, setup.sector, setup.trunc)
    mset = set(members)
    for a in members:
        for b in members:
            s = a + b
            if setup.trunc.height(setup.z.evaluate(s)) <= setup.trunc.cutoff:
                assert s in mset


def test_cone_closure_via_nonconvex_generators():
    # generators need Q >= 0 but sums do not: (1,1) fails Q yet is a member
    s = build_setup(q_rows=((1, -3), (-3, 1)))
    assert s.q.evaluate(_ch(1, 1)) < 0
    members = cone_enumerate(s.lattice, s.z, s.q, s.sector, s.trunc)
    assert _ch(1, 1) in set(members)


def test_parallel_members_pair_to_zero(setup):
    members = cone_enumerate(setup.lattice, setup.z, setup.q, setup.sector, setup.trunc)
    for a in members:
        for b in members:
            if charges_parallel(a, b):
                assert setup.lattice.pairing(a, b) == 0


def test_kernel_definiteness_guard():
    # Z kills (0,1); identity Q is not negative there -> rejected
    bad = build_setup(
        z_rows=((1, 0), (0, 0)),
        sector_dirs=((1, 1), (1, -1)),
        covector=(1, 0),
    )
    with pytest.raises(ValidationError, match="negative definite"):
        cone_enumerate(bad.lattice, bad.z, bad.q, bad.sector, bad.trunc)
    good = build_setup(
        z_rows=((1, 0), (0, 0)),
        sector_dirs=((1, 1), (1, -1)),
        covector=(1, 0),
        q_rows=((1, 0), (0, -1)),
        cutoff=1,
    )
    members = cone_enumerate(good.lattice, good.z, good.q, good.sector, good.trunc)
    assert set(members) == {_ch(1, -1), _ch(1, 0), _ch(1, 1)}


def test_truncation_covector_positivity(setup):
    bad = TruncationSet((Fraction(1), Fraction(0)), Fraction(2), 4)
    with pytest.raises(ValidationError, match="positive on the closed sector"):
        cone_enumerate(setup.lattice, setup.z, setup.q, setup.sector, bad)


def test_wall_first_type(setup):
    members = cone_enumerate(setup.lattice, setup.z, setup.q, setup.sector, setup.trunc)
    assert wall_first_type(setup.z, members) is None
    # proportional charges on one ray are not a wall
    assert wall_first_type(setup.z, [_ch(1, 0), _ch(2, 0)]) is None
    # degenerate Z puts the two generators on one ray
    z_wall = CentralCharge(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    assert wall_first_type(z_wall, [_ch(1, 0), _ch(0, 1)]) == (_ch(0, 1), _ch(1, 0))


def test_wall_second_type(setup):
    # running sector: phase of (1,0) sits on the end boundary ray
    hit = wall_second_type(
        setup.lattice, setup.z, setup.q, setup.sector, _ch(1, 1), setup.trunc
    )
    assert hit is not None
    b1, b2 = hit
    assert b1 + b2 == _ch(1, 1)
    assert setup.sector.boundary_ray(setup.z.evaluate(b1)) is not None

    # widened sector keeps every phase interior: no wall
    wide = build_setup(sector_dirs=((-3, 2), (3, 2)))
    assert (
        wall_second_type(wide.lattice, wide.z, wide.q, wide.sector, _ch(1, 1), wide.trunc)
        is None
    )
    # no split of a generator through nonzero members exists
    assert (
        wall_second_type(
            setup.lattice, setup.z, setup.q, setup.sector, _ch(1, 0), setup.trunc
        )
        is None
    )


def test_charge_arithmetic():
    a, b = _ch(1, 2), _ch(3, -1)
    assert a + b == _ch(4, 1)
    assert a - b == _ch(-2, 3)
    assert 3 * a == a * 3 == _ch(3, 6)
    assert (-a).coords == (-1, -2)
    assert a != (1, 2)
    assert len({a, _ch(1, 2)}) == 1
    with pytest.raises(ValidationError):
        Charge((Fraction(1, 2), 1))


def test_charge_is_immutable_and_iterates_its_coordinates():
    a = _ch(1, 2)
    with pytest.raises(AttributeError, match="Charge is immutable"):
        a.coords = (3, 4)
    x, y = a
    assert (x, y) == (1, 2) and list(a) == [1, 2] and a.coords == (1, 2)


def test_boundary_ray_names_each_ray_and_nothing_off_them(setup):
    # the sector runs clockwise from start (-1, 1) to end (1, 1)
    assert setup.sector.boundary_ray((-2, 2)) == "start"
    assert setup.sector.boundary_ray((3, 3)) == "end"
    assert setup.sector.boundary_ray((0, 1)) is None  # inside, on no ray
    # outside: on the lines of the rays but opposite them, and below
    assert setup.sector.boundary_ray((1, -1)) is None
    assert setup.sector.boundary_ray((-1, -1)) is None
    assert setup.sector.boundary_ray((0, -1)) is None


def _algebra() -> PbwAlgebra:
    s = build_setup()
    return PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc)


def _constant_walk(run):
    s = build_setup(z_rows=((-3, -1), (1, 1)), sector_dirs=((-5, 1), (5, 1)), q_rows=((1, 2), (2, 1)))
    struct = StabilityStructure(s.lattice, s.z, s.q, s.sector, s.trunc, Spectrum({}))
    return run(VariationPath((s.z, s.z)), struct)


def _chain():
    return make_chain(build_setup().lattice, [(Fraction(1, 3), (1, 0))])


# (test id, the float each builder used to reject, builder taking the scalar)
SCALAR_ENTRY_POINTS = [
    ("central_charge", 0.5, lambda x: CentralCharge(((x, 1), (1, 1)))),
    ("quadratic_form", 0.1, lambda x: QuadraticForm(((1, x), (x, 1)))),
    ("sector", 1.0, lambda x: Sector((-1, 1), (x, 1))),
    ("covector", 0.25, lambda x: TruncationSet((x, 1), 2, 4)),
    ("cutoff", 2.5, lambda x: TruncationSet((0, 1), x, 4)),
    ("algebra_scalar", 0.1, lambda x: _algebra().one() * x),
    ("normal_form", 0.5, lambda x: _algebra().normal_form((_ch(1, 0),), x)),
    ("from_terms", 0.5, lambda x: _algebra().from_terms({(_ch(1, 0),): x})),
    ("z_at", 0.5, lambda x: _constant_walk(lambda path, struct: path.z_at(x))),
    (
        "detect_walls_tolerance",
        0.01,
        lambda x: _constant_walk(
            lambda path, struct: detect_walls(path, struct.members, struct.sector, x)
        ),
    ),
    (
        "check_variation_tolerance",
        0.01,
        lambda x: _constant_walk(lambda path, struct: check_variation(path, struct, x)),
    ),
    ("chain_theta", 0.5, lambda x: ChainVertex(x, _ch(1, 0), (1, 0))),
    ("make_chain", 0.5, lambda x: make_chain(build_setup().lattice, [(x, (1, 0))])),
    ("combination", 0.5, lambda x: ChainCombination({_chain(): x})),
    ("from_chain", 0.5, lambda x: ChainCombination.from_chain(_chain(), x)),
    ("combination_scalar", 0.5, lambda x: x * ChainCombination.from_chain(_chain())),
]
_ENTRY_IDS = [name for name, _, _ in SCALAR_ENTRY_POINTS]

_TORUS = SurfaceModel.standard(1)
# (test id, builder taking one entry of an integer coordinate vector that is
# not a Charge): each entry must be an int, and a float is not rounded
COORDINATE_ENTRY_POINTS = [
    ("charge_value", lambda x: build_setup().z.evaluate((x, 1))),
    ("quadratic_value", lambda x: build_setup().q.evaluate((x, 1))),
    ("pairing_h1", lambda x: _TORUS.pairing_h1((x, 0), (0, 1))),
    ("cohomology_action", lambda x: CohomologyAction((1, 0)).evaluate((x, 0))),
    ("refinement", lambda x: QuadraticRefinement(_TORUS, (1, 1)).evaluate((x, 1))),
]
_COORDINATE_IDS = [name for name, _ in COORDINATE_ENTRY_POINTS]


@pytest.mark.parametrize(
    "value, build, match",
    [(value, build, "float") for _, value, build in SCALAR_ENTRY_POINTS]
    + [(0.5, build, "must be integers, got 0.5") for _, build in COORDINATE_ENTRY_POINTS],
    ids=_ENTRY_IDS + _COORDINATE_IDS,
)
def test_floats_rejected(value, build, match):
    with pytest.raises(ValidationError, match=match):
        build(value)


@pytest.mark.parametrize(
    "build, match",
    [(build, "exact rational expected") for _, _, build in SCALAR_ENTRY_POINTS]
    + [(build, "must be integers, got") for _, build in COORDINATE_ENTRY_POINTS],
    ids=_ENTRY_IDS + _COORDINATE_IDS,
)
@pytest.mark.parametrize("value", ["abc", "1/0", None, Decimal("NaN"), Decimal("Infinity")],
                         ids=["text", "zero_denominator", "none", "nan", "infinity"])
def test_non_numeric_scalars_rejected(build, match, value):
    with pytest.raises(ValidationError, match=match):
        build(value)


@pytest.mark.parametrize("build", [build for _, build in COORDINATE_ENTRY_POINTS],
                         ids=_COORDINATE_IDS)
def test_bool_coordinates_rejected(build):
    with pytest.raises(ValidationError, match="must be integers, got True"):
        build(True)


def test_refinement_evaluates_a_vector_not_a_scalar():
    sigma = QuadraticRefinement(_TORUS, (1, 1))
    with pytest.raises(ValidationError, match="must be a sequence of integers, got 5"):
        sigma.evaluate(5)


@pytest.mark.parametrize("build, message", [
    (lambda s: cone_enumerate(s.lattice, ((1, 0), (0, 1)), s.q, s.sector, s.trunc),
     r"z must be a CentralCharge, got \(\(1, 0\), \(0, 1\)\)"),
    (lambda s: StabilityStructure(None, s.z, s.q, s.sector, s.trunc, Spectrum({})),
     "lattice must be a ChargeLattice, got None"),
    (lambda s: PbwAlgebra(s.lattice, s.z, s.q, ((1, 0), (0, 1)), s.trunc),
     "sector must be a Sector"),
    (lambda s: PbwAlgebra(s.lattice, s.z, s.q, s.sector, None, members=(s.g2,)),
     "trunc must be a TruncationSet, got None"),
    (lambda s: transport_spectrum(
        StabilityStructure(s.lattice, s.z, s.q, s.sector, s.trunc, Spectrum({})), ((1, 0), (0, 1))),
     "z must be a CentralCharge"),
], ids=["cone_z", "structure_lattice", "algebra_sector", "members_trunc", "transport_z"])
def test_wrong_type_geometry_rejected_by_name(build, message):
    with pytest.raises(ValidationError, match=message):
        build(build_setup())


@pytest.mark.parametrize("build, message", [
    (lambda s: wall_first_type(s.z, [Charge((1, 0, 7)), Charge((0, 1))]),
     r"expected a charge of rank 2, got Charge\(1, 0, 7\)"),
    (lambda s: detect_walls(VariationPath((s.z, s.z)), [Charge((1, 0, 7)), Charge((0, 1, 2))],
                            s.sector),
     r"expected a charge of rank 2, got Charge\("),
    (lambda s: detect_walls(VariationPath((s.z, s.z)), [(1, 0)], s.sector),
     r"expected a charge of rank 2, got \(1, 0\)"),
    (lambda s: charges_parallel(Charge((1, 0)), Charge((2, 0, 5))), "charges of different rank"),
    (lambda s: charges_parallel(Charge((2, 0, 5)), Charge((1, 0))), "charges of different rank"),
    (lambda s: s.lattice.boundary_of(Charge((1, 0, 3))),
     r"expected a charge of lattice rank 2, got Charge\(1, 0, 3\)"),
    (lambda s: s.lattice.boundary_of(Charge((1,))),
     r"expected a charge of lattice rank 2, got Charge\(1,\)"),
], ids=["first_type", "detect_walls", "detect_walls_tuple", "parallel_longer",
        "parallel_shorter", "boundary_longer", "boundary_shorter"])
def test_wrong_rank_charges_rejected(build, message):
    with pytest.raises(ValidationError, match=message):
        build(build_setup())


def test_bool_charge_coordinate_rejected():
    with pytest.raises(ValidationError, match="integers"):
        Charge((True, 0))


@pytest.mark.parametrize("build", [
    lambda: SurfaceModel(((0, True), (-True, 0))),
    lambda: ChargeLattice(2, ((True, 0), (0, 1)), SurfaceModel.standard(1)),
], ids=["intersection", "boundary"])
def test_bool_matrix_entry_rejected(build):
    with pytest.raises(ValidationError, match="matrix entries must be integers, got True"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Sector((-5, 1, 7), (5, 1)),
    lambda: Sector((-5, 1), (5,)),
    lambda: Sector(None, (5, 1)),
    lambda: Sector((-5, 1), None),
    lambda: TruncationSet((0, 1, 2), 2, 4),
    lambda: TruncationSet((1,), 2, 4),
    lambda: TruncationSet(None, 2, 4),
], ids=["start_3", "end_1", "start_none", "end_none", "covector_3", "covector_1", "covector_none"])
def test_plane_vectors_need_exactly_two_entries(build):
    with pytest.raises(ValidationError, match="must be a pair of rationals"):
        build()


@pytest.mark.parametrize("box", [True, 1.0, None, "4"], ids=["bool", "float", "none", "text"])
def test_scan_box_is_an_int_not_a_bool(box):
    with pytest.raises(ValidationError, match="scan_box must be integers"):
        TruncationSet((0, 1), 2, box)


@pytest.mark.parametrize("build, message", [
    (lambda: ChargeLattice(2.0, ((1, 0), (0, 1)), SurfaceModel.standard(1)),
     "lattice rank must be integers, got 2.0"),
    (lambda: ChargeLattice(True, ((1,), (0,)), SurfaceModel.standard(1)),
     "lattice rank must be integers, got True"),
    (lambda: SurfaceModel.standard(-1), "genus must be non-negative"),
    (lambda: SurfaceModel.standard(1.5), "genus must be integers, got 1.5"),
    (lambda: SurfaceModel.standard(None), "genus must be integers, got None"),
], ids=["rank_float", "rank_bool", "genus_negative", "genus_float", "genus_none"])
def test_rank_and_genus_are_ints_not_bools(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_standard_surface_too_large_to_allocate_is_a_validation_error():
    # under a 2 GiB address-space limit the 2g x 2g form of genus 10**11
    # cannot be allocated; the failure names the genus, not a MemoryError
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "from wallcross.errors import ValidationError\n"
        "from wallcross.lattice import SurfaceModel\n"
        "try:\n"
        "    SurfaceModel.standard(10**11)\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, encoding="utf-8",
        cwd=Path(__file__).resolve().parent.parent / "src", timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("genus 100000000000 is too large: its 200000000000 x 200000000000 "
                           "intersection form does not fit in memory\n")


@pytest.mark.parametrize("build, message", [
    (lambda: CentralCharge(None), "a matrix must be a sequence of rows, got None"),
    (lambda: CentralCharge((1, 2)), "matrix entries must be a sequence of rationals, got 1"),
    (lambda: CentralCharge(((), ())), "central charge rank must be positive"),
    (lambda: QuadraticForm(None), "a matrix must be a sequence of rows, got None"),
    (lambda: SurfaceModel(None), "a matrix must be a sequence of rows, got None"),
    (lambda: ChargeLattice(2, None, SurfaceModel(())),
     "a matrix must be a sequence of rows, got None"),
    (lambda: ChargeLattice(2, ((1, 0), (0, 1)), None),
     "lattice surface must be a SurfaceModel, got None"),
    (lambda: Spectrum(None), "spectrum must be a mapping, got None"),
    (lambda: Spectrum([1, 2]), r"spectrum must be a mapping, got \[1, 2\]"),
    (lambda: ChainCombination(None), "chain combination must be a mapping, got None"),
], ids=["z_none", "z_flat", "z_rank0", "q_none", "surface_none", "boundary_none",
        "lattice_surface_none", "spectrum_none", "spectrum_list", "combination_none"])
def test_whole_matrix_or_mapping_rejected(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_POSITIVE = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)


@settings(max_examples=150)
@given(data=st.data())
def test_chart_is_the_rational_truncated_sector_scaled(data):
    # The oracle is the rational picture: Z.evaluate, Sector.contains and
    # TruncationSet.height against the cutoff.  The sector rays run through
    # the Z values of the first two points and the cutoff is the height of
    # the third, so boundary rays and the cutoff itself are hit exactly;
    # the zero point has height 0 but lies in no sector.  The chart holds
    # an explicit member exactly when the rational picture does.
    rank = data.draw(st.integers(2, 3))
    z = CentralCharge(tuple(tuple(data.draw(_RATIONALS) for _ in range(rank)) for _ in range(2)))
    points = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * rank), min_size=3, max_size=20))
    start, end = (tuple(data.draw(_POSITIVE) * x for x in z.evaluate(p)) for p in points[:2])
    assume(cross(start, end) != 0)
    if cross(start, end) > 0:
        start, end = end, start
    # (sy - ey, ex - sx) is -cross(start, end) > 0 on both rays; the
    # drawn vector tilts it
    tilt = tuple(data.draw(_RATIONALS) / 4 for _ in range(2))
    cov = (start[1] - end[1] + tilt[0], end[0] - start[0] + tilt[1])
    third = z.evaluate(points[2])
    cutoff = max(Fraction(0), cov[0] * third[0] + cov[1] * third[1])
    trunc = TruncationSet(cov, cutoff, 1)
    assume(trunc.height(start) > 0 and trunc.height(end) > 0)
    sector, heights, values = Sector(start, end), set(), set()
    lattice, q = ChargeLattice(rank, (), SurfaceModel(())), QuadraticForm(((0,) * rank,) * rank)
    chart = _Cone(lattice, z, q, sector, trunc, ())  # explicit and empty: no enumeration
    for point in points + [tuple(2 * x for x in p) for p in points[:2]] + [(0,) * rank]:
        v = z.evaluate(point)
        outside = v == (0, 0) or not sector.contains(v) or trunc.height(v) > cutoff
        try:
            _Cone(lattice, z, q, sector, trunc, (Charge(point),))
        except ValidationError as err:
            assert outside and "is not a charge in the truncated sector" in str(err)
        else:
            assert not outside
            heights.add(Fraction(_dot(chart.hrow, point)) / trunc.height(v))
        x, y = _dot(chart.zx, point), _dot(chart.zy, point)
        if v == (0, 0):
            assert (x, y) == (0, 0)
        else:
            k = x / v[0] if v[0] else y / v[1]
            assert (x, y) == (k * v[0], k * v[1])
            values.add(k)
    assert len(heights) <= 1 and all(r > 0 for r in heights)
    assert len(values) <= 1 and all(k > 0 for k in values)


# The index loops that the four value-type products used before they went
# through lattice._dot: the oracle for values and for int versus Fraction.
def _loop_z(z, coords):
    return (
        sum((z.matrix[0][j] * coords[j] for j in range(z.rank)), Fraction(0)),
        sum((z.matrix[1][j] * coords[j] for j in range(z.rank)), Fraction(0)),
    )


def _loop_q(q, coords):
    total = Fraction(0)
    for i, ci in enumerate(coords):
        if ci == 0:
            continue
        row = q.matrix[i]
        total += ci * sum((row[j] * coords[j] for j in range(q.rank)), Fraction(0))
    return total


def _loop_pairing(surface, xs, ys):
    total = 0
    for i, xi in enumerate(xs):
        if xi == 0:
            continue
        row = surface.intersection[i]
        total += xi * sum(row[j] * ys[j] for j in range(surface.dim))
    return total


def _loop_boundary(lattice, coords):
    return tuple(sum(row[j] * coords[j] for j in range(lattice.rank)) for row in lattice.boundary)


def _same(got, want):
    """Equal, with the same type, entry by entry for a tuple."""
    pairs = zip(got, want, strict=True) if isinstance(want, tuple) else [(got, want)]
    return type(got) is type(want) and all(a == b and type(a) is type(b) for a, b in pairs)


_ENTRIES = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6))


@settings(max_examples=200)
@given(data=st.data())
def test_value_type_products_match_the_index_loops(data):
    rank, genus = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    dim = 2 * genus

    def vectors(n):  # the zero vector always among them
        return [(0,) * n] + data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=4))

    upper = {(i, j): data.draw(_ENTRIES) for i in range(rank) for j in range(i, rank)}
    q = QuadraticForm(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(rank))
                            for i in range(rank)))
    for coords in vectors(rank):
        assert _same(q.evaluate(coords), _loop_q(q, coords))
    skew = {(i, j): data.draw(st.integers(-2, 2)) for i in range(dim) for j in range(i + 1, dim)}
    surface = SurfaceModel(tuple(tuple(skew.get((i, j), -skew.get((j, i), 0)) for j in range(dim))
                                 for i in range(dim)))
    homology = vectors(dim)
    for xs, ys in itertools.product(homology, repeat=2):
        assert _same(surface.pairing_h1(xs, ys), _loop_pairing(surface, xs, ys))
    if rank == 0:  # a central charge and a lattice have rank >= 1
        return
    z = CentralCharge(tuple(tuple(data.draw(_ENTRIES) for _ in range(rank)) for _ in range(2)))
    boundary = tuple(tuple(data.draw(st.integers(-3, 3)) for _ in range(rank)) for _ in range(dim))
    lattice = ChargeLattice(rank, boundary, surface)
    for coords in vectors(rank):
        assert _same(z.evaluate(coords), _loop_z(z, coords))
        assert _same(z.evaluate(Charge(coords)), _loop_z(z, coords))
        assert _same(lattice.boundary_of(Charge(coords)), _loop_boundary(lattice, coords))


def test_cross_sign_convention():
    assert cross((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1))) == -2
    assert cross((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))) == 0
