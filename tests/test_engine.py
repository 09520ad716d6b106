from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import wallcross.cli as cli
import wallcross.engine as engine
import wallcross.lattice as lattice
from conftest import build_setup, ray_invariants, tied_geometry
from wallcross.algebra import BracketMode, PbwAlgebra, Spectrum
from wallcross.engine import (
    StabilityStructure,
    VariationPath,
    WallEvent,
    _crossing,
    _event_lines,
    _quadratic_events,
    check_variation,
    detect_walls,
    transport_spectrum,
)
from wallcross.errors import (
    FirstTypeWallError,
    SecondTypeWallError,
    ValidationError,
    WallcrossError,
)
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
    _scaled,
    charges_parallel,
    cone_enumerate,
    cross,
    wall_first_type,
    wall_second_type,
)
from wallcross.refinement import all_refinements, twist_spectrum
from wallcross.scenario import parse_scenario

G1 = Charge((1, 0))
G2 = Charge((0, 1))


def zmat(rows):
    return CentralCharge(tuple(tuple(Fraction(x) for x in row) for row in rows))


def crossing_setup(z_rows=((-3, -1), (1, 1))):
    # wide sector so no member phase touches the boundary; the off-diagonal
    # quadratic form keeps mixed-sign charges out of the cone only at the
    # default cutoff 2: cutoff 3 admits (-1, 4) and (4, -1), and cutoff 6
    # holds (-1, n) and (n, -1) for n = 4..7 and (-2, 8) and (8, -2)
    return build_setup(
        z_rows=z_rows,
        sector_dirs=((-5, 1), (5, 1)),
        q_rows=((1, 2), (2, 1)),
    )


def make_structure(s, spectrum, **kw):
    return StabilityStructure(
        s.lattice, s.z, s.q, s.sector, s.trunc, Spectrum(spectrum), **kw
    )


def primitive_spectrum():
    return {G1: Fraction(1), G2: Fraction(1)}


# -- stability structures -----------------------------------------------------


def test_structure_members_and_checks():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    assert set(struct.members) == {
        Charge((0, 1)), Charge((1, 0)), Charge((0, 2)), Charge((1, 1)), Charge((2, 0)),
    }
    with pytest.raises(ValidationError):
        make_structure(s, {Charge((3, 3)): Fraction(1)})
    on_wall = crossing_setup(z_rows=((-1, -1), (1, 1)))
    with pytest.raises(FirstTypeWallError):
        make_structure(on_wall, primitive_spectrum())
    from wallcross.refinement import QuadraticRefinement

    wrong = QuadraticRefinement(SurfaceModel.standard(2), (1, 1, 1, 1))
    with pytest.raises(ValidationError):
        make_structure(s, primitive_spectrum(), refinement=wrong)


def test_structure_takes_a_dict_spectrum():
    s = crossing_setup()
    spectrum = {G1: 1, G2: Fraction(-1, 2), G1 + G2: 0}
    struct = StabilityStructure(s.lattice, s.z, s.q, s.sector, s.trunc, spectrum)
    assert type(struct.spectrum) is Spectrum
    assert struct.spectrum == Spectrum({G1: 1, G2: Fraction(-1, 2)})


def test_variation_path_interpolation():
    path = VariationPath((zmat(((-3, -1), (1, 1))), zmat(((1, -1), (1, 1)))))
    assert path.z_at(0) == path.keyframes[0]
    assert path.z_at(1) == path.keyframes[1]
    mid = path.z_at(Fraction(1, 2))
    assert mid.evaluate(G1) == (Fraction(-1), Fraction(1))
    assert mid.evaluate(G2) == (Fraction(-1), Fraction(1))
    three = VariationPath(
        (zmat(((0, 0), (1, 1))), zmat(((4, 0), (1, 1))), zmat(((4, 8), (1, 1))))
    )
    assert three.z_at(Fraction(1, 2)) == three.keyframes[1]
    assert three.z_at(Fraction(1, 4)).evaluate(G1) == (Fraction(2), Fraction(1))
    assert three.z_at(Fraction(3, 4)).evaluate(G2) == (Fraction(4), Fraction(1))
    with pytest.raises(ValidationError):
        path.z_at(Fraction(3, 2))
    with pytest.raises(ValidationError):
        VariationPath((zmat(((1, 0), (0, 1))),))
    with pytest.raises(ValidationError):
        VariationPath((zmat(((1, 0), (0, 1))), zmat(((1,), (0,)))))


# -- wall detection ------------------------------------------------------------


def wide_sector():
    return Sector((Fraction(-5), Fraction(1)), (Fraction(5), Fraction(1)))


def test_detect_linear_first_type_event():
    # charge values (1-4t, 1) and (-1, 1) align exactly at t = 1/2
    path = VariationPath((zmat(((1, -1), (1, 1))), zmat(((-3, -1), (1, 1)))))
    events = detect_walls(path, (G1, G2), wide_sector())
    assert events == (
        WallEvent(Fraction(1, 2), Fraction(1, 2), "first_type", G2, G1),
    )


def test_detect_walls_full_member_set():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    path = VariationPath((zmat(((-3, -1), (1, 1))), zmat(((1, -1), (1, 1)))))
    events = detect_walls(path, struct.members, s.sector)
    assert len(events) == 8  # ten pairs, two of them parallel
    assert all(ev.t_lo == ev.t_hi == Fraction(1, 2) for ev in events)
    assert all(ev.kind == "first_type" for ev in events)
    assert events == detect_walls(path, struct.members, s.sector)


def test_detect_walls_constant_path():
    z = zmat(((1, -1), (1, 1)))
    path = VariationPath((z, z))
    assert detect_walls(path, (G1, G2), wide_sector()) == ()


def test_detect_walls_along_wall_rejected():
    path = VariationPath((zmat(((1, 1), (1, 1))), zmat(((2, 2), (1, 1)))))
    with pytest.raises(ValidationError, match="runs along a first-type wall"):
        detect_walls(path, (G1, G2), wide_sector())


def test_detect_walls_boundary_riding_rejected():
    z = zmat(((1, -1), (1, 1)))
    sector = Sector((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1)))
    path = VariationPath((z, z))
    with pytest.raises(ValidationError, match="rides the sector boundary"):
        detect_walls(path, (G1, G2), sector)


def test_detect_walls_charge_on_the_opposite_ray_keeps_both_rays():
    # g2 stays on the ray opposite the start ray (-1, 1) for the whole
    # segment, which is no event; g1 then meets the end ray (1, 1) at
    # t = 1/2, with partner g2 as g1 + g2 is tracked
    path = VariationPath((zmat(((2, 1), (1, -1))), zmat(((0, 2), (1, -2)))))
    sector = Sector((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1)))
    events = detect_walls(path, (G1, G2, G1 + G2), sector)
    assert events == (WallEvent(Fraction(1, 2), Fraction(1, 2), "second_type", G1, G2),)


def test_detect_walls_second_type():
    # (1+2t, 1) meets the end ray (2, 1) at t = 1/2
    s = build_setup(
        z_rows=((1, -1), (1, 1)),
        sector_dirs=((-2, 1), (2, 1)),
        q_rows=((1, 2), (2, 1)),
    )
    struct = make_structure(s, primitive_spectrum())
    path = VariationPath((zmat(((1, -1), (1, 1))), zmat(((3, -1), (1, 1)))))
    events = detect_walls(path, struct.members, s.sector)
    second = [ev for ev in events if ev.kind == "second_type"]
    assert len(second) == 2
    assert {(ev.beta1, ev.beta2) for ev in second} == {(G1, G2), (G1, G1)}
    assert all(ev.t_lo == ev.t_hi == Fraction(1, 2) for ev in second)


def test_detect_walls_irrational_roots_bracketed():
    # cross(Z_t(g1), Z_t(g2)) = 2t^2 - 2t + 1/4, roots (2 +- sqrt 2)/4
    k0 = zmat(((-1, Fraction(-5, 4)), (1, 1)))
    k1 = zmat(((1, Fraction(7, 4)), (1, 2)))
    path = VariationPath((k0, k1))
    tol = Fraction(1, 10**6)
    events = detect_walls(path, (G1, G2), wide_sector(), tolerance=tol)
    assert len(events) == 2

    def poly(t):
        zt = path.z_at(t)
        return cross(zt.evaluate(G1), zt.evaluate(G2))

    for ev in events:
        assert ev.t_hi - ev.t_lo <= tol
        assert poly(ev.t_lo) * poly(ev.t_hi) < 0


def test_detect_walls_grazing_is_not_an_event():
    # double root: the phases touch at t = 1/2 without reordering
    k0 = zmat(((-1, -1), (1, 0)))
    k1 = zmat(((1, 1), (1, 2)))
    path = VariationPath((k0, k1))
    zm = path.z_at(Fraction(1, 2))
    assert cross(zm.evaluate(G1), zm.evaluate(G2)) == 0
    assert detect_walls(path, (G1, G2), wide_sector()) == ()


def test_detect_walls_junction_bounce_dropped():
    # piecewise path touches the wall exactly at the middle keyframe
    k0 = zmat(((1, -1), (1, 1)))
    kmid = zmat(((-1, -1), (1, 1)))
    path = VariationPath((k0, kmid, k0))
    assert detect_walls(path, (G1, G2), wide_sector()) == ()
    # and the one-way half does report it
    half = VariationPath((k0, kmid))
    assert len(detect_walls(half, (G1, G2), wide_sector())) == 1


# (1-s)^2 on the first segment and -s^2 on the second: the phases of G1 and
# G2 meet tangentially on the middle keyframe and swap there
TANGENTIAL = (((1, 1), (2, 3)), ((0, 0), (2, 2)), ((1, 1), (3, 2)))


def test_detect_walls_tangential_keyframe_crossing():
    path = VariationPath(tuple(zmat(rows) for rows in TANGENTIAL))
    assert detect_walls(path, (G1, G2), wide_sector()) == (
        WallEvent(Fraction(1, 2), Fraction(1, 2), "first_type", G2, G1),
    )
    # back the way it came: (1-s)^2 then s^2, no swap
    mirrored = VariationPath(tuple(zmat(rows) for rows in TANGENTIAL[:2] + TANGENTIAL[:1]))
    assert detect_walls(mirrored, (G1, G2), wide_sector()) == ()


@pytest.mark.parametrize("x_end, crosses", [(3, True), (1, False)])
def test_detect_walls_second_type_at_keyframe(x_end, crosses):
    # Z(G1) = (x, 1) reaches the end ray (2, 1) exactly on the middle keyframe
    s = build_setup(
        z_rows=((1, -1), (1, 1)),
        sector_dirs=((-2, 1), (2, 1)),
        q_rows=((1, 2), (2, 1)),
    )
    members = make_structure(s, primitive_spectrum()).members
    path = VariationPath(
        (zmat(((1, -1), (1, 1))), zmat(((2, -1), (1, 1))), zmat(((x_end, -1), (1, 1))))
    )
    half = Fraction(1, 2)
    expected = (
        WallEvent(half, half, "second_type", G1, G2),
        WallEvent(half, half, "second_type", G1, G1),
    )
    events = detect_walls(path, members, s.sector)
    assert set(events) == (set(expected) if crosses else set())


def test_detect_walls_zero_value_meets_no_ray():
    # Z(G1) = (1-2t)(1, 1) passes through 0 at t = 1/2, where its cross
    # product with either ray vanishes; a zero value lies on no ray
    g12 = G1 + G2
    sector = Sector((Fraction(-2), Fraction(1)), (Fraction(2), Fraction(1)))
    path = VariationPath((zmat(((1, -1), (1, 1))), zmat(((-1, -1), (-1, 1)))))
    half = Fraction(1, 2)
    assert detect_walls(path, (G1, G2, g12), sector) == (
        WallEvent(half, half, "first_type", G2, G1),
        WallEvent(half, half, "first_type", G2, g12),
        WallEvent(half, half, "first_type", G1, g12),
    )


def test_detect_walls_crossing_then_tangential_bounce():
    # det Z runs s - 1, s, (1-s)^2, s^2, then stays positive: the phases of
    # G1 and G2 swap on keyframe 1 and touch again, tangentially and without
    # swapping back, on keyframe 3, halfway from keyframe 1 to the end
    path = VariationPath(tuple(zmat(rows) for rows in (
        ((1, 1), (1, 0)), ((1, 1), (1, 1)), ((1, 1), (2, 3)),
        ((0, 0), (2, 2)), ((1, 1), (2, 3)), ((1, 0), (0, 1)),
    )))
    fifth = Fraction(1, 5)
    assert detect_walls(path, (G1, G2), wide_sector()) == (
        WallEvent(fifth, fifth, "first_type", G2, G1),
    )


def _sign_changes_at(t, sign_at, events, m):
    """Sampling oracle: the sign of sign_at at the midpoints between t and
    the neighbouring event times (interval ends included) or keyframes.
    With the keyframes among the times no sample lands on a keyframe where
    the function touches 0 without changing sign."""
    times = sorted(
        {ev.t_lo for ev in events} | {ev.t_hi for ev in events}
        | {Fraction(j, m) for j in range(m + 1)}
    )
    k = times.index(t)
    left, right = (times[k - 1] + t) / 2, (t + times[k + 1]) / 2
    return sign_at(left) * sign_at(right) < 0


_half = st.integers(-4, 4).map(lambda n: Fraction(n, 2))
_frame = st.one_of(
    st.tuples(st.tuples(_half, _half), st.tuples(_half, _half)),
    # a singular keyframe puts every tracked pair on a first-type wall at once
    st.tuples(_half, _half, _half).map(lambda v: ((v[0], v[1]), (v[2] * v[0], v[2] * v[1]))),
)


@st.composite
def _keyframe_paths(draw):
    frames = draw(st.lists(_frame, min_size=2, max_size=4))
    if len(frames) > 2 and draw(st.booleans()):
        # Z_j = ((0, 0), (p, q)) with neighbour first rows along (p, q): det Z
        # has a double root on both sides of keyframe j, as in TANGENTIAL
        j = draw(st.integers(1, len(frames) - 2))
        p, q = draw(_half), draw(_half)
        frames[j] = ((0, 0), (p, q))
        for k in (j - 1, j + 1):
            scale = draw(_half)
            frames[k] = ((scale * p, scale * q), frames[k][1])
    return frames


@settings(max_examples=150)
@given(_keyframe_paths())
def test_keyframe_events_match_sampling(frames):
    charges = [Charge((a, b)) for a in range(3) for b in range(3) if a or b]
    mset = set(charges)
    sector = Sector((Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1)))
    path = VariationPath(tuple(zmat(rows) for rows in frames))
    try:
        events = detect_walls(path, charges, sector)
    except ValidationError:
        return  # the path runs along a wall or rides a boundary ray
    reported = set(events)
    m = path.segment_count
    for j in range(1, m):
        t = Fraction(j, m)
        zt = path.z_at(t)
        for b1, b2 in itertools.combinations(charges, 2):
            if cross(b1.coords, b2.coords) == 0 or cross(zt.evaluate(b1), zt.evaluate(b2)) != 0:
                continue

            def first(u, b1=b1, b2=b2):
                zu = path.z_at(u)
                return cross(zu.evaluate(b1), zu.evaluate(b2))

            event = WallEvent(t, t, "first_type", b1, b2)
            assert (event in reported) == _sign_changes_at(t, first, events, m)
        for b1, ray in itertools.product(charges, (sector.start, sector.end)):
            value = zt.evaluate(b1)
            partners = [b2 for b2 in charges if b1 + b2 in mset]
            if not partners or cross(value, ray) != 0 or value[0] * ray[0] + value[1] * ray[1] <= 0:
                continue

            def second(u, b1=b1, ray=ray):
                return cross(path.z_at(u).evaluate(b1), ray)

            hits = {WallEvent(t, t, "second_type", b1, b2) in reported for b2 in partners}
            assert hits == {_sign_changes_at(t, second, events, m)}


def test_detect_walls_invariant_under_positive_scaling():
    # the integer scaling inside detect_walls must not depend on how the
    # keyframes happen to be written
    rng = random.Random(29)
    charges = [Charge((a, b)) for a in range(3) for b in range(3) if a or b]
    sector = Sector((Fraction(-2), Fraction(1)), (Fraction(2), Fraction(1)))

    def frame():
        return zmat([[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2)]
                     for _ in range(2)])

    def outcome(frames):
        try:
            return detect_walls(VariationPath(frames), charges, sector)
        except ValidationError as exc:
            return str(exc)

    kinds = set()
    for _ in range(40):
        frames = [frame() for _ in range(rng.randint(2, 3))]
        scaled = [zmat([[Fraction(3, 7) * x for x in row] for row in f.matrix]) for f in frames]
        events = outcome(frames)
        assert outcome(scaled) == events
        if not isinstance(events, str):
            kinds.update((ev.kind, ev.t_lo == ev.t_hi) for ev in events)
    assert kinds == {("first_type", True), ("first_type", False), ("second_type", True)}


@settings(max_examples=80)
@given(
    st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 9),
)
def test_quadratic_events_give_fractions_same_under_square_scaling(a, b, c, k):
    tol = Fraction(1, 64)
    events = _quadratic_events(a, b, c, tol)
    assert all(type(x) is Fraction for pair in events for x in pair)
    assert _quadratic_events(a * k * k, b * k * k, c * k * k, tol) == events


@settings(max_examples=80)
@given(
    st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
    st.integers(1, 9), st.booleans(),
)
def test_quadratic_events_same_for_every_nonzero_integer_multiple(a, b, c, k, negate):
    # detect_walls keys its per-segment memo on a polynomial over its signed
    # gcd, which relies on this
    k = -k if negate else k
    tol = Fraction(1, 64)
    assert _quadratic_events(a * k, b * k, c * k, tol) == _quadratic_events(a, b, c, tol)


def _monotone_root_count(p, vertex) -> int:
    """Sign changes of p on [0, 1] for a quadratic with irrational roots,
    from the signs at the ends of each monotone half clipped to [0, 1]."""
    halves = ((Fraction(0), min(vertex, Fraction(1))), (max(vertex, Fraction(0)), Fraction(1)))
    return sum(lo < hi and p(lo) * p(hi) < 0 for lo, hi in halves)


@settings(max_examples=100)
@given(
    st.sampled_from((0, 1)), st.integers(-96, 96).filter(bool),
    st.fractions(Fraction(1, 64), 2, max_denominator=64),
    st.sampled_from((Fraction(1, 64), Fraction(1, 1024))),
    st.integers(-5, 5).filter(bool),
)
def test_quadratic_events_bracket_roots_next_to_the_segment_ends(end, step, d, tol, k):
    # p(s) = k ((s - m)^2 - d) with an irrational root m + sqrt(d) within
    # tol of the end 0 or 1, just inside or just outside, by a rational
    # approximation w of sqrt(d) to 1/10^9.  The exact oracle: each
    # bracket changes the sign of p and lies in [0, 1], and there is one
    # bracket per monotone half of p that changes sign on [0, 1].  The
    # coefficients reach _quadratic_events cleared to ints by their lcm
    assume(any(math.isqrt(n) ** 2 != n for n in (d.numerator, d.denominator)))
    w = Fraction(math.isqrt(d.numerator * 10**18 // d.denominator), 10**9)
    m = end + tol * Fraction(step, 97) - w
    a, b, c = k * (m * m - d), -2 * k * m, k

    def p(s):
        return a + s * (b + s * c)

    lcm = math.lcm(a.denominator, b.denominator)
    events = _quadratic_events(int(a * lcm), int(b * lcm), c * lcm, tol)
    assert len(events) == _monotone_root_count(p, m)
    assert events == sorted(events)
    for lo, hi in events:
        assert 0 <= lo < hi <= 1 and hi - lo <= tol
        assert p(lo) * p(hi) < 0


@pytest.mark.parametrize("a, inside", [(51032429, False), (50967571, True)])
def test_detect_walls_root_next_to_the_path_end(a, inside):
    # cross(Z_t(g1), Z_t(g2)) = a - 18000000 t - 33000000 t^2 has an
    # irrational root 3.9e-4 past t = 1 or 3.9e-4 short of it, less than
    # the default tolerance 1/1024 either way: an event only when inside
    b, c = -18000000, -33000000
    assert math.isqrt(b * b - 4 * a * c) ** 2 != b * b - 4 * a * c
    path = VariationPath((zmat(((1, 0), (0, a))), zmat(((1, -c), (1, a + b)))))
    events = detect_walls(path, (G1, G2), wide_sector())
    assert len(events) == inside
    for ev in events:
        assert ev.t_hi <= 1 and ev.t_hi - ev.t_lo <= Fraction(1, 1024)
        values = [a + t * (b + t * c) for t in (ev.t_lo, ev.t_hi)]
        assert values[0] * values[1] < 0


def _per_pair_walls(path, charges, sector, tol=Fraction(1, 1024)):
    """detect_walls with every pair root-isolating its own polynomial, as
    it did before polynomials were shared: the oracle for the memo."""
    charge_list = sorted(set(charges), key=lambda ch: ch.coords)
    mset = set(charge_list)
    m = path.segment_count
    still = (0, 0)
    events, last = set(), {}

    def segment_events(i, poly, before):
        a, b, c = poly
        out = []
        if i and a == 0:
            _, pb, pc = before
            if (-(pb + 2 * pc) or pc) * (b or c) < 0:
                out.append((Fraction(i, m), Fraction(i, m)))
        for lo, hi in _quadratic_events(a, b, c, tol):
            if (i and lo == 0 or i < m - 1 and lo == 1) and lo == hi:
                continue
            out.append((Fraction(i + lo, m), Fraction(i + hi, m)))
        return out

    for i, (z0, z1) in enumerate(zip(path.keyframes, path.keyframes[1:])):
        *rows, ray_start, ray_end = _scaled(
            z0.matrix + z1.matrix + (sector.start, sector.end))[1]
        seg = {}
        for ch in charge_list:
            x0, y0, x1, y1 = (_dot(row, ch.coords) for row in rows)
            seg[ch] = ((x0, y0), (x1 - x0, y1 - y0))
        for b1, b2 in itertools.combinations(charge_list, 2):
            if charges_parallel(b1, b2):
                continue
            poly = _crossing(*seg[b1], *seg[b2])
            if poly == (0, 0, 0):
                raise ValidationError(
                    "variation path runs along a first-type wall for "
                    f"{b1.coords} ~ {b2.coords}"
                )
            before = _crossing(*last[b1], *last[b2]) if i and poly[0] == 0 else None
            for lo, hi in segment_events(i, poly, before):
                events.add(WallEvent(lo, hi, "first_type", b1, b2))
        for b1 in charge_list:
            u0, du = seg[b1]
            for ray in (ray_start, ray_end):
                poly = la, lb, _ = _crossing(u0, du, ray, still)
                if la == 0 and lb == 0:
                    end = (u0[0] + du[0], u0[1] + du[1])
                    if _dot(u0, ray) > 0 or _dot(end, ray) > 0:
                        raise ValidationError(
                            f"charge {b1.coords} rides the sector boundary along the path"
                        )
                    continue
                if (lb * _dot(u0, ray) - la * _dot(du, ray)) * lb <= 0:
                    continue
                before = _crossing(*last[b1], ray, still) if i and la == 0 else None
                for t, _ in segment_events(i, poly, before):
                    events.update(
                        WallEvent(t, t, "second_type", b1, b2)
                        for b2 in charge_list if b1 + b2 in mset
                    )
        last = seg
    return tuple(sorted(events, key=WallEvent.sort_key))


@pytest.mark.parametrize("rank", [2, 3])
def test_detect_walls_matches_per_pair_root_isolation(rank):
    # At rank 2 every pair shares one crossing polynomial up to a signed
    # factor; at rank 3 they differ.  Small integer keyframes make interior
    # keyframe roots (junctions), whose sign test is each pair's own.
    rng = random.Random(43 + rank)
    charges = [Charge(c) for c in itertools.product(range(3), repeat=rank)
               if any(c) and (rank == 2 or sum(c) <= 2)]
    sector = Sector((Fraction(-2), Fraction(1)), (Fraction(2), Fraction(1)))

    def frame():
        return zmat([[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(rank)]
                     for _ in range(2)])

    def outcome(run, frames):
        try:
            return run(VariationPath(frames), charges, sector)
        except ValidationError as exc:
            return str(exc)

    kinds = set()
    for _ in range(40):
        frames = [frame() for _ in range(rng.randint(2, 3))]
        events = outcome(detect_walls, frames)
        assert events == outcome(_per_pair_walls, frames)
        if isinstance(events, str):
            kinds.add("error")
            continue
        m = len(frames) - 1
        for ev in events:
            junction = ev.t_lo == ev.t_hi and 0 < ev.t_lo * m < m and (ev.t_lo * m).denominator == 1
            kinds.add("junction" if junction else (ev.kind, ev.t_lo == ev.t_hi))
    assert kinds >= {"junction", "error", ("first_type", False), ("second_type", True)}


def test_detect_walls_isolates_each_distinct_polynomial_once(monkeypatch):
    # crossing.scn at lambda 8: 62 members, 1,821 events, one segment
    text = (Path(__file__).resolve().parent.parent / "scenarios" / "crossing.scn").read_text(encoding="utf-8")
    sc = parse_scenario(text)
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(8))
    members = StabilityStructure(sc.lattice, sc.z, sc.q, sc.sector, trunc, sc.spectrum).members
    path = VariationPath(sc.path_keyframes())
    assert path.segment_count == 1
    calls = []

    def counted(a, b, c, tol):
        calls.append((a, b, c))
        return _quadratic_events(a, b, c, tol)

    monkeypatch.setattr(engine, "_quadratic_events", counted)
    events = detect_walls(path, members, sc.sector)
    assert len(events) == 1821
    assert len(calls) == len(set(calls))
    # one first-type polynomial, and at most one per member and boundary ray
    assert len(calls) <= 1 + 2 * len(members)
    for a, b, c in calls:
        assert math.gcd(a, b, c) == 1 and (a or b or c) > 0


# -- transport -----------------------------------------------------------------


def test_transport_primitive_crossing():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    moved = transport_spectrum(struct, zmat(((1, -1), (1, 1))))
    assert moved == Spectrum(
        {G1: Fraction(1), G2: Fraction(1), Charge((1, 1)): Fraction(1)}
    )


def test_transport_identity_and_round_trip():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    assert transport_spectrum(struct, s.z) == struct.spectrum
    z_new = zmat(((1, -1), (1, 1)))
    forward = transport_spectrum(struct, z_new)
    back = StabilityStructure(
        s.lattice, z_new, s.q, s.sector, s.trunc, forward
    )
    assert transport_spectrum(back, s.z) == struct.spectrum


def test_transport_commuting_rays():
    # boundary classes agree, so the pairing vanishes and nothing jumps
    surface = SurfaceModel.standard(1)
    lattice = ChargeLattice(rank=2, boundary=((1, 1), (0, 0)), surface=surface)
    s = crossing_setup()
    struct = StabilityStructure(
        lattice, s.z, s.q, s.sector, s.trunc, Spectrum(primitive_spectrum())
    )
    moved = transport_spectrum(struct, zmat(((1, -1), (1, 1))))
    assert moved == Spectrum(primitive_spectrum())


@pytest.mark.parametrize("mode", ["plain", "twisted"])
@pytest.mark.parametrize(
    "b_rows, c_rows",
    [
        (((-2, -1), (1, 1)), ((1, -1), (1, 1))),  # A, B | C
        (((1, -1), (1, 1)), ((-2, -1), (1, 1))),  # A | B, C back on A's side
    ],
)
def test_transport_composes_across_a_wall(mode, b_rows, c_rows):
    # the wall is z_rows ((-1, -1), (1, 1)); B and C sit on opposite sides
    s = crossing_setup()
    rng = random.Random(11)
    probe = make_structure(s, {})
    spectrum = {ch: Fraction(rng.randrange(-2, 3)) for ch in probe.members}
    struct = make_structure(s, spectrum, mode=mode)
    z_b, z_c = zmat(b_rows), zmat(c_rows)
    at_b = transport_spectrum(struct, z_b)
    from_b = StabilityStructure(
        s.lattice, z_b, s.q, s.sector, s.trunc, at_b, mode
    )
    direct = transport_spectrum(struct, z_c)
    assert transport_spectrum(from_b, z_c) == direct
    assert direct != at_b


def test_transport_membership_change_rejected():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    with pytest.raises(ValidationError, match="cone membership"):
        transport_spectrum(struct, zmat(((1, -1), (1, 3))))


def test_transport_target_on_wall_rejected():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    with pytest.raises(FirstTypeWallError):
        transport_spectrum(struct, zmat(((-1, -1), (1, 1))))


def test_transport_second_type_endpoint_rejected():
    s = build_setup(
        z_rows=((1, -1), (1, 1)),
        sector_dirs=((-2, 1), (2, 1)),
        q_rows=((1, 2), (2, 1)),
    )
    struct = make_structure(s, {G1: Fraction(1)})
    with pytest.raises(SecondTypeWallError, match="splits as"):
        transport_spectrum(struct, zmat(((2, -1), (1, 1))))


# -- the wall rules of a transport, against the double loops they replaced ------


def _old_guard_second_type(cone, members):
    """The transport's second-type guard before `_Cone.boundary_split`,
    returning its witness where it raised."""
    rays, mset = cone.forms[1:], set(members)
    for b1 in members:
        if all(_dot(row, b1.coords) for row, _ in rays):  # members lie in the sector
            continue
        for b2 in members:
            if (b1 + b2) in mset:
                return b1, b2
    return None


def _old_wall_second_type(lattice, z, q, sector, beta, trunc):
    """wall_second_type before it read the cone's boundary."""
    members = cone_enumerate(lattice, z, q, sector, trunc)
    mset = set(members)
    for b1 in members:
        b2 = beta - b1
        if b2.is_zero() or b2 not in mset:
            continue
        if sector.boundary_ray(z.evaluate(b1)) is not None:
            return (b1, b2)
    return None


WALL_SECTORS = (((-5, 1), (5, 1)), ((-1, 1), (1, 1)), ((-2, 1), (2, 1)), ((-1, 2), (3, 1)))


def _random_z_rows(rng):
    """Small int rows; three in ten singular, which puts every value on one line."""
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    if rng.random() < 0.3:
        k = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        return (a, b), (k * a, k * b)
    return (a, b), (rng.randint(-3, 3), rng.randint(-3, 3))


def _transport_outcome(struct, z):
    try:
        return transport_spectrum(struct, z)
    except WallcrossError as err:
        return type(err), str(err)


def test_transport_walls_match_the_pair_scan_and_the_old_guard():
    # on random rank-2 geometry, singular Z included, the witness read off
    # the target order is wall_first_type's, and the guard's is the double loop's
    rng = random.Random(7)
    first_type = second_type = clear = 0
    for _ in range(1500):
        try:
            s = build_setup(z_rows=_random_z_rows(rng), sector_dirs=rng.choice(WALL_SECTORS),
                            q_rows=rng.choice((((1, 2), (2, 1)), ((1, 0), (0, 1)))),
                            cutoff=rng.choice((2, Fraction(5, 2), 3, 4)))
            struct = make_structure(s, {})
            z_new = s.z if rng.random() < 0.5 else zmat(_random_z_rows(rng))
            target = _Cone(s.lattice, z_new, s.q, s.sector, s.trunc)
        except WallcrossError:
            continue
        if set(target.members) != set(struct.members):
            continue
        outcome = _transport_outcome(struct, z_new)
        witness = wall_first_type(z_new, target.members)
        split = (_old_guard_second_type(struct._cone, target.members)
                 or _old_guard_second_type(target, target.members))
        if witness is not None:
            first_type += 1
            assert outcome == (FirstTypeWallError, "target central charge lies on a first-type "
                               f"wall: {witness[0].coords} ~ {witness[1].coords}")
        elif split is not None:
            second_type += 1
            b1, b2 = split
            assert outcome == (SecondTypeWallError, f"second-type wall: charge {(b1 + b2).coords} "
                               f"splits as {b1.coords} + {b2.coords} with a constituent on the "
                               "sector boundary")
        else:
            clear += 1
            assert isinstance(outcome, Spectrum)
    assert first_type >= 30 and second_type >= 30 and clear >= 100


def _walled_rays(z, charges) -> int:
    """The number of rays of Z that hold two non-parallel charges."""
    def ray(x, y):
        return ((x > 0) - (x < 0), y / x) if x else (0, (y > 0) - (y < 0))

    rays = {ch: ray(*z.evaluate(ch)) for ch in charges}
    return len({rays[b1] for b1, b2 in itertools.combinations(charges, 2)
                if rays[b1] == rays[b2] and not charges_parallel(b1, b2)})


def test_first_type_on_member_subsets_is_the_pair_scan():
    # the structure's case, a support that is any subset of the members: on
    # the random rank-2 geometry above, singular Z included, and on
    # tied_geometry, whose rank 3 puts walls on several rays at once
    rng = random.Random(8)
    counts = Counter()
    for _ in range(600):
        if rng.random() < 0.5:
            geometry = tied_geometry(rng)
            if geometry is None:
                continue
            cone = _Cone(*geometry)
        else:
            try:
                s = build_setup(z_rows=_random_z_rows(rng), sector_dirs=rng.choice(WALL_SECTORS),
                                q_rows=rng.choice((((1, 2), (2, 1)), ((1, 0), (0, 1)))),
                                cutoff=rng.choice((2, Fraction(5, 2), 3, 4)))
                cone = _Cone(s.lattice, s.z, s.q, s.sector, s.trunc)
            except WallcrossError:
                continue
        for _ in range(4):
            subset = rng.sample(cone.members, rng.randint(0, len(cone.members)))
            assert cone.first_type(subset) == wall_first_type(cone.z, subset)
            counts[min(_walled_rays(cone.z, subset), 2)] += 1
    assert min(counts[0], counts[1], counts[2]) >= 100


def _boundary_geometries(rng, count):
    """Cones whose Z sends each basis charge to a multiple of one sector ray,
    up to a small shift: members on both boundary rays, or on one."""
    while count:
        sector = rng.choice(WALL_SECTORS)
        (sx, sy), (ex, ey) = sector
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        rows = ((sx * a, ex * b + rng.randint(-1, 1)), (sy * a, ey * b))
        try:
            s = build_setup(z_rows=rows, sector_dirs=sector, q_rows=((1, 2), (2, 1)),
                            cutoff=rng.choice((2, 3, 4)))
            cone = _Cone(s.lattice, s.z, s.q, s.sector, s.trunc)
        except WallcrossError:
            continue
        count -= 1
        yield s, cone


def test_boundary_split_matches_the_old_guard_under_shuffled_orders():
    rng = random.Random(5)
    starts = ends = hits = 0
    for _, cone in _boundary_geometries(rng, 250):
        members = list(cone.members)
        for _ in range(5):
            rng.shuffle(members)
            split = cone.boundary_split(members, set(members))
            assert split == _old_guard_second_type(cone, members)
            if split is not None:
                hits += 1
                starts += _dot(cone.forms[1][0], split[0].coords) == 0
                ends += _dot(cone.forms[2][0], split[0].coords) == 0
    assert starts >= 50 and ends >= 50 and hits >= 200


def test_wall_second_type_matches_the_old_scan():
    rng = random.Random(6)
    hits = 0
    for s, cone in _boundary_geometries(rng, 120):
        for beta in (*cone.members, *(2 * ch for ch in cone.members[:3]), Charge((1, -1))):
            witness = wall_second_type(s.lattice, s.z, s.q, s.sector, beta, s.trunc)
            assert witness == _old_wall_second_type(s.lattice, s.z, s.q, s.sector, beta, s.trunc)
            hits += witness is not None
    assert hits >= 100


def test_a_memo_hit_runs_no_pair_scan_and_finds_each_boundary_once(monkeypatch):
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    scans, boundaries = [], []
    for module in (lattice, cli):  # the pair scan's bindings in the library
        scan = module.wall_first_type
        monkeypatch.setattr(module, "wall_first_type",
                            lambda *args, scan=scan: scans.append(args) or scan(*args))
    find = _Cone.boundary.func

    def counted(cone):
        boundaries.append(cone)
        return find(cone)

    prop = functools.cached_property(counted)
    prop.__set_name__(_Cone, "boundary")
    monkeypatch.setattr(_Cone, "boundary", prop)
    after = zmat(((1, -1), (1, 1)))
    for z in (struct.z, struct.z, after, after):
        transport_spectrum(struct, z)
    # four targets and one source: the seeded order hits the memo twice,
    # the order past the wall once, and no transport scans member pairs
    assert scans == []
    assert len(boundaries) == 5 and [c for c in boundaries if c is struct._cone] == [struct._cone]


# -- variation walk --------------------------------------------------------------


def test_check_variation_constant_path():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    path = VariationPath((s.z, s.z))
    report = check_variation(path, struct)
    assert report.events == ()
    assert report.jumps == ()
    assert report.final == struct.spectrum
    assert report.lines() == [
        "spectrum at t=0:",
        "  (0, 1) -> 1",
        "  (1, 0) -> 1",
        "no events, spectrum constant",
    ]


def test_check_variation_crossing_jump():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    path = VariationPath((s.z, zmat(((1, -1), (1, 1)))))
    report = check_variation(path, struct)
    assert len(report.events) == 8
    assert len(report.jumps) == 1
    jump = report.jumps[0]
    assert (jump.t_lo, jump.t_hi) == (Fraction(1, 2), Fraction(1, 2))
    assert jump.before == struct.spectrum
    assert jump.after == Spectrum(
        {G1: Fraction(1), G2: Fraction(1), Charge((1, 1)): Fraction(1)}
    )
    assert report.final == jump.after
    assert len(jump.witnesses) == 8
    lines = report.lines()
    assert lines[0] == "spectrum at t=0:"
    assert "event t in [1/2, 1/2] first_type (0, 1) x (1, 0)" in lines
    assert "jump on [1/2, 1/2]:" in lines
    assert lines[-4:] == [
        "spectrum at t=1:",
        "  (0, 1) -> 1",
        "  (1, 0) -> 1",
        "  (1, 1) -> 1",
    ]


def test_check_variation_crossing_at_junction():
    # the wall root sits exactly on the middle keyframe and the path crosses
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    z_end = zmat(((1, -1), (1, 1)))
    path = VariationPath((s.z, zmat(((-1, -1), (1, 1))), z_end))
    report = check_variation(path, struct)
    assert len(report.events) == 8
    assert all(ev.t_lo == ev.t_hi == Fraction(1, 2) for ev in report.events)
    assert len(report.jumps) == 1
    jump = report.jumps[0]
    assert (jump.t_lo, jump.t_hi) == (Fraction(1, 2), Fraction(1, 2))
    assert jump.before == struct.spectrum
    assert jump.after == transport_spectrum(struct, z_end)
    assert jump.after.coefficient(Charge((1, 1))) == 1


def test_check_variation_builds_the_source_product_once(monkeypatch):
    text = (Path(__file__).resolve().parent.parent / "scenarios" / "crossing.scn").read_text(encoding="utf-8")
    sc = parse_scenario(text)
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(6))
    struct = StabilityStructure(sc.lattice, sc.z, sc.q, sc.sector, trunc, sc.spectrum)
    products, transports, builds = [], [], []
    ray_product, transport = PbwAlgebra.ray_product, engine.transport_spectrum
    adopt = PbwAlgebra._adopt

    def counted_adopt(alg, *args):
        builds.append(alg)
        return adopt(alg, *args)

    def counted_product(alg, spectrum):
        products.append(alg)
        return ray_product(alg, spectrum)

    def counted_transport(*args):
        transports.append(args)
        return transport(*args)

    monkeypatch.setattr(PbwAlgebra, "_adopt", counted_adopt)
    monkeypatch.setattr(PbwAlgebra, "ray_product", counted_product)
    monkeypatch.setattr(engine, "transport_spectrum", counted_transport)
    report = check_variation(VariationPath(sc.path_keyframes()), struct)
    assert len(transports) == 5
    assert sum(alg is struct.algebra() for alg in products) == 1
    # the 2 samples before the wall read the seeded source order and the 3
    # after it share one target order: the first of those builds the target
    # algebra, and the structure's algebra for the product it converts
    assert builds == [builds[0], struct.algebra()] and builds[0].order is not struct.algebra().order
    digest = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()
    assert digest == "fc0e5239340f8b901e31fc1b829e7069820cec6069eef1ec412a6e3a0d0e9f83"


def test_readme_library_example_prints_its_trailing_comment(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    lines = block.splitlines()
    while lines[-1].startswith("#"):
        lines.pop()
    comment = block.splitlines()[len(lines):]
    exec("\n".join(lines), {})
    assert capsys.readouterr().out == " ".join(c.lstrip("# ") for c in comment) + "\n"


class _NoStore(dict):
    """A transport memo that never keeps an entry."""

    def __setitem__(self, key, value):
        pass


def _variation_outcome(path, struct):
    try:
        return check_variation(path, struct).lines()
    except WallcrossError as err:
        return type(err), str(err)


def test_transport_at_the_source_charge_converts_nothing(monkeypatch):
    s = crossing_setup()
    struct = make_structure(s, {G1: Fraction(1), G2: Fraction(-1, 2), Charge((1, 1)): 3})
    calls = []
    convert = PbwAlgebra.convert

    def counted(alg, element):
        calls.append(alg)
        return convert(alg, element)

    monkeypatch.setattr(PbwAlgebra, "convert", counted)
    assert transport_spectrum(struct, struct.z) == struct.spectrum
    # the source order reads the seeded spectrum: no product is built
    assert calls == [] and "_product" not in vars(struct)


def test_transport_memo_keys_on_the_generator_order():
    # cutoff 5/2 keeps the cone of crossing's geometry while the height row
    # moves from (1, 1) to (1, 8/7): no two samples share their heights, yet
    # the 5 samples read 2 entries, the seeded source order and the order
    # after the wall
    s = crossing_setup()
    trunc = dataclasses.replace(s.trunc, cutoff=Fraction(5, 2))
    struct = StabilityStructure(s.lattice, s.z, s.q, s.sector, trunc,
                                Spectrum(primitive_spectrum()))
    path = VariationPath((s.z, zmat(((1, -1), (1, Fraction(8, 7))))))
    report = check_variation(path, struct)
    assert len(struct._transports) == 2
    assert report.final.coefficient(Charge((1, 1))) == 1
    unstored = StabilityStructure(s.lattice, s.z, s.q, s.sector, trunc,
                                  Spectrum(primitive_spectrum()))
    object.__setattr__(unstored, "_transports", _NoStore())
    assert _variation_outcome(path, unstored) == report.lines()


KRONECKER_SCN = parse_scenario(
    (Path(__file__).resolve().parent.parent / "scenarios" / "kronecker.scn").read_text(encoding="utf-8"))

# the second row of a keyframe: the height row under the covector (0, 1).
# At cutoffs 5/2 and 7/2 every row here keeps the cone of (1, 1); at 2 and
# 3 only (13/14, 13/14) does, and under the others the transport's
# rejection is compared too.  A ray key is the top row over the height row,
# so (13/14, 13/14) keeps the generator order of (1, 1) under every top row
HEIGHT_ROWS = ((1, 1), (1, Fraction(8, 7)), (Fraction(8, 7), 1), (Fraction(15, 14), Fraction(8, 7)),
               (Fraction(13, 14), Fraction(13, 14)))


@settings(max_examples=30)
@given(data=st.data())
def test_check_variation_matches_a_run_without_the_memo(data):
    sc = data.draw(st.sampled_from((CROSSING_SCN, KRONECKER_SCN)))
    cutoff = data.draw(st.sampled_from((Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2))))
    trunc = dataclasses.replace(sc.trunc, cutoff=cutoff, scan_box=5)
    members = cone_enumerate(sc.lattice, sc.z, sc.q, sc.sector, trunc)
    weights = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    spectrum = Spectrum({ch: data.draw(weights) for ch in sc.spectrum.support() if ch in members})
    frames = [sc.z]
    for _ in range(data.draw(st.integers(1, 2))):
        top = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        frames.append(zmat((top, data.draw(st.sampled_from(HEIGHT_ROWS)))))
    path = VariationPath(tuple(frames))

    def structure():
        return StabilityStructure(sc.lattice, sc.z, sc.q, sc.sector, trunc, spectrum, sc.mode)

    unstored = structure()
    object.__setattr__(unstored, "_transports", _NoStore())
    expected = _variation_outcome(path, unstored)
    struct = structure()
    # a second walk reads every transport from the memo
    assert _variation_outcome(path, struct) == expected
    assert _variation_outcome(path, struct) == expected


@settings(max_examples=40)
@given(data=st.data())
def test_targets_of_one_generator_order_factorize_alike_whatever_the_heights(data):
    # the members are closed under sums within the cutoff, so every word of
    # a source product has a member as its charge and fits under the heights
    # of any target with those members: convert drops none, and targets that
    # differ only in their height rows read one spectrum
    sc = data.draw(st.sampled_from((CROSSING_SCN, KRONECKER_SCN)))
    cutoff = data.draw(st.sampled_from((Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2))))
    mode = data.draw(st.sampled_from(tuple(BracketMode)))
    trunc = dataclasses.replace(sc.trunc, cutoff=cutoff, scan_box=5)
    source = PbwAlgebra(sc.lattice, sc.z, sc.q, sc.sector, trunc, mode)
    top = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    by_order = {}
    for row in HEIGHT_ROWS:
        z = zmat((top, row))
        try:
            target = PbwAlgebra(sc.lattice, z, sc.q, sc.sector, trunc, mode)
        except WallcrossError:
            continue
        if set(target.members) == set(source.members) and wall_first_type(z, target.members) is None:
            by_order.setdefault(target.order.charges, []).append(target)
    groups = [targets for targets in by_order.values() if len(targets) > 1]
    assume(groups)
    targets = data.draw(st.sampled_from(groups))
    weights = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    product = source.ray_product(Spectrum({ch: data.draw(weights) for ch in source.members}))
    spectra = []
    for target in targets:
        converted = target.convert(product)
        for element in (product, converted):
            for word, _ in element.terms():
                idxs = tuple(target.order.index[ch] for ch in word)
                assert target._word_height(idxs) <= cutoff
        spectra.append(target.factorize(converted))
    assert all(spectrum == spectra[0] for spectrum in spectra)


def test_event_lines_format_each_distinct_interval_once():
    # crossing.scn at lambda 8: 1,821 events on one interval.  The endpoints
    # count their formatting; each interval shares one pair, as detect_walls'
    # events do.
    sc = parse_scenario((Path(__file__).resolve().parent.parent / "scenarios"
                         / "crossing.scn").read_text(encoding="utf-8"))
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(8))
    members = cone_enumerate(sc.lattice, sc.z, sc.q, sc.sector, trunc)
    events = detect_walls(VariationPath(sc.path_keyframes()), members, sc.sector)
    formatted = []

    class Counted(Fraction):
        def __format__(self, spec):
            formatted.append(self)
            return format(Fraction(self), spec)

    shared, counted = {}, []
    for ev in events:
        lo, hi = shared.setdefault((ev.t_lo, ev.t_hi), (Counted(ev.t_lo), Counted(ev.t_hi)))
        counted.append(dataclasses.replace(ev, t_lo=lo, t_hi=hi))
    assert _event_lines(counted) == [
        f"t in [{ev.t_lo}, {ev.t_hi}] {ev.kind} {ev.beta1.coords} x {ev.beta2.coords}"
        for ev in events
    ]
    assert len(events) == 1821 and len(formatted) == 2 * len(shared) == 2


def test_cluster_events_merge_overlapping_nested_and_touching_intervals():
    # sorted events: [1/10, 3/10] overlaps [1/5, 2/5], which [2/5, 2/5]
    # touches; [1/2, 9/10] holds two events and nests [3/5, 7/10]; [19/20, 1]
    # is apart from both clusters
    g3 = Charge((1, 1))
    spans = [(Fraction(1, 10), Fraction(3, 10), G1, G2), (Fraction(1, 5), Fraction(2, 5), G1, g3),
             (Fraction(2, 5), Fraction(2, 5), G2, g3), (Fraction(1, 2), Fraction(9, 10), G1, G2),
             (Fraction(1, 2), Fraction(9, 10), G2, g3), (Fraction(3, 5), Fraction(7, 10), G1, g3),
             (Fraction(19, 20), Fraction(1), G1, G2)]
    events = sorted((WallEvent(lo, hi, "first_type", b1, b2) for lo, hi, b1, b2 in spans),
                    key=WallEvent.sort_key)
    clusters = engine._cluster_events(events)
    assert [(cl.lo, cl.hi) for cl in clusters] == [
        (Fraction(1, 10), Fraction(2, 5)), (Fraction(1, 2), Fraction(9, 10)),
        (Fraction(19, 20), Fraction(1)),
    ]
    assert [cl.events for cl in clusters] == [events[:3], events[3:6], events[6:]]


def test_check_variation_second_type_abort():
    s = build_setup(
        z_rows=((1, -1), (1, 1)),
        sector_dirs=((-2, 1), (2, 1)),
        q_rows=((1, 2), (2, 1)),
    )
    struct = make_structure(s, {G1: Fraction(1)})
    path = VariationPath((s.z, zmat(((3, -1), (1, 1)))))
    with pytest.raises(SecondTypeWallError) as err:
        check_variation(path, struct)
    message = str(err.value)
    assert "[1/2, 1/2]" in message
    assert "charge (1, 1) splits as (1, 0) + (0, 1)" in message


def test_check_variation_path_mismatch():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    path = VariationPath((zmat(((1, -1), (1, 1))), s.z))
    with pytest.raises(ValidationError, match="start of the path"):
        check_variation(path, struct)


def test_path_independence_through_detour():
    s = crossing_setup()
    struct = make_structure(s, primitive_spectrum())
    z_end = zmat(((1, -1), (1, 1)))
    direct = VariationPath((s.z, z_end))
    detour = VariationPath((s.z, zmat(((0, -2), (1, 1))), z_end))
    rep_a = check_variation(direct, struct)
    rep_b = check_variation(detour, struct)
    assert rep_a.final == rep_b.final
    assert rep_b.jumps[0].t_lo == Fraction(1, 4)
    assert rep_a.final == transport_spectrum(struct, z_end)


def test_random_transports_preserve_the_product():
    # the element built from the transported spectrum matches the original
    # once both are written in the same basis
    rng = random.Random(101)
    pairs = [(p, q) for p in range(-4, 5) for q in range(-4, 5) if p != q]
    for _ in range(25):
        p_old, q_old = rng.choice(pairs)
        p_new, q_new = rng.choice(pairs)
        s = build_setup(
            z_rows=((p_old, q_old), (1, 1)),
            sector_dirs=((-9, 1), (9, 1)),
            q_rows=((1, 2), (2, 1)),
        )
        members = None
        spectrum = {}
        struct = None
        alg_old = None
        # random spectrum over the five members
        probe = StabilityStructure(
            s.lattice, s.z, s.q, s.sector, s.trunc, Spectrum({})
        )
        spectrum = {
            ch: Fraction(rng.randrange(-2, 3)) for ch in probe.members
        }
        struct = StabilityStructure(
            s.lattice, s.z, s.q, s.sector, s.trunc, Spectrum(spectrum)
        )
        z_new = zmat(((p_new, q_new), (1, 1)))
        moved = transport_spectrum(struct, z_new)
        alg_old = struct.algebra()
        alg_new = StabilityStructure(
            s.lattice, z_new, s.q, s.sector, s.trunc, moved
        ).algebra()
        lhs = alg_old.ray_product(struct.spectrum)
        rhs = alg_old.convert(alg_new.ray_product(moved))
        assert lhs == rhs


# -- sector splitting at the engine level ------------------------------------------


def rank3_setup(p):
    surface = SurfaceModel.standard(1)
    lattice = ChargeLattice(
        rank=3, boundary=((1, 0, 0), (0, 1, 0)), surface=surface
    )
    z = zmat(((p, 1, -9), (1, 1, 1)))
    # pair form: nonnegative exactly on sums of distinct basis directions,
    # negative on the rest of each height slice and on ker Z
    q = QuadraticForm(
        tuple(tuple(Fraction(x) for x in row)
              for row in ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    )
    sector = Sector((Fraction(-10), Fraction(1)), (Fraction(10), Fraction(1)))
    trunc = TruncationSet((Fraction(0), Fraction(1)), Fraction(2), 2)
    return lattice, z, q, sector, trunc


def test_engine_sector_splitting():
    g3 = Charge((0, 0, 1))
    a1, a2 = Charge((1, 0, 0)), Charge((0, 1, 0))
    lattice, z_old, q, sector, trunc = rank3_setup(Fraction(2))
    spectrum = Spectrum({a1: Fraction(1), a2: Fraction(1), g3: Fraction(1)})
    struct = StabilityStructure(lattice, z_old, q, sector, trunc, spectrum)
    assert len(struct.members) == 9
    _, z_new, *_ = rank3_setup(Fraction(1, 2))
    moved = transport_spectrum(struct, z_new)
    assert moved == Spectrum({
        a1: Fraction(1), a2: Fraction(1), g3: Fraction(1),
        Charge((1, 1, 0)): Fraction(-1),
    })
    # split along an interior ray no tracked phase ever crosses
    split = (Fraction(-1), Fraction(1))
    left = Sector(sector.start, split)
    right = Sector(split, sector.end)
    pieces = {}
    for sub in (left, right):
        keep = lambda ch, sub=sub: sub.contains(z_old.evaluate(ch))
        sub_struct = StabilityStructure(
            lattice, z_old, q, sub, trunc, spectrum.restrict(keep)
        )
        for ch, c in transport_spectrum(sub_struct, z_new).items():
            pieces[ch] = pieces.get(ch, Fraction(0)) + c
    assert Spectrum(pieces) == moved


# -- known answers: pentagon and Kronecker wall crossing -----------------------


CROSSING_SCN = parse_scenario(
    (Path(__file__).resolve().parent.parent / "scenarios" / "crossing.scn").read_text(encoding="utf-8"))


def as_spectrum(weights: dict) -> Spectrum:
    return Spectrum({Charge(c): a for c, a in weights.items()})


def crossing_transport(m: int, cutoff: int, weights: dict, mode: str):
    """Transport weights (coordinates -> a) along crossing.scn's path with
    boundary ((m, 0), (0, 1)), so <g1, g2> = m, at the given cutoff (the
    height of (p, q) is p + q along the whole path); returns the structure
    and the output as a dict."""
    sc = CROSSING_SCN
    lattice = ChargeLattice(2, ((m, 0), (0, 1)), sc.lattice.surface)
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(cutoff), scan_box=cutoff + 1)
    struct = StabilityStructure(lattice, sc.z, sc.q, sc.sector, trunc, as_spectrum(weights), mode)
    after = transport_spectrum(struct, sc.path_keyframes()[-1])
    return struct, {ch.coords: a for ch, a in after.items()}


def kronecker_transport(m: int, mode: str, cutoff: int = 8) -> tuple[dict, dict]:
    """Transport a(n g_i) = -1/n^2 along crossing.scn's path with <g1, g2> = m
    (cutoff 8: 62 members, cutoff 10: 95); returns the input and the output
    as dicts."""
    before = {(n, 0): Fraction(-1, n * n) for n in range(1, cutoff + 1)}
    before.update({(0, n): Fraction(-1, n * n) for n in range(1, cutoff + 1)})
    struct, after = crossing_transport(m, cutoff, before, mode)
    assert len(struct.members) == {8: 62, 10: 95}[cutoff]
    return before, after


@pytest.mark.parametrize("mode", ["twisted", "plain"])
def test_pentagon_transport(mode):
    # m = 1: the only new charges are k(1, 1), with -1/k^2 twisted and
    # (-1)^(k+1)/k^2 plain
    before, after = kronecker_transport(1, mode)
    expected = dict(before)
    for k in range(1, 5):
        expected[k, k] = Fraction(-1 if mode == "twisted" else (-1) ** (k + 1), k * k)
    assert after == expected


def test_ray_invariants_oracle_is_exact_over_every_multiple():
    # a(n g) = -1/n^2 is the ray of Omega(g) = 1 alone; a lone a(g) = -1
    # leaves Omega(2 g) = -1/4 on a charge the spectrum does not hold; and a
    # lone a(2 g) stays a Fraction though a(g) is absent
    assert ray_invariants({(n, 0): Fraction(-1, n * n) for n in range(1, 5)}, 4) == {(1, 0): 1}
    assert ray_invariants({(0, 1): Fraction(-1)}, 2) == {(0, 1): 1, (0, 2): Fraction(-1, 4)}
    got = ray_invariants({(2, 2): Fraction(1)}, 4)
    assert got == {(2, 2): -1} and all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize("mode", ["twisted", "plain"])
def test_kronecker_m2_transport(mode):
    # Omega(1, 1) = -2 and Omega(n, n +- 1) = 1; every other Omega is 0
    before, after = kronecker_transport(2, mode)
    assert {c: after[c] for c in before} == before
    expected = {(p, q): 1 for p in range(9) for q in range(9) if abs(p - q) == 1 and p + q <= 8}
    expected[1, 1] = -2
    assert ray_invariants(after, 8) == expected


def omega_weights(omega: dict, cutoff: int) -> dict:
    """The weights whose ray_invariants are omega: each Omega(c) adds
    -Omega(c)/k^2 to a(k c) for every multiple k c within the cutoff."""
    weights: dict = {}
    for c, v in omega.items():
        for k in range(1, cutoff // sum(c) + 1):
            kc = tuple(k * x for x in c)
            weights[kc] = weights.get(kc, Fraction(0)) - Fraction(v, k * k)
    return {c: a for c, a in weights.items() if a}


def halo_series(m: int, mode: str, omega1: int, omegas: list, n: int) -> list:
    """The semi-primitive series to q^(n-1): Omega(g1) times the product over
    k of (1 - s_k q^k)^(k m Omega(k g2)), s_k = (-1)^(k m) twisted and 1
    plain, with omegas[k - 1] = Omega(k g2); each power by the binomial
    series, which holds for negative exponents too."""
    series = [Fraction(omega1)] + [Fraction(0)] * (n - 1)
    for k, omega in enumerate(omegas, start=1):
        s, e = (-1) ** (k * m) if mode == "twisted" else 1, k * m * omega
        factor, binom = [Fraction(0)] * n, Fraction(1)
        for j in range((n - 1) // k + 1):
            factor[j * k], binom = binom * (-s) ** j, binom * (e - j) / (j + 1)
        series = [sum(series[i] * factor[d - i] for i in range(d + 1)) for d in range(n)]
    return series


@settings(max_examples=100)
@given(m=st.integers(1, 4), cutoff=st.integers(1, 8), mode=st.sampled_from(("plain", "twisted")),
       omega1=st.sampled_from((-1, 1, 2)), omegas=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       mirror=st.booleans())
def test_semi_primitive_wall_crossing(m, cutoff, mode, omega1, omegas, mirror):
    # Denef-Moore (hep-th/0702146): with Omega(g1) and Omega(k g2), k <= 3,
    # on one side of the wall, sum_N Omega(g1 + N g2) q^N on the other is
    # halo_series; the mirror family N g1 + g2 swaps the roles of g1 and g2
    def charge(a, b):
        return (b, a) if mirror else (a, b)

    omega = {charge(1, 0): omega1, **{charge(0, k): v for k, v in enumerate(omegas, start=1)
                                      if v and k <= cutoff}}
    _, after = crossing_transport(m, cutoff, omega_weights(omega, cutoff), mode)
    got = ray_invariants(after, cutoff)
    assert [got.get(charge(1, n), 0) for n in range(cutoff)] == halo_series(
        m, mode, omega1, omegas, cutoff)


@pytest.mark.parametrize("m, mode, series", [
    (3, "twisted", [1, 3, 3, 1, 0, 0]), (2, "twisted", [1, -2, 1, 0, 0, 0]),
    (2, "plain", [1, -2, 1, 0, 0, 0]), (3, "plain", [1, -3, 3, -1, 0, 0]),
])
def test_semi_primitive_pins(m, mode, series):
    # Omega(g1) = Omega(g2) = 1: (1 + q)^3 for m = 3 twisted, (1 - q)^2 for m = 2
    assert halo_series(m, mode, 1, [1, 0, 0], 6) == series
    _, after = crossing_transport(m, 6, omega_weights({(1, 0): 1, (0, 1): 1}, 6), mode)
    assert [ray_invariants(after, 6).get((1, n), 0) for n in range(6)] == series


def _crossing_weights(data, cutoff: int, values) -> dict:
    """Drawn values on g1 and g2 and on up to two more cone members."""
    sc = CROSSING_SCN
    trunc = dataclasses.replace(sc.trunc, cutoff=Fraction(cutoff), scan_box=cutoff + 1)
    members = [ch.coords for ch in cone_enumerate(sc.lattice, sc.z, sc.q, sc.sector, trunc)]
    charges = [(1, 0), (0, 1)] + data.draw(st.lists(st.sampled_from(members), max_size=2))
    return {c: data.draw(values) for c in charges}


@settings(max_examples=60)
@given(data=st.data())
def test_twisted_transport_keeps_omega_integral(data):
    # Kontsevich-Soibelman integrality: integer Omega on one side of the
    # walls gives integer Omega on the other, in the twisted algebra
    m, cutoff = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 7))
    omega = {c: v for c, v in _crossing_weights(data, cutoff, st.integers(-2, 2)).items() if v}
    weights = omega_weights(omega, cutoff)
    assert ray_invariants(weights, cutoff) == omega
    _, after = crossing_transport(m, cutoff, weights, "twisted")
    assert all(v.denominator == 1 for v in ray_invariants(after, cutoff).values())


@settings(max_examples=40)
@given(data=st.data())
def test_transport_commutes_with_the_twist(data):
    # to_twisted is an algebra morphism that keeps the generator order, so
    # twisting the plain transport's output gives the twisted transport of
    # the twisted input, for every refinement
    m, cutoff = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 7))
    values = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    weights = _crossing_weights(data, cutoff, values)
    struct, plain = crossing_transport(m, cutoff, weights, "plain")
    sigma = data.draw(st.sampled_from(list(all_refinements(struct.lattice.surface))))
    twisted_in = twist_spectrum(sigma, struct.lattice, struct.spectrum)
    _, twisted = crossing_transport(
        m, cutoff, {ch.coords: a for ch, a in twisted_in.items()}, "twisted")
    assert twist_spectrum(sigma, struct.lattice, as_spectrum(plain)) == as_spectrum(twisted)


def kronecker_m3_invariants(cutoff: int) -> dict:
    """Omega of the twisted m = 3 transport, checked to keep the input and
    to be integral and symmetric under (p, q) -> (q, p)."""
    before, after = kronecker_transport(3, "twisted", cutoff)
    assert {c: after[c] for c in before} == before
    omega = ray_invariants(after, cutoff)
    assert all(v.denominator == 1 for v in omega.values())
    assert all(omega.get((q, p)) == v for (p, q), v in omega.items())
    return omega


def test_kronecker_m3_transport():
    omega = kronecker_m3_invariants(8)
    assert [omega[k, k] for k in range(1, 5)] == [3, -6, 18, -84]
    assert [omega[k, k + 1] for k in range(1, 4)] == [3, 13, 68]


def test_kronecker_m3_transport_at_cutoff_10():
    # the height of (p, q) is p + q along the whole path
    omega = kronecker_m3_invariants(10)
    assert {c: v for c, v in omega.items() if sum(c) <= 8} == kronecker_m3_invariants(8)
    assert [omega[k, k] for k in range(1, 6)] == [3, -6, 18, -84, 465]
    assert [omega[k, k + 1] for k in range(1, 5)] == [3, 13, 68, 399]
