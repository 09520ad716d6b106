"""Charge lattice, exact phase geometry and truncated cone enumeration.

Everything here is exact rational arithmetic.  Central charge values are
pairs of Fractions and every phase comparison goes through the 2x2 cross
determinant; no angles, no floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ValidationError

Vec2 = tuple[Fraction, Fraction]


def _cross(u, v):
    """cross on entries already checked."""
    return u[0] * v[1] - u[1] * v[0]


def cross(u, v) -> Fraction:
    """Cross determinant u_x v_y - u_y v_x.  Sign encodes relative phase.
    Each argument is a pair of exact rationals; ints and Fractions are
    multiplied as given, so two int pairs give an int."""
    return _cross(_pair(u, "u"), _pair(v, "v"))


def phase_precedes(u, v) -> bool:
    """True when the ray of u comes strictly before the ray of v in the
    clockwise sweep, i.e. cross(u, v) < 0.  Parallel rays never precede
    each other.  Only meaningful for vectors inside one strictly convex
    sector, where the clockwise sweep is a linear order on rays."""
    return _cross(_pair(u, "u"), _pair(v, "v")) < 0


class Charge:
    """Immutable integer vector in the charge lattice."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Iterable[int]):
        cs = _integers(coords, "charge coordinates")
        object.__setattr__(self, "coords", cs)
        object.__setattr__(self, "_hash", hash(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Charge is immutable")

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "Charge") -> "Charge":
        try:
            return Charge(a + b for a, b in zip(self.coords, other.coords, strict=True))
        except (AttributeError, ValueError):
            raise _operand_error(self, other) from None

    def __sub__(self, other: "Charge") -> "Charge":
        try:
            return Charge(a - b for a, b in zip(self.coords, other.coords, strict=True))
        except (AttributeError, ValueError):
            raise _operand_error(self, other) from None

    def __neg__(self) -> "Charge":
        return Charge(-a for a in self.coords)

    def __radd__(self, other):  # reached only when other is not a Charge
        raise _operand_error(self, other)

    __rsub__ = __radd__

    def __rmul__(self, k: int) -> "Charge":
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValidationError(f"charge multiplier must be an integer, got {k!r}")
        return Charge(k * a for a in self.coords)

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Charge) and self.coords == other.coords

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Charge{self.coords!r}"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def _operand_error(a: Charge, b) -> ValidationError:
    """The error for an operand b of a that is not a charge of a's rank."""
    if isinstance(b, Charge):
        return ValidationError(f"charges of different rank: {a!r} and {b!r}")
    return ValidationError(f"charge arithmetic needs a charge, got {b!r}")


def charges_parallel(b1: Charge, b2: Charge) -> bool:
    """True when b1 and b2 are rational multiples of one another."""
    try:
        n = len(b1.coords)
        if n != len(b2.coords):
            raise _operand_error(b1, b2)
    except AttributeError:
        raise _operand_error(*((b1, b2) if isinstance(b1, Charge) else (b2, b1))) from None
    for i in range(n):
        for j in range(i + 1, n):
            if b1.coords[i] * b2.coords[j] != b1.coords[j] * b2.coords[i]:
                return False
    return True


def _sequence(values, message: str) -> tuple:
    """The entries as a tuple; what is not iterable fails with message."""
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{message}, got {values!r}") from None


def _mapping(mapping, what: str, key: type, keys: str) -> dict:
    """The pairs as a dict from keys of class key to exact nonzero values;
    neither a mapping nor pairs fails, and so does a key of another class."""
    try:
        pairs = dict(mapping)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a mapping, got {mapping!r}") from None
    out = {}
    for k, c in pairs.items():
        if not isinstance(k, key):
            raise ValidationError(f"{keys}, got {k!r}")
        if c := _exact(c):
            out[k] = c
    return out


def _integers(values, what: str) -> tuple[int, ...]:
    """The entries as a tuple, each an int that is not a bool."""
    out = _sequence(values, f"{what} must be a sequence of integers")
    for x in out:  # an exact int passes the first test
        if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
            raise ValidationError(f"{what} must be integers, got {x!r}")
    return out


def _charge_set(charges, rank: int) -> set[Charge]:
    """The distinct charges, each checked to be a Charge of the given rank."""
    cs = _sequence(charges, "charges must be an iterable of charges")
    for ch in cs:
        if not isinstance(ch, Charge) or len(ch.coords) != rank:
            raise ValidationError(f"expected a charge of rank {rank}, got {ch!r}")
    return set(cs)


def _freeze_int_matrix(rows) -> tuple[tuple[int, ...], ...]:
    rows = _sequence(rows, "a matrix must be a sequence of rows")
    return tuple(_integers(row, "matrix entries") for row in rows)


def _exact(x) -> Fraction:
    if type(x) is Fraction:  # immutable, so itself; a subclass is converted
        return x
    if isinstance(x, float):  # a binary fraction, not the rational meant
        raise ValidationError(f"exact rational expected, got float {x!r}")
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise ValidationError(f"exact rational expected, got {x!r}") from None


def _freeze_fraction_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    rows = _sequence(rows, "a matrix must be a sequence of rows")
    return tuple(
        tuple(map(_exact, _sequence(row, "matrix entries must be a sequence of rationals")))
        for row in rows
    )


def _pair(v, what: str) -> tuple:
    """v's two exact rational entries: an int or a Fraction as given, any
    other rational as its Fraction."""
    try:
        x, y = v
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a pair of rationals, got {v!r}") from None
    return tuple(a if isinstance(a, (int, Fraction)) else _exact(a) for a in (x, y))


def _plane(v, what: str) -> Vec2:
    """An exact plane vector: exactly two rational entries."""
    x, y = _pair(v, what)
    return _exact(x), _exact(y)


def _scaled(rows) -> tuple[int, list[list[int]]]:
    """The lcm D of all the rational rows' denominators, and the rows times
    D: a positive scale, which changes no sign, phase order or height order."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _check_square(mat, what: str, sign: int) -> None:
    """Reject a matrix that is not square, or not equal to sign times its
    transpose: symmetric for sign 1, skew-symmetric for sign -1."""
    if any(len(row) != len(mat) for row in mat):
        raise ValidationError(f"{what} matrix must be square")
    if mat != tuple(zip(*mat) if sign > 0 else (tuple(-x for x in col) for col in zip(*mat))):
        raise ValidationError(f"{what} matrix must be {'skew-' if sign < 0 else ''}symmetric")


@dataclass(frozen=True)
class SurfaceModel:
    """First homology of the reference surface with its intersection form.

    The matrix is 2g x 2g, integer and skew-symmetric; g = 0 (empty matrix)
    is allowed and makes every pairing vanish.
    """

    intersection: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        mat = _freeze_int_matrix(self.intersection)
        object.__setattr__(self, "intersection", mat)
        if len(mat) % 2 != 0:
            raise ValidationError("intersection matrix must have even dimension")
        _check_square(mat, "intersection", -1)

    @classmethod
    def standard(cls, genus: int) -> "SurfaceModel":
        """Standard symplectic form: basis a_1..a_g, b_1..b_g with
        a_i . b_i = 1."""
        genus, = _integers((genus,), "genus")
        if genus < 0:
            raise ValidationError("genus must be non-negative")
        dim = 2 * genus
        try:
            rows = [[0] * dim for _ in range(dim)]
        except MemoryError:
            raise ValidationError(f"genus {genus} is too large: its {dim} x {dim} "
                                  "intersection form does not fit in memory") from None
        for i in range(genus):
            rows[i][genus + i] = 1
            rows[genus + i][i] = -1
        return cls(tuple(tuple(r) for r in rows))

    @property
    def dim(self) -> int:
        return len(self.intersection)

    def pairing_h1(self, x, y) -> int:
        """Intersection pairing of two integer homology vectors."""
        xs, ys = _integers(x, "homology vector"), _integers(y, "homology vector")
        if len(xs) != self.dim or len(ys) != self.dim:
            raise ValidationError("homology vector length does not match surface")
        return _dot(xs, [_dot(row, ys) for row in self.intersection])


@dataclass(frozen=True)
class ChargeLattice:
    """Free lattice of charges with a boundary map to surface homology.

    The pairing of two charges is the intersection pairing of their
    boundary images; it is integral and skew by construction.
    """

    rank: int
    boundary: tuple[tuple[int, ...], ...]
    surface: SurfaceModel

    def __post_init__(self):
        mat = _freeze_int_matrix(self.boundary)
        object.__setattr__(self, "boundary", mat)
        if _integers((self.rank,), "lattice rank")[0] < 1:
            raise ValidationError("lattice rank must be positive")
        if not isinstance(self.surface, SurfaceModel):
            raise ValidationError(f"lattice surface must be a SurfaceModel, got {self.surface!r}")
        if len(mat) != self.surface.dim:
            raise ValidationError("boundary matrix must have one row per homology basis vector")
        for row in mat:
            if len(row) != self.rank:
                raise ValidationError("boundary matrix row length must equal the lattice rank")

    def charge(self, coords: Iterable[int]) -> Charge:
        c = Charge(coords)
        if len(c) != self.rank:
            raise ValidationError(f"charge has {len(c)} coordinates, lattice rank is {self.rank}")
        return c

    def boundary_of(self, beta: Charge) -> tuple[int, ...]:
        if not isinstance(beta, Charge) or len(beta.coords) != self.rank:
            raise ValidationError(f"expected a charge of lattice rank {self.rank}, got {beta!r}")
        return tuple(_dot(row, beta.coords) for row in self.boundary)

    def pairing(self, b1: Charge, b2: Charge) -> int:
        return self.surface.pairing_h1(self.boundary_of(b1), self.boundary_of(b2))


@dataclass(frozen=True)
class CentralCharge:
    """Additive map from charges to exact plane vectors (2 x rank matrix)."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        mat = _freeze_fraction_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if len(mat) != 2 or len(mat[0]) != len(mat[1]):
            raise ValidationError("central charge matrix must have exactly two rows of equal length")
        if not mat[0]:
            raise ValidationError("central charge rank must be positive")

    @property
    def rank(self) -> int:
        return len(self.matrix[0])

    def evaluate(self, beta) -> Vec2:
        coords = beta.coords if isinstance(beta, Charge) else _integers(beta, "coordinates")
        if len(coords) != self.rank:
            raise ValidationError("charge length does not match central charge rank")
        return _dot(self.matrix[0], coords), _dot(self.matrix[1], coords)


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric rational form used to cut the cone generators down."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        mat = _freeze_fraction_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        _check_square(mat, "quadratic form", 1)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def evaluate(self, beta) -> Fraction:
        coords = beta.coords if isinstance(beta, Charge) else _integers(beta, "coordinates")
        if len(coords) != self.rank:
            raise ValidationError("charge length does not match quadratic form rank")
        # a Fraction also at rank 0, where the sum is the int 0
        return Fraction(_dot(coords, [_dot(row, coords) for row in self.matrix]))


@dataclass(frozen=True)
class Sector:
    """Closed strictly convex sector swept clockwise from start to end.

    Strict convexity means opening angle < pi, equivalently
    cross(start, end) < 0.  Membership includes both boundary rays.
    """

    start: Vec2
    end: Vec2

    def __post_init__(self):
        start, end = _plane(self.start, "sector direction"), _plane(self.end, "sector direction")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if start == (0, 0) or end == (0, 0):
            raise ValidationError("sector boundary directions must be nonzero")
        if _cross(*_scaled((start, end))[1]) >= 0:  # on ints, one positive scale
            raise ValidationError("sector not strictly convex")

    def contains(self, v) -> bool:
        v = _plane(v, "v")
        if v[0] == 0 and v[1] == 0:
            raise ValidationError("sector membership is undefined for the zero vector")
        return _cross(self.start, v) <= 0 and _cross(v, self.end) <= 0

    def boundary_ray(self, v) -> Optional[str]:
        """'start' or 'end' when v lies on that boundary ray, else None.
        Only meaningful for v inside the sector."""
        if not self.contains(v):
            return None
        if _cross(self.start, v) == 0:
            return "start"
        if _cross(v, self.end) == 0:
            return "end"
        return None


@dataclass(frozen=True)
class TruncationSet:
    """Rational covector and cutoff bounding the part of the cone kept.

    The covector must be positive on the closed sector, which makes the
    height of every cone charge positive and the truncated set downward
    closed under cone splits.  scan_box bounds the coordinate search for
    cone generators; every generator with height <= cutoff must fit in
    the box (members found by closure may lie outside it).
    """

    covector: Vec2
    cutoff: Fraction
    scan_box: int

    def __post_init__(self):
        object.__setattr__(self, "covector", _plane(self.covector, "truncation covector"))
        object.__setattr__(self, "cutoff", _exact(self.cutoff))
        if self.cutoff < 0:
            raise ValidationError("truncation cutoff must be non-negative")
        if _integers((self.scan_box,), "scan_box")[0] < 1:
            raise ValidationError("scan_box must be a positive integer")

    def height(self, z_value) -> Fraction:
        x, y = _plane(z_value, "z_value")
        return self.covector[0] * x + self.covector[1] * y

    def validate_for(self, sector: Sector) -> None:
        # positivity on both boundary rays gives positivity on the whole closed
        # sector, which is spanned by them with >= 0 coefficients; on scaled ints
        _check_geometry(sector=sector)
        _, (start, end, cov) = _scaled((sector.start, sector.end, self.covector))
        if _dot(cov, start) <= 0 or _dot(cov, end) <= 0:
            raise ValidationError("truncation covector must be positive on the closed sector")


def _kernel_rows(zx: list[int], zy: list[int]) -> list[list[int]]:
    """An integer basis of ker Z from Z's integer rows, by Cramer's rule on
    Z's first nonzero 2 x 2 minor, else on its first nonzero entry.  It is
    empty, after one determinant, when Z is an invertible 2 x 2 matrix."""
    n = len(zx)
    for p, q in itertools.combinations(range(n), 2):
        d = zx[p] * zy[q] - zx[q] * zy[p]
        if d:  # rank 2: d e_j plus the solution on columns p, q, per other j
            basis = []
            for j in range(n):
                if j != p and j != q:
                    v = [0] * n
                    v[j] = d
                    v[p], v[q] = zx[q] * zy[j] - zx[j] * zy[q], zx[j] * zy[p] - zx[p] * zy[j]
                    basis.append(v)
            return basis
    row = zx if any(zx) else zy  # rank <= 1: both rows are multiples of it
    p = next((j for j, x in enumerate(row) if x), None)
    if p is None:
        return [[int(i == j) for i in range(n)] for j in range(n)]
    basis = []
    for j in range(n):
        if j != p:
            v = [0] * n
            v[j], v[p] = row[p], -row[j]
            basis.append(v)
    return basis


def _negative_definite(m: list[list[int]]) -> bool:
    """Sylvester's criterion on a symmetric integer matrix, which is
    overwritten: its k-th leading minor has the sign (-1)^k.  Fraction-free
    (Bareiss) elimination without row swaps leaves the (k+1)-th leading
    minor in m[k][k] after step k, and each of its divisions is exact."""
    prev, sign = 1, -1
    for k in range(len(m)):
        pivot = m[k][k]
        if pivot * sign <= 0:
            return False
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev, sign = pivot, -sign
    return True


def check_kernel_definiteness(z: CentralCharge, q: QuadraticForm) -> None:
    """Reject configurations where Q fails to be negative definite on ker Z.

    Without this the set of cone generators below a height cutoff can be
    infinite and enumeration would silently truncate it.  Z and Q are scaled
    to integers, which scales Q on ker Z by a positive factor.  An integer
    basis of ker Z comes from Cramer's rule, and Q on it is negative
    definite exactly when its leading minors, from fraction-free
    elimination, alternate in sign from negative (Sylvester).  An
    invertible Z has ker Z = 0 and passes after one 2 x 2 determinant.
    """
    basis = _kernel_rows(*_scaled(z.matrix)[1])
    if not basis:
        return
    qm = _scaled(q.matrix)[1]
    m = [[_dot(a, [_dot(row, b) for row in qm]) for b in basis] for a in basis]
    if not _negative_definite(m):
        raise ValidationError("quadratic form is not negative definite on ker Z")


class GeneratorOrder:
    """Total order on the truncated cone charges.

    Primary key: clockwise phase of the central charge.  Ties (parallel
    phases) break by height, then lexicographically, so proportional
    charges sit together.  rays and heights hold each charge's int ray
    key, equal exactly on one ray, and int height on the cone's scale."""

    __slots__ = ("charges", "index", "rays", "heights")

    def __init__(self, charges: tuple[Charge, ...], rays: list[int], heights: list[int]):
        self.charges, self.rays, self.heights = charges, rays, heights
        self.index = {ch: i for i, ch in enumerate(charges)}

    def position(self, charge: Charge, name: str = "a letter of word") -> int:
        try:
            return self.index[charge]
        except (KeyError, TypeError):
            if not isinstance(charge, Charge):
                raise ValidationError(f"{name} must be a Charge, got {charge!r}") from None
            raise ValidationError(f"letter outside the truncated cone: {charge!r}") from None


class _Cone:
    """The truncated cone of one (lattice, Z, Q, sector, truncation) on the
    integer chart that every exact test reads: Z's rows, and the sector
    rays with the covector, each scaled by a positive integer, which keeps
    every sign, phase order and height order.  The height row is the
    covector applied to Z's rows, so an int height is the rational one
    times scale; cut is the cutoff times scale, rounded down, which keeps
    every comparison of an int height with it.  forms holds the half-planes
    row . point <= bound that height and scan test: (hrow, cut), then
    cross(start, Z) and cross(Z, end) with bound 0.

    Building one checks each argument's class, Z and Q of the lattice rank
    and the covector on the sector, then enumerates the members or checks
    explicit ones (all but ker Z).  The order is sorted on first use."""

    def __init__(self, lattice, z, q, sector, trunc, members=None):
        _check_geometry(lattice=lattice, z=z, q=q, sector=sector, trunc=trunc)
        if z.rank != lattice.rank or q.rank != lattice.rank:
            raise ValidationError("central charge / quadratic form rank must match the lattice")
        self.lattice, self.z, self.q, self.sector, self.trunc = lattice, z, q, sector, trunc
        dz, (self.zx, self.zy) = _scaled(z.matrix)
        dc, ((sx, sy), (ex, ey), self.cov) = _scaled((sector.start, sector.end, trunc.covector))
        c0, c1 = self.cov
        if c0 * sx + c1 * sy <= 0 or c0 * ex + c1 * ey <= 0:
            raise ValidationError("truncation covector must be positive on the closed sector")
        self.hrow = [c0 * x + c1 * y for x, y in zip(self.zx, self.zy)]
        self.scale = dz * dc
        self.cut = trunc.cutoff.numerator * self.scale // trunc.cutoff.denominator
        self.forms = (
            (self.hrow, self.cut),
            ([sx * y - sy * x for x, y in zip(self.zx, self.zy)], 0),
            ([ey * x - ex * y for x, y in zip(self.zx, self.zy)], 0),
        )
        if members is None:
            self.members = self._enumerate()
            return
        members = _sequence(members, "members must be a sequence of charges")
        for ch in members:  # within the three half-planes, Z = 0 exactly where the height is 0
            if (not isinstance(ch, Charge) or len(ch) != lattice.rank or not _dot(self.hrow, ch.coords)
                    or any(_dot(row, ch.coords) > bound for row, bound in self.forms)):
                raise ValidationError(f"member {ch!r} is not a charge in the truncated sector")
        if len(set(members)) < len(members):
            raise ValidationError("members must not repeat a charge")
        self.members = members

    def scan(self, box: int):
        """The points of [-box, box]^rank on the inner side of the three
        half-planes of forms, in lexicographic order.  The first rank - 1
        coordinates run over the box; the last solves c t <= rest for each
        half-plane: floor division for c > 0, ceil division for c < 0, all
        or nothing for c = 0."""
        for head in itertools.product(range(-box, box + 1), repeat=len(self.zx) - 1):
            lo, hi = -box, box
            for row, bound in self.forms:
                c, rest = row[-1], bound - _dot(row, head)  # _dot stops where head does
                if c > 0:
                    hi = min(hi, rest // c)
                elif c < 0:
                    lo = max(lo, -(rest // -c))
                elif rest < 0:
                    break
            else:
                for t in range(lo, hi + 1):
                    yield (*head, t)

    def _enumerate(self) -> tuple[Charge, ...]:
        """cone_enumerate's members, found on this chart."""
        if _kernel_rows(self.zx, self.zy):  # ker Z from the chart's rows is not 0: check Q on it
            check_kernel_definiteness(self.z, self.q)
        box = self.trunc.scan_box
        qm = [x for row in _scaled(self.q.matrix)[1] for x in row]  # Q(p) = qm . (p_i p_j)
        # heights are positive ints, so a member sums at most cut generators from the box: its
        # coordinates stay within box * cut, and its key in base 2 * box * cut + 1 is unique
        powers = [(2 * box * self.cut + 1) ** i for i in range(self.lattice.rank)]
        gens: list[tuple[int, tuple[int, ...], int]] = []
        for point in self.scan(box):
            h = _dot(self.hrow, point)  # scan keeps the sector below the cutoff: h = 0 only at Z = 0
            if h and _dot(qm, [a * b for a in point for b in point]) >= 0:
                gens.append((_dot(powers, point), point, h))
        gens.sort(key=operator.itemgetter(2))  # heights add up along the closure
        members = {k: (h, g) for k, g, h in gens}
        frontier, cut, add = gens, self.cut, operator.add
        while frontier:
            fresh = []
            for km, m, hm in frontier:
                for kg, g, hg in gens:
                    h = hm + hg
                    if h > cut:
                        break
                    if (k := km + kg) not in members:
                        s = tuple(map(add, m, g))
                        members[k] = h, s
                        fresh.append((k, s, h))
            frontier = fresh
        return tuple(Charge(c) for _, c in sorted(members.values()))

    @functools.cached_property
    def order(self) -> GeneratorOrder:
        """The members in generator order.  cross(Z, covector) / height
        (> 0 on the sector) grows clockwise; times the lcm of the heights it
        is an int ray key, equal exactly on one ray's members, which follow
        by height, then by coordinates (a stable sort)."""
        charges, (c0, c1) = sorted(self.members, key=lambda ch: ch.coords), self.cov
        heights = [_dot(self.hrow, ch.coords) for ch in charges]
        lcm = math.lcm(*heights)
        rays = [(_dot(self.zx, ch.coords) * c1 - _dot(self.zy, ch.coords) * c0) * (lcm // h)
                for ch, h in zip(charges, heights)]
        perm = sorted(range(len(charges)), key=lambda i: (rays[i], heights[i]))
        return GeneratorOrder(tuple(charges[i] for i in perm), [rays[i] for i in perm],
                              [heights[i] for i in perm])

    def runs(self, charges) -> list[list[Charge]]:
        """The given members in generator order, one list per ray key."""
        index, rays = self.order.index, self.order.rays
        return [list(run) for _, run in itertools.groupby(
            sorted(charges, key=index.__getitem__), lambda ch: rays[index[ch]])]

    def first_type(self, charges) -> Optional[tuple[Charge, Charge]]:
        """wall_first_type's pair on members (their Z, in the covector's open
        half-plane, are parallel on one ray alone): per ray, its first member
        in coordinates and first partner not parallel to it; the least wins."""
        pairs = []
        for b1, *rest in (sorted(run, key=lambda ch: ch.coords) for run in self.runs(charges)):
            if (b2 := next((ch for ch in rest if not charges_parallel(b1, ch)), None)) is not None:
                pairs.append((b1.coords, b1, b2))
        return min(pairs)[1:] if pairs else None

    @functools.cached_property
    def boundary(self) -> frozenset:
        """The members on a sector boundary ray: a 0 in either ray's row of forms."""
        return frozenset(ch for ch in self.members
                         if not all(_dot(row, ch.coords) for row, _ in self.forms[1:]))

    def boundary_split(self, members, totals) -> Optional[tuple[Charge, Charge]]:
        """The first (b1, b2) of members, taken in that order, with b1 in
        boundary and b1 + b2 in totals, or None: the second-type wall rule."""
        return next(((b1, b2) for b1 in members if b1 in self.boundary
                     for b2 in members if b1 + b2 in totals), None)


def cone_enumerate(
    lattice: ChargeLattice,
    z: CentralCharge,
    q: QuadraticForm,
    sector: Sector,
    trunc: TruncationSet,
) -> tuple[Charge, ...]:
    """Nonzero non-negative integer combinations of the cone generators
    with height at most the cutoff, sorted by (height, lexicographic).

    Generators are the charges with central charge inside the sector and
    non-negative quadratic form, found in the integer box given by
    trunc.scan_box: only the points that `_Cone.scan` leaves take the
    exact Q test.  Heights of generators are strictly positive, so the
    additive closure below the cutoff is finite.
    """
    return _Cone(lattice, z, q, sector, trunc).members


def _checker(classes: dict):
    """A check that rejects, by name, each argument not an instance of classes[name]."""
    def check(**args) -> None:
        for name, value in args.items():
            if not isinstance(value, cls := classes[name]):
                article = "an" if cls.__name__[0] in "AEIOU" else "a"
                raise ValidationError(f"{name} must be {article} {cls.__name__}, got {value!r}")
    return check


_GEOMETRY = {"lattice": ChargeLattice, "z": CentralCharge, "q": QuadraticForm,
             "sector": Sector, "trunc": TruncationSet, "surface": SurfaceModel}
_check_geometry = _checker(_GEOMETRY)


def wall_first_type(
    z: CentralCharge, charges: Iterable[Charge]
) -> Optional[tuple[Charge, Charge]]:
    """First pair of non-proportional charges with parallel central charges,
    or None.  Deterministic: charges are scanned in lexicographic order."""
    _check_geometry(z=z)
    cs = sorted(_charge_set(charges, z.rank), key=lambda b: b.coords)
    zx, zy = _scaled(z.matrix)[1]
    zs = [(_dot(zx, b.coords), _dot(zy, b.coords)) for b in cs]
    for (b1, v1), (b2, v2) in itertools.combinations(zip(cs, zs), 2):
        if _cross(v1, v2) == 0 and not charges_parallel(b1, b2):
            return (b1, b2)
    return None


def wall_second_type(
    lattice: ChargeLattice,
    z: CentralCharge,
    q: QuadraticForm,
    sector: Sector,
    beta: Charge,
    trunc: TruncationSet,
) -> Optional[tuple[Charge, Charge]]:
    """Witness split beta = b1 + b2 with both parts truncated cone members
    and the phase of b1 on a sector boundary ray, or None: the cone's
    `boundary_split` with the one total beta.  Downward closure of the
    truncated cone makes the member-level scan complete below the cutoff."""
    _check_geometry(lattice=lattice)
    if not isinstance(beta, Charge) or len(beta.coords) != lattice.rank:
        raise ValidationError(f"beta must be a charge of lattice rank {lattice.rank}, got {beta!r}")
    cone = _Cone(lattice, z, q, sector, trunc)
    return cone.boundary_split(cone.members, {beta})
