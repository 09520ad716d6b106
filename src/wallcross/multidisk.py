"""Decorated forests and height-ordered curve chains.

Curves are modeled as homology classes sitting at rational heights in the
open interval (0, 1).  The height coordinate runs clockwise across the
sector, so a lower height belongs with an earlier (higher-argument) ray.
Linking then reduces to comparing height order against phase order and
evaluating the intersection pairing, which keeps every value exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import AlgebraElement, PbwAlgebra
from .errors import FirstTypeWallError, ValidationError
from .lattice import (
    CentralCharge,
    Charge,
    ChargeLattice,
    SurfaceModel,
    _GEOMETRY,
    _checker,
    _cross,
    _exact,
    _integers,
    _mapping,
    _sequence,
)


# -- decorated forests ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class DecoratedForest:
    """Labeled forest carrying a charge at every vertex.

    Vertices are the indices of ``vertex_charges``.  Half-edge ``h`` sits
    on vertex ``attach[h]`` and is glued to half-edge ``involution[h]``;
    the glued pairs are the edges.  Acyclicity is equivalent to every
    component having one vertex more than it has edges.
    """

    vertex_charges: tuple[Charge, ...]
    attach: tuple[int, ...]
    involution: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_charges", _charges(self.vertex_charges))
        object.__setattr__(self, "attach", _integers(self.attach, "half-edge attachments"))
        object.__setattr__(self, "involution", _integers(self.involution, "involution entries"))
        n = len(self.vertex_charges)
        half = len(self.attach)
        if len(self.involution) != half:
            raise ValidationError("every half-edge needs an attachment and a partner")
        for i, j in enumerate(self.involution):
            if not 0 <= j < half or j == i or self.involution[j] != i:
                raise ValidationError(
                    "involution must pair half-edges without fixed points"
                )
        for v in self.attach:
            if not 0 <= v < n:
                raise ValidationError("half-edge attached to a missing vertex")
        if not _acyclic(n, self.edge_vertices()):
            raise ValidationError("graph has a cycle; only forests are allowed")

    @classmethod
    def from_edge_list(
        cls,
        vertex_charges: Sequence[Charge],
        edge_list: Sequence[tuple[int, int]],
    ) -> "DecoratedForest":
        try:
            attach = [v for u, w in edge_list for v in (u, w)]
        except (TypeError, ValueError):
            raise ValidationError(f"edges must be vertex pairs, got {edge_list!r}") from None
        involution = tuple(h ^ 1 for h in range(len(attach)))
        return cls(vertex_charges, tuple(attach), involution)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as half-edge pairs (h, involution[h]) with h smallest."""
        return tuple(
            (h, self.involution[h])
            for h in range(len(self.attach))
            if h < self.involution[h]
        )

    def edge_vertices(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (self.attach[h1], self.attach[h2]) for h1, h2 in self.edges()
        )

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * len(self.vertex_charges)
        for v in self.attach:
            degs[v] += 1
        return tuple(degs)

    def is_stable(self) -> bool:
        """No vertex may combine zero charge with degree at most two."""
        return not any(
            ch.is_zero() and deg <= 2
            for ch, deg in zip(self.vertex_charges, self.degrees())
        )

    def contract_edge(self, edge: tuple[int, int]) -> "DecoratedForest":
        """Collapse one edge, merging its endpoints and adding their charges."""
        pair = tuple(sorted(_integers(edge, "edge half-edges")))
        if pair not in self.edges():
            raise ValidationError(f"not an edge of this forest: {edge!r}")
        h1, h2 = pair
        u, w = self.attach[h1], self.attach[h2]
        assert u != w  # a forest has no self-loops
        keep, drop = min(u, w), max(u, w)
        charges = list(self.vertex_charges)
        charges[keep] = charges[u] + charges[w]
        del charges[drop]

        def vmap(v: int) -> int:
            if v == drop:
                return keep
            return v - 1 if v > drop else v

        kept_halves = [h for h in range(len(self.attach)) if h not in (h1, h2)]
        hmap = {h: i for i, h in enumerate(kept_halves)}
        attach = tuple(vmap(self.attach[h]) for h in kept_halves)
        involution = tuple(hmap[self.involution[h]] for h in kept_halves)
        return DecoratedForest(tuple(charges), attach, involution)


def _charges(values) -> tuple[Charge, ...]:
    """The vertex decorations as a tuple, each a Charge."""
    out = _sequence(values, "vertex decorations must be a sequence of charges")
    for ch in out:
        if not isinstance(ch, Charge):
            raise ValidationError(f"vertex decoration must be a charge, got {ch!r}")
    return out


def _acyclic(vertex_count: int, edge_list: Sequence[tuple[int, int]]) -> bool:
    parent = list(range(vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, w in edge_list:
        ru, rw = find(u), find(w)
        if ru == rw:
            return False
        parent[ru] = rw
    return True


def _forest_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every acyclic edge subset of the complete graph on n vertices, as a
    tuple of vertex pairs, by edge count then ``itertools.combinations``
    order.  Each subset is checked for cycles once."""
    candidates = list(itertools.combinations(range(n), 2))
    for k in range(n or 1):
        for subset in itertools.combinations(candidates, k):
            if _acyclic(n, subset):
                yield subset


def enumerate_forests(
    vertex_charges: Sequence[Charge],
) -> tuple[DecoratedForest, ...]:
    """All forests on the labeled vertex set, by edge count then edge order,
    each built by the checked constructor as a hand-built forest is."""
    charges = _charges(vertex_charges)
    return tuple(DecoratedForest.from_edge_list(charges, subset)
                 for subset in _forest_edge_sets(len(charges)))


# -- height-ordered chains -------------------------------------------------


@dataclass(frozen=True)
class ChainVertex:
    theta: Fraction
    charge: Charge
    boundary: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", _exact(self.theta))
        object.__setattr__(self, "boundary", _integers(self.boundary, "boundary entries"))
        if not 0 < self.theta.numerator < self.theta.denominator:  # 0 < theta < 1
            raise ValidationError("chain heights live strictly between 0 and 1")
        if not isinstance(self.charge, Charge):
            raise ValidationError(f"chain vertex needs a charge, got {self.charge!r}")


@dataclass(frozen=True)
class NiceChain:
    """Charges at pairwise distinct heights, stored in increasing height."""

    vertices: tuple[ChainVertex, ...]

    def __post_init__(self):
        verts = _sequence(self.vertices, "chain vertices must be a sequence")
        for v in verts:
            if not isinstance(v, ChainVertex):
                raise ValidationError(f"chain vertex expected, got {v!r}")
        verts = tuple(sorted(verts, key=lambda v: v.theta))
        object.__setattr__(self, "vertices", verts)
        thetas = [v.theta for v in verts]  # sorted, so equal ones are neighbours
        if any(a == b for a, b in zip(thetas, thetas[1:])):
            raise ValidationError("chain heights must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    def to_monomial(self) -> tuple[Charge, ...]:
        """Word of charges read off in increasing height."""
        return tuple(v.charge for v in self.vertices)


def make_chain(
    lattice: ChargeLattice,
    items: Iterable[tuple[Fraction, Charge | Sequence[int]]],
) -> NiceChain:
    """Chain from (height, charge) pairs; boundary classes are filled in."""
    _check_args(lattice=lattice)
    try:
        pairs = [(theta, ch) for theta, ch in items]
    except (TypeError, ValueError):
        raise ValidationError(
            f"chain items must be (height, charge) pairs, got {items!r}"
        ) from None
    verts = []
    for theta, ch in pairs:
        charge = ch if isinstance(ch, Charge) else lattice.charge(ch)
        verts.append(ChainVertex(theta, charge, lattice.boundary_of(charge)))
    return NiceChain(tuple(verts))


class ChainCombination:
    """Finite rational combination of chains; zero terms are dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[NiceChain, Fraction] = ()):
        self._terms = _mapping(terms, "chain combination", NiceChain, "combination keys must be chains")

    @classmethod
    def from_chain(cls, chain: NiceChain, coeff=1) -> "ChainCombination":
        return cls({chain: coeff})

    def terms(self) -> list[tuple[NiceChain, Fraction]]:
        def key(chain: NiceChain):
            return tuple((v.theta, v.charge.coords) for v in chain.vertices)

        return [(chain, self._terms[chain]) for chain in sorted(self._terms, key=key)]

    def __add__(self, other: "ChainCombination") -> "ChainCombination":
        _check_args(other=other)
        out = dict(self._terms)
        for chain, c in other._terms.items():
            out[chain] = out.get(chain, Fraction(0)) + c
        return ChainCombination(out)

    def __rmul__(self, scalar) -> "ChainCombination":
        s = _exact(scalar)
        return ChainCombination({chain: s * c for chain, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, ChainCombination) and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return f"ChainCombination({self._terms!r})"


_check_args = _checker({**_GEOMETRY, "chain": NiceChain, "forest": DecoratedForest,
                        "v1": ChainVertex, "v2": ChainVertex, "other": ChainCombination})


# -- linking ---------------------------------------------------------------


def link(
    v1: ChainVertex, v2: ChainVertex, z: CentralCharge, surface: SurfaceModel
) -> int:
    """Linking number of two curves at distinct heights.

    Zero when the height order agrees with the clockwise phase order of the
    central charge values; otherwise the full intersection number of the
    lower curve with the higher one.  Parallel central charges are only
    legal when the intersection number vanishes."""
    _check_args(v1=v1, v2=v2, z=z, surface=surface)
    if v1.theta == v2.theta:
        raise ValidationError("linking needs distinct heights")
    z1 = z.evaluate(v1.charge)
    z2 = z.evaluate(v2.charge)
    if _cross(z1, z2) == 0:
        if surface.pairing_h1(v1.boundary, v2.boundary) != 0:
            raise FirstTypeWallError(
                "first-type wall: parallel central charges with nonzero pairing"
            )
        return 0
    if v1.theta > v2.theta:  # make v1 the lower curve
        v1, v2, z1, z2 = v2, v1, z2, z1
    if _cross(z1, z2) < 0:  # z1 precedes z2
        return 0
    return surface.pairing_h1(v1.boundary, v2.boundary)


def multilink_forest(
    chain: NiceChain,
    forest: DecoratedForest,
    z: CentralCharge,
    surface: SurfaceModel,
) -> Fraction:
    """Product of the edge links, divided by the factorial of the edge count."""
    _check_args(chain=chain, forest=forest, z=z, surface=surface)
    if forest.vertex_charges != chain.to_monomial():
        raise ValidationError(
            "forest vertices must carry the chain charges in height order"
        )
    edges = forest.edges()
    value = Fraction(1, factorial(len(edges)))
    for h1, h2 in edges:
        a = chain.vertices[forest.attach[h1]]
        b = chain.vertices[forest.attach[h2]]
        value *= link(a, b, z, surface)
    return value


def multilink_total(
    chain: NiceChain, z: CentralCharge, surface: SurfaceModel
) -> Fraction:
    """Sum of the forest values over every forest on the chain's vertices.

    Each pair's link is read once, as the one-edge forest on that pair would
    read it.  The integer link products are summed per edge count over the
    acyclic edge sets, with no forest built, and each sum is divided by the
    factorial of its count at the end."""
    _check_args(chain=chain, z=z, surface=surface)
    verts = chain.vertices
    pairs = itertools.combinations(range(len(verts)), 2)
    links = {(i, j): link(verts[i], verts[j], z, surface) for i, j in pairs}
    by_count = [0] * (len(verts) + 1)
    for subset in _forest_edge_sets(len(verts)):
        by_count[len(subset)] += prod(links[e] for e in subset)
    return sum(Fraction(s, factorial(k)) for k, s in enumerate(by_count))


# -- the crossing rewrite ---------------------------------------------------


def crossing_rewrite(
    chain: NiceChain, j: int, surface: SurfaceModel
) -> ChainCombination:
    """Exchange the heights of vertices j and j+1 (in height order) and add
    the pairing-weighted merged chain, with the merged vertex at the height
    midpoint.  Any height in the gap would do; only the order matters."""
    _check_args(chain=chain, surface=surface)
    j, = _integers((j,), "rewrite position")
    verts = chain.vertices
    if not 0 <= j < len(verts) - 1:
        raise ValidationError("rewrite position must name two height-adjacent vertices")
    a, b = verts[j], verts[j + 1]
    swapped = (
        verts[:j]
        + (ChainVertex(a.theta, b.charge, b.boundary),
           ChainVertex(b.theta, a.charge, a.boundary))
        + verts[j + 2:]
    )
    out = {NiceChain(swapped): Fraction(1)}
    coeff = surface.pairing_h1(a.boundary, b.boundary)
    if coeff:
        merged = ChainVertex(
            (a.theta + b.theta) / 2,
            a.charge + b.charge,
            tuple(x + y for x, y in zip(a.boundary, b.boundary)),
        )
        out[NiceChain(verts[:j] + (merged,) + verts[j + 2:])] = Fraction(coeff)
    return ChainCombination(out)


# -- algebra image -----------------------------------------------------------


def chain_to_algebra(algebra: PbwAlgebra, chain: NiceChain) -> AlgebraElement:
    return algebra.normal_form(chain.to_monomial())


def combination_to_algebra(
    algebra: PbwAlgebra, combination: ChainCombination
) -> AlgebraElement:
    out = algebra.zero()
    for chain, coeff in combination.terms():
        out = out + coeff * algebra.normal_form(chain.to_monomial())
    return out
