from __future__ import annotations

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import build_setup
from wallcross.algebra import PbwAlgebra
from wallcross.errors import FirstTypeWallError, ValidationError, WallcrossError
from wallcross.lattice import CentralCharge, Charge, ChargeLattice, SurfaceModel
import wallcross.multidisk as multidisk
from wallcross.multidisk import (
    ChainCombination,
    ChainVertex,
    DecoratedForest,
    NiceChain,
    chain_to_algebra,
    combination_to_algebra,
    crossing_rewrite,
    enumerate_forests,
    link,
    make_chain,
    multilink_forest,
    multilink_total,
)

G1 = Charge((1, 0))
G2 = Charge((0, 1))
ZERO = Charge((0, 0))


# Reference oracle, independent of the union-find used by the package:
# recursive DFS cycle detection on an adjacency list.
def ref_is_forest(n, edge_list):
    adj = {v: [] for v in range(n)}
    for idx, (u, w) in enumerate(edge_list):
        if u == w:
            return False
        adj[u].append((w, idx))
        adj[w].append((u, idx))
    seen = set()
    for root in range(n):
        if root in seen:
            continue
        stack = [(root, -1)]
        seen.add(root)
        while stack:
            node, via = stack.pop()
            for nxt, idx in adj[node]:
                if idx == via:
                    continue
                if nxt in seen:
                    return False
                seen.add(nxt)
                stack.append((nxt, idx))
    return True


def ref_forest_count(n):
    total = 0
    for k in range(n):
        for subset in itertools.combinations(itertools.combinations(range(n), 2), k):
            if ref_is_forest(n, subset):
                total += 1
    return total


# Frozen counts of labeled forests on n = 0, 1, ..., 6 vertices (the empty
# vertex set has the one empty forest).
FOREST_COUNTS = (1, 1, 2, 7, 38, 291, 2932)


# -- forests -----------------------------------------------------------------


def test_forest_validation():
    with pytest.raises(ValidationError):  # fixed point
        DecoratedForest((G1, G2), (0, 1), (0, 1))
    with pytest.raises(ValidationError):  # not an involution
        DecoratedForest((G1, G2, G2), (0, 1, 2, 0), (1, 2, 3, 0))
    with pytest.raises(ValidationError):  # dangling vertex index
        DecoratedForest((G1,), (0, 1), (1, 0))
    with pytest.raises(ValidationError):  # self-loop is a cycle
        DecoratedForest((G1,), (0, 0), (1, 0))
    with pytest.raises(ValidationError):  # doubled edge is a cycle
        DecoratedForest((G1, G2), (0, 1, 0, 1), (1, 0, 3, 2))
    with pytest.raises(ValidationError):  # triangle
        DecoratedForest.from_edge_list((G1, G2, G1), [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValidationError):  # decoration must be a charge
        DecoratedForest(((1, 0),), (), ())


def test_stability_examples():
    assert DecoratedForest((G1,), (), ()).is_stable()
    assert not DecoratedForest((ZERO,), (), ()).is_stable()
    star = DecoratedForest.from_edge_list(
        (ZERO, G1, G1, G2), [(0, 1), (0, 2), (0, 3)]
    )
    assert star.degrees() == (3, 1, 1, 1)
    assert star.is_stable()
    path = DecoratedForest.from_edge_list((G1, ZERO, G2), [(0, 1), (1, 2)])
    assert not path.is_stable()  # middle vertex: charge 0, degree 2


def test_contract_edge_pair():
    forest = DecoratedForest.from_edge_list((G1, G2), [(0, 1)])
    shrunk = forest.contract_edge(forest.edges()[0])
    assert shrunk.vertex_charges == (Charge((1, 1)),)
    assert shrunk.edges() == ()


def test_contract_edge_path():
    path = DecoratedForest.from_edge_list((G1, G2, G1 + G2), [(0, 1), (1, 2)])
    step = path.contract_edge(path.edges()[0])
    assert len(step.vertex_charges) == 2
    assert len(step.edges()) == 1
    assert step.vertex_charges[0] == Charge((1, 1))
    final = step.contract_edge(step.edges()[0])
    assert final.vertex_charges == (Charge((2, 2)),)
    # order of contraction does not change the total
    other = path.contract_edge(path.edges()[1])
    assert other.contract_edge(other.edges()[0]).vertex_charges == (Charge((2, 2)),)


def test_contract_edge_errors():
    forest = DecoratedForest.from_edge_list((G1, G2, G2), [(0, 1)])
    with pytest.raises(ValidationError):
        forest.contract_edge((1, 3))
    with pytest.raises(ValidationError):
        forest.contract_edge((4, 5))


@pytest.mark.parametrize("edges", [None, [0], [(0, 1, 2)]], ids=["none", "bare_int", "triple"])
def test_malformed_edge_list_rejected(edges):
    with pytest.raises(ValidationError, match="edges must be vertex pairs"):
        DecoratedForest.from_edge_list((G1, G2), edges)


def test_contract_edge_none_rejected():
    forest = DecoratedForest.from_edge_list((G1, G2), [(0, 1)])
    with pytest.raises(ValidationError, match="edge half-edges must be a sequence"):
        forest.contract_edge(None)


def test_contraction_keeps_stability():
    # merging two stable endpoints only goes unstable if both charges were 0,
    # checked over every forest on 3 vertices with charges in {0, g1, g2}
    for charges in itertools.product((ZERO, G1, G2), repeat=3):
        for forest in enumerate_forests(charges):
            degs = forest.degrees()
            for edge in forest.edges():
                u, w = forest.attach[edge[0]], forest.attach[edge[1]]
                endpoint_stable = all(
                    not (charges[v].is_zero() and degs[v] <= 2) for v in (u, w)
                )
                if not endpoint_stable:
                    continue
                shrunk = forest.contract_edge(edge)
                merged = min(u, w)
                bad = (
                    shrunk.vertex_charges[merged].is_zero()
                    and shrunk.degrees()[merged] <= 2
                )
                if bad:
                    assert charges[u].is_zero() and charges[w].is_zero()


def test_enumerate_forest_counts():
    for n, expected in enumerate(FOREST_COUNTS[:6]):
        forests = enumerate_forests((G1,) * n)
        assert len(forests) == expected
        if n:
            assert ref_forest_count(n) == expected


def checked_forests(charges):
    """Every forest built through the public, fully checked constructor."""
    n = len(charges)
    candidates = list(itertools.combinations(range(n), 2))
    return [
        DecoratedForest.from_edge_list(charges, subset)
        for k in range(n if n else 1)
        for subset in itertools.combinations(candidates, k)
        if multidisk._acyclic(n, subset)
    ]


@pytest.mark.parametrize("n", range(7))
def test_enumerate_forests_matches_checked_constructor(n):
    charges = tuple((G1, G2, G2)[i % 3] for i in range(n))
    forests = enumerate_forests(charges)
    assert len(forests) == FOREST_COUNTS[n]
    assert list(forests) == checked_forests(charges)
    for f in forests:
        assert f == DecoratedForest(f.vertex_charges, f.attach, f.involution)


def test_enumerate_forests_checks_each_subset_once():
    charges = (G1, G2) * 3
    built = []
    checked_init = DecoratedForest.__post_init__

    def counted_init(self):
        built.append(self)
        checked_init(self)

    with mock.patch.object(multidisk, "_acyclic", wraps=multidisk._acyclic) as acyclic, \
            mock.patch.object(DecoratedForest, "__post_init__", counted_init):
        forests = enumerate_forests(charges)
    assert len(forests) == 2932
    assert built == list(forests)  # every forest passes the constructor's checks
    # sum of C(15, k) for k < 6 subset checks, then one check per built forest
    assert acyclic.call_count == 4944 + 2932


def test_enumerate_forests_rejects_a_cyclic_edge_set():
    triangle = ((0, 1), (1, 2), (0, 2))
    with mock.patch.object(multidisk, "_forest_edge_sets", return_value=iter([triangle])):
        with pytest.raises(ValidationError, match="graph has a cycle; only forests are allowed"):
            enumerate_forests((G1, G2, G1))


def test_enumerate_forests_rejects_non_charge_up_front():
    with mock.patch.object(multidisk, "_acyclic", wraps=multidisk._acyclic) as acyclic:
        with pytest.raises(ValidationError) as err:
            enumerate_forests((G1, (1, 0), G2))
    assert str(err.value) == "vertex decoration must be a charge, got (1, 0)"
    acyclic.assert_not_called()


@pytest.mark.parametrize(
    "bad", [1.7, True, None, Fraction(1), "1"], ids=["float", "bool", "none", "fraction", "text"]
)
def test_forest_and_boundary_entries_must_be_ints(bad):
    with pytest.raises(ValidationError, match="half-edge attachments must be integers"):
        DecoratedForest((G1, G2), (0, bad), (1, 0))
    with pytest.raises(ValidationError, match="involution entries must be integers"):
        DecoratedForest((G1, G2), (0, 1), (bad, 0))
    with pytest.raises(ValidationError, match="boundary entries must be integers"):
        ChainVertex(Fraction(1, 2), G1, (bad, 0))


def test_forest_and_boundary_fields_must_be_sequences():
    with pytest.raises(ValidationError, match="vertex decorations must be a sequence"):
        DecoratedForest(None, (), ())
    with pytest.raises(ValidationError, match="vertex decorations must be a sequence"):
        DecoratedForest.from_edge_list(None, [])
    with pytest.raises(ValidationError, match="vertex decorations must be a sequence"):
        enumerate_forests(None)
    with pytest.raises(ValidationError, match="half-edge attachments must be a sequence"):
        DecoratedForest((G1,), None, ())
    with pytest.raises(ValidationError, match="involution entries must be a sequence"):
        DecoratedForest((G1,), (), 3)
    with pytest.raises(ValidationError, match="boundary entries must be a sequence"):
        ChainVertex(Fraction(1, 2), G1, None)


def test_chain_fields_must_be_chains():
    lattice = build_setup().lattice
    with pytest.raises(ValidationError, match="combination keys must be chains, got 'x'"):
        ChainCombination({"x": 1})
    with pytest.raises(ValidationError, match="chain vertices must be a sequence, got None"):
        NiceChain(None)
    with pytest.raises(ValidationError, match="chain vertex expected, got 1"):
        NiceChain((1, 2))
    for items in (None, [Fraction(1, 2)], [(Fraction(1, 2),)]):
        with pytest.raises(ValidationError, match="chain items must be"):
            make_chain(lattice, items)


def test_enumerate_spanning_tree_counts():
    # Cayley: n^(n-2) spanning trees on n labeled vertices
    for n in range(2, 7):
        forests = enumerate_forests((G1,) * n)
        spanning = [f for f in forests if len(f.edges()) == n - 1]
        assert len(spanning) == n ** (n - 2)


def test_enumerate_forests_order():
    forests = enumerate_forests((G1, G2, G1))
    listed = [f.edge_vertices() for f in forests]
    assert listed == [
        (),
        ((0, 1),),
        ((0, 2),),
        ((1, 2),),
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
    ]
    assert listed == [f.edge_vertices() for f in enumerate_forests((G1, G2, G1))]


# -- chains ------------------------------------------------------------------


def test_make_chain_fills_boundary():
    surface = SurfaceModel.standard(1)
    lattice = ChargeLattice(rank=2, boundary=((1, 1), (0, 2)), surface=surface)
    chain = make_chain(lattice, [(Fraction(1, 3), (1, 0)), (Fraction(2, 3), G2)])
    assert chain.vertices[0].boundary == (1, 0)
    assert chain.vertices[1].boundary == (1, 2)
    assert chain.to_monomial() == (G1, G2)


def test_chain_validation():
    s = build_setup()
    with pytest.raises(ValidationError):
        make_chain(s.lattice, [(Fraction(1, 2), G1), (Fraction(1, 2), G2)])
    with pytest.raises(ValidationError):
        make_chain(s.lattice, [(Fraction(0), G1)])
    with pytest.raises(ValidationError):
        make_chain(s.lattice, [(Fraction(3, 2), G1)])


def test_chain_sorted_by_height():
    s = build_setup()
    chain = make_chain(s.lattice, [(Fraction(7, 10), G1), (Fraction(3, 10), G2)])
    assert chain.to_monomial() == (G2, G1)
    assert [v.theta for v in chain.vertices] == [Fraction(3, 10), Fraction(7, 10)]


def test_chain_combination_arithmetic():
    s = build_setup()
    c1 = make_chain(s.lattice, [(Fraction(1, 3), G1)])
    c2 = make_chain(s.lattice, [(Fraction(1, 4), G2)])
    a = ChainCombination({c1: Fraction(2), c2: Fraction(1)})
    b = ChainCombination({c1: Fraction(-2)})
    assert (a + b).terms() == [(c2, Fraction(1))]
    assert (3 * a).terms() == [(c2, Fraction(3)), (c1, Fraction(6))]
    assert ChainCombination.from_chain(c1, 0) == ChainCombination()



def test_chain_combination_len_and_repr():
    chain = make_chain(build_setup().lattice, [(Fraction(1, 3), G1)])
    other = make_chain(build_setup().lattice, [(Fraction(1, 4), G2)])
    combination = ChainCombination({chain: 2, other: 0})
    assert len(combination) == 1 and len(ChainCombination()) == 0
    assert repr(combination) == f"ChainCombination({{{chain!r}: Fraction(2, 1)}})"

# -- linking -----------------------------------------------------------------


def chain_pair(s, theta1, charge1, theta2, charge2):
    chain = make_chain(s.lattice, [(theta1, charge1), (theta2, charge2)])
    return chain.vertices[0], chain.vertices[1]


def test_link_matched_order_is_zero():
    # phase order g2 before g1 (clockwise), height order the same
    s = build_setup()
    lo, hi = chain_pair(s, Fraction(3, 10), G2, Fraction(7, 10), G1)
    assert link(lo, hi, s.z, s.lattice.surface) == 0
    assert link(hi, lo, s.z, s.lattice.surface) == 0


def test_link_reversed_order_is_pairing():
    s = build_setup()
    lo, hi = chain_pair(s, Fraction(3, 10), G1, Fraction(7, 10), G2)
    assert link(lo, hi, s.z, s.lattice.surface) == 1
    # symmetric under swapping the argument order
    assert link(hi, lo, s.z, s.lattice.surface) == 1


def test_link_parallel_charges():
    s = build_setup()
    surface = s.lattice.surface
    lo, hi = chain_pair(s, Fraction(1, 5), G1, Fraction(4, 5), 2 * G1)
    assert link(lo, hi, s.z, surface) == 0
    # distinct parallel classes with zero pairing are fine too
    lo, hi = chain_pair(s, Fraction(1, 5), G1 + G2, Fraction(4, 5), 2 * (G1 + G2))
    assert link(lo, hi, s.z, surface) == 0


def test_link_errors():
    s = build_setup()
    surface = s.lattice.surface
    v1 = ChainVertex(Fraction(1, 2), G1, (1, 0))
    v2 = ChainVertex(Fraction(1, 2), G2, (0, 1))
    with pytest.raises(ValidationError):
        link(v1, v2, s.z, surface)
    degenerate = CentralCharge(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    lo, hi = chain_pair(s, Fraction(1, 4), G1, Fraction(3, 4), G2)
    with pytest.raises(FirstTypeWallError):
        link(lo, hi, degenerate, surface)


WRONG_RANK_Z = CentralCharge(tuple(tuple(Fraction(x) for x in row) for row in ((1, 0, 0), (0, 1, 0))))
SURFACE_MESSAGE = "^homology vector length does not match surface$"
RANK_MESSAGE = "^charge length does not match central charge rank$"


@pytest.mark.parametrize("genus", [0, 2])
def test_link_checks_the_surface_against_both_vertices(genus):
    # the matched pair reads no pairing, yet a surface of the wrong genus is
    # rejected before either vertex is read
    s = build_setup()
    lo, hi = chain_pair(s, Fraction(3, 10), G2, Fraction(7, 10), G1)
    for a, b in ((lo, hi), (hi, lo)):
        with pytest.raises(ValidationError, match=SURFACE_MESSAGE):
            link(a, b, s.z, SurfaceModel.standard(genus))
    # distinct heights come first
    with pytest.raises(ValidationError, match="^linking needs distinct heights$"):
        link(lo, ChainVertex(lo.theta, G1, (1, 0)), s.z, SurfaceModel.standard(genus))


def test_link_checks_each_vertex_in_argument_order():
    s = build_setup()
    surface = s.lattice.surface
    short = ChainVertex(Fraction(1, 4), G1, (1,))  # boundary of the wrong length
    wide = ChainVertex(Fraction(3, 4), Charge((1, 0, 0)), (1, 0))  # charge of the wrong rank
    with pytest.raises(ValidationError, match=SURFACE_MESSAGE):
        link(short, wide, s.z, surface)
    with pytest.raises(ValidationError, match=RANK_MESSAGE):
        link(wide, short, s.z, surface)
    lo, hi = chain_pair(s, Fraction(3, 10), G2, Fraction(7, 10), G1)
    with pytest.raises(ValidationError, match=RANK_MESSAGE):
        link(lo, hi, WRONG_RANK_Z, surface)


def test_link_ignores_height_perturbation():
    s = build_setup()
    surface = s.lattice.surface
    rng = random.Random(5)
    members = (G1, G2, G1 + G2, 2 * G1, 2 * G2)
    for _ in range(50):
        c1, c2 = rng.choice(members), rng.choice(members)
        t1 = Fraction(rng.randrange(1, 50), 100)
        t2 = Fraction(rng.randrange(51, 100), 100)
        base = link(
            ChainVertex(t1, c1, s.lattice.boundary_of(c1)),
            ChainVertex(t2, c2, s.lattice.boundary_of(c2)),
            s.z,
            surface,
        )
        nudged = link(
            ChainVertex(t1 + Fraction(1, 300), c1, s.lattice.boundary_of(c1)),
            ChainVertex(t2 + Fraction(1, 300), c2, s.lattice.boundary_of(c2)),
            s.z,
            surface,
        )
        assert base == nudged


# -- multilink ---------------------------------------------------------------


def test_multilink_forest_edgeless():
    s = build_setup()
    chain = make_chain(s.lattice, [(Fraction(3, 10), G2), (Fraction(7, 10), G1)])
    edgeless = DecoratedForest.from_edge_list(chain.to_monomial(), [])
    assert multilink_forest(chain, edgeless, s.z, s.lattice.surface) == 1


def test_multilink_forest_one_edge():
    s = build_setup()
    surface = s.lattice.surface
    matched = make_chain(s.lattice, [(Fraction(3, 10), G2), (Fraction(7, 10), G1)])
    edge = DecoratedForest.from_edge_list(matched.to_monomial(), [(0, 1)])
    assert multilink_forest(matched, edge, s.z, surface) == 0
    reversed_ = make_chain(s.lattice, [(Fraction(3, 10), G1), (Fraction(7, 10), G2)])
    edge = DecoratedForest.from_edge_list(reversed_.to_monomial(), [(0, 1)])
    assert multilink_forest(reversed_, edge, s.z, surface) == 1


def test_multilink_forest_vertex_mismatch():
    s = build_setup()
    chain = make_chain(s.lattice, [(Fraction(3, 10), G2), (Fraction(7, 10), G1)])
    wrong = DecoratedForest.from_edge_list((G1, G2), [])
    with pytest.raises(ValidationError):
        multilink_forest(chain, wrong, s.z, s.lattice.surface)


def test_multilink_total_examples():
    s = build_setup()
    surface = s.lattice.surface
    single = make_chain(s.lattice, [(Fraction(1, 2), G1)])
    assert multilink_total(single, s.z, surface) == 1
    matched = make_chain(s.lattice, [(Fraction(3, 10), G2), (Fraction(7, 10), G1)])
    assert multilink_total(matched, s.z, surface) == 1
    reversed_ = make_chain(s.lattice, [(Fraction(3, 10), G1), (Fraction(7, 10), G2)])
    assert multilink_total(reversed_, s.z, surface) == 2


@pytest.mark.parametrize("genus", [0, 2])
def test_multilink_total_checks_the_surface_against_every_vertex(genus):
    # primitive.scn's phase-ordered chain reads no pairing, and its reversed
    # chain reads one; both reject a surface of the wrong genus alike
    s = build_setup()
    for items in ([(Fraction(3, 10), G2), (Fraction(7, 10), G1)],
                  [(Fraction(3, 10), G1), (Fraction(7, 10), G2)]):
        chain = make_chain(s.lattice, items)
        with pytest.raises(ValidationError, match=SURFACE_MESSAGE):
            multilink_total(chain, s.z, SurfaceModel.standard(genus))


def test_multilink_total_checks_z_against_every_vertex():
    # a one-vertex chain has no pair, yet a central charge of the wrong rank
    # is rejected
    s = build_setup()
    single = make_chain(s.lattice, [(Fraction(1, 2), G1)])
    with pytest.raises(ValidationError, match=RANK_MESSAGE):
        multilink_total(single, WRONG_RANK_Z, s.lattice.surface)
    # each vertex is checked in height order, its charge before its boundary
    short = ChainVertex(Fraction(1, 4), G1, (1,))
    wide = ChainVertex(Fraction(3, 4), Charge((1, 0, 0)), (1, 0))
    with pytest.raises(ValidationError, match=SURFACE_MESSAGE):
        multilink_total(NiceChain((wide, short)), s.z, s.lattice.surface)
    both = ChainVertex(Fraction(1, 4), Charge((1, 0, 0)), (1,))
    with pytest.raises(ValidationError, match=RANK_MESSAGE):
        multilink_total(NiceChain((both,)), s.z, s.lattice.surface)


def test_multilink_total_phase_ordered_chain():
    # heights matching the clockwise phase order kill every edge
    s = build_setup()
    chain = make_chain(
        s.lattice,
        [(Fraction(1, 4), G2), (Fraction(1, 2), G1 + G2), (Fraction(3, 4), G1)],
    )
    assert multilink_total(chain, s.z, s.lattice.surface) == 1


# The cutoff-2 cone letters of build_setup in clockwise phase order: a chain
# that carries them in this order up the heights has every link zero.
PHASE_ORDERED_LETTERS = (G2, 2 * G2, G1 + G2, G1, 2 * G1)
DEGENERATE_Z = CentralCharge(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))


def _oracle_geometry(kind: str, s) -> tuple[CentralCharge, SurfaceModel]:
    """The central charge and surface an oracle spec names: the setup's own,
    Z on one line (every pair parallel), Z of the wrong rank, or a surface
    of the wrong genus."""
    return {
        "setup": (s.z, s.lattice.surface),
        "degenerate": (DEGENERATE_Z, s.lattice.surface),
        "wrong-rank z": (WRONG_RANK_Z, s.lattice.surface),
        "wrong-genus surface": (s.z, SurfaceModel.standard(2)),
    }[kind]


@st.composite
def _chain_specs(draw):
    """(letter indices, Lehmer code, heights, geometry): vertex i in height
    order carries the letter at position perm[i] of the sorted letters, and
    sum(lehmer) is the number of inverted vertex pairs.  Six vertices come
    only from an explicit example: the oracle takes about 0.5 s there.  The
    wrong geometries come only from explicit examples with two or more
    vertices: a one-vertex chain's oracle sums the empty forest alone and
    reads no vertex."""
    n = draw(st.integers(1, 5))
    letters = sorted(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    lehmer = [draw(st.integers(0, n - 1 - i)) for i in range(n)]
    heights = draw(
        st.lists(
            st.fractions(0, 1, max_denominator=60).filter(lambda t: 0 < t < 1),
            min_size=n, max_size=n, unique=True,
        )
    )
    return letters, lehmer, heights, draw(st.sampled_from(("setup", "degenerate")))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WallcrossError as exc:
        return type(exc), str(exc)


@settings(max_examples=30)
@given(_chain_specs())
@example(([0, 1, 2, 2, 3, 4], [5, 4, 3, 2, 1, 0], [Fraction(k, 7) for k in range(1, 7)], "setup"))
@example(([0, 3], [0, 0], [Fraction(1, 3), Fraction(2, 3)], "degenerate"))
@example(([0, 3], [0, 0], [Fraction(1, 3), Fraction(2, 3)], "wrong-genus surface"))
@example(([0, 1, 2, 3, 4], [0, 0, 0, 0, 0], [Fraction(k, 6) for k in range(1, 6)], "wrong-genus surface"))
@example(([0, 3], [1, 0], [Fraction(1, 3), Fraction(2, 3)], "wrong-rank z"))
@example(([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [Fraction(k, 6) for k in range(1, 6)], "wrong-rank z"))
def test_multilink_total_matches_forest_oracle(spec):
    letters, lehmer, heights, kind = spec
    s = build_setup()
    z, surface = _oracle_geometry(kind, s)
    pool = list(letters)
    word = [PHASE_ORDERED_LETTERS[pool.pop(c)] for c in lehmer]
    chain = make_chain(s.lattice, zip(sorted(heights), word))
    # one reading of the chain's vertices, each vertex's Z once, and no link
    # call: the table is read straight off the readings
    with mock.patch.object(multidisk, "link", wraps=multidisk.link) as linked, \
            mock.patch.object(multidisk, "_readings", wraps=multidisk._readings) as read, \
            mock.patch.object(CentralCharge, "evaluate") as evaluated, \
            mock.patch.object(multidisk, "multilink_forest") as per_forest, \
            mock.patch.object(multidisk, "enumerate_forests") as forests, \
            mock.patch.object(DecoratedForest, "__post_init__") as built:
        fast = _outcome(multilink_total, chain, z, surface)
    linked.assert_not_called()
    read.assert_called_once()
    assert read.call_args.args[0] == chain.vertices
    evaluated.assert_not_called()
    per_forest.assert_not_called()
    forests.assert_not_called()
    built.assert_not_called()

    def oracle():
        return sum(
            multilink_forest(chain, f, z, surface)
            for f in enumerate_forests(chain.to_monomial())
        )

    assert fast == _outcome(oracle)
    if kind.startswith("wrong"):
        assert fast[0] is ValidationError


@pytest.mark.parametrize(
    "letters, total",
    [((0, 1, 2, 3, 3, 4, 4), 1), ((4, 4, 3, 3, 2, 1, 0), Fraction(60896, 45))],
    ids=["phase-ordered", "reversed"],
)
def test_multilink_total_seven_vertex_chains(letters, total):
    # past the forest oracle's reach; both totals were computed by walking
    # every forest
    s = build_setup()
    word = [PHASE_ORDERED_LETTERS[i] for i in letters]
    chain = make_chain(s.lattice, zip((Fraction(k, 8) for k in range(1, 8)), word))
    assert multilink_total(chain, s.z, s.lattice.surface) == total


# -- crossing rewrite ----------------------------------------------------------


def test_crossing_rewrite_example():
    s = build_setup()
    chain = make_chain(s.lattice, [(Fraction(3, 10), G1), (Fraction(7, 10), G2)])
    combo = crossing_rewrite(chain, 0, s.lattice.surface)
    swapped = make_chain(
        s.lattice, [(Fraction(3, 10), G2), (Fraction(7, 10), G1)]
    )
    merged = make_chain(s.lattice, [(Fraction(1, 2), G1 + G2)])
    assert combo == ChainCombination({swapped: Fraction(1), merged: Fraction(1)})


def test_crossing_rewrite_zero_pairing():
    s = build_setup()
    chain = make_chain(s.lattice, [(Fraction(1, 5), G1), (Fraction(2, 5), 2 * G1)])
    combo = crossing_rewrite(chain, 0, s.lattice.surface)
    swapped = make_chain(s.lattice, [(Fraction(1, 5), 2 * G1), (Fraction(2, 5), G1)])
    assert combo == ChainCombination.from_chain(swapped)


def test_crossing_rewrite_position_errors():
    s = build_setup()
    chain = make_chain(s.lattice, [(Fraction(1, 3), G1), (Fraction(2, 3), G2)])
    with pytest.raises(ValidationError):
        crossing_rewrite(chain, 1, s.lattice.surface)
    with pytest.raises(ValidationError):
        crossing_rewrite(chain, -1, s.lattice.surface)


@pytest.mark.parametrize("j", [0.0, True], ids=["float", "bool"])
def test_crossing_rewrite_position_is_an_int(j):
    s = build_setup()
    chain = make_chain(s.lattice, [(Fraction(1, 3), G1), (Fraction(2, 3), G2)])
    with pytest.raises(ValidationError, match=f"rewrite position must be integers, got {j}"):
        crossing_rewrite(chain, j, s.lattice.surface)


def random_chain(s, rng, members, size):
    thetas = rng.sample(range(1, 100), size)
    return make_chain(
        s.lattice,
        [(Fraction(t, 100), rng.choice(members)) for t in thetas],
    )


def test_crossing_rewrite_intertwines_with_algebra():
    # image in the algebra is unchanged by any single rewrite step
    s = build_setup(cutoff=8)
    alg = PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc)
    members = (G1, G2, G1 + G2, 2 * G1, 2 * G2)
    rng = random.Random(17)
    for _ in range(40):
        chain = random_chain(s, rng, members, rng.randrange(2, 5))
        for j in range(len(chain) - 1):
            combo = crossing_rewrite(chain, j, s.lattice.surface)
            assert combination_to_algebra(alg, combo) == chain_to_algebra(alg, chain)


def sort_chain(combination, alg, surface, pick_last):
    # repeatedly rewrite a height-adjacent pair that is out of phase order
    order = alg.order
    pending = combination
    while True:
        progress = None
        for chain, coeff in pending.terms():
            word = [order.position(ch) for ch in chain.to_monomial()]
            descents = [j for j in range(len(word) - 1) if word[j] > word[j + 1]]
            if descents:
                progress = (chain, coeff, descents[-1] if pick_last else descents[0])
                break
        if progress is None:
            return pending
        chain, coeff, j = progress
        rest = ChainCombination(
            {c: x for c, x in pending.terms() if c != chain}
        )
        pending = rest + coeff * crossing_rewrite(chain, j, surface)


def test_sorting_paths_agree_in_algebra():
    s = build_setup(cutoff=8)
    alg = PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc)
    members = (G1, G2, G1 + G2, 2 * G1, 2 * G2)
    rng = random.Random(29)
    for _ in range(10):
        chain = random_chain(s, rng, members, rng.randrange(3, 5))
        start = ChainCombination.from_chain(chain)
        left = sort_chain(start, alg, s.lattice.surface, pick_last=False)
        right = sort_chain(start, alg, s.lattice.surface, pick_last=True)
        image_left = combination_to_algebra(alg, left)
        image_right = combination_to_algebra(alg, right)
        assert image_left == image_right
        assert image_left == chain_to_algebra(alg, chain)
        for sorted_chain, _ in left.terms() + right.terms():
            word = [alg.order.position(ch) for ch in sorted_chain.to_monomial()]
            assert word == sorted(word)
