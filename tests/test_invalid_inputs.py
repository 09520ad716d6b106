"""Every invalid input ends in its WallcrossError subclass, with its message.

One row per raise site: a call, the exact error class it raises and a
fragment of the message.  The rows of the shared readers (`lattice._sequence`
through `_integers` and `multidisk._charges`, and the scenario parser's `_row`
and `_matrix` with the integer token parser, once per caller) pin the whole
message."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from conftest import build_setup
from wallcross import cli
from wallcross.algebra import BracketMode, PbwAlgebra, Spectrum
from wallcross.engine import (
    StabilityStructure,
    VariationPath,
    check_variation,
    detect_walls,
    transport_spectrum,
)
from wallcross.errors import ReconstructionError, ValidationError, WallcrossError
from wallcross.lattice import (
    CentralCharge,
    Charge,
    ChargeLattice,
    QuadraticForm,
    Sector,
    SurfaceModel,
    TruncationSet,
    charges_parallel,
    cone_enumerate,
    cross,
    phase_precedes,
    wall_first_type,
    wall_second_type,
)
from wallcross.multidisk import (
    ChainCombination,
    ChainVertex,
    DecoratedForest,
    crossing_rewrite,
    link,
    make_chain,
    multilink_forest,
    multilink_total,
)
from wallcross.refinement import (
    CohomologyAction,
    QuadraticRefinement,
    all_refinements,
    covariant_spectrum,
    to_twisted,
    twist_spectrum,
)
from wallcross.scenario import format_scenario, parse_scenario

CROSSING = (Path(__file__).resolve().parent.parent / "scenarios" / "crossing.scn").read_text(encoding="utf-8")


def _algebra():
    s = build_setup()
    return PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc)


def _product_across_algebras():
    plain = _algebra()
    plain.multiply(plain.one(), plain.with_mode(BracketMode.TWISTED).one())


def _rank3_members():
    s = build_setup()
    PbwAlgebra(s.lattice, CentralCharge(((1, 0, 0), (0, 1, 0))), s.q, s.sector, s.trunc,
               members=(s.g1,))


def _members(members):
    s = build_setup()
    return PbwAlgebra(s.lattice, s.z, s.q, s.sector, s.trunc, members=members)


def _members_with_q(q):
    def build():
        s = build_setup()
        PbwAlgebra(s.lattice, s.z, q, s.sector, s.trunc, members=(s.g1,))
    return build


def _chain():
    s = build_setup()
    return make_chain(s.lattice, [(Fraction(1, 3), (1, 0)), (Fraction(2, 3), (0, 1))])


def _sigma():
    return QuadraticRefinement(SurfaceModel.standard(1), (1, 1))


def _foreign_sigma():
    """A refinement of another genus-1 form than the lattice's surface."""
    return QuadraticRefinement(SurfaceModel(((0, 2), (-2, 0))), (1, 1))


def _wall_second_type(beta, cutoff=2):
    s = build_setup(cutoff=cutoff)
    return wall_second_type(s.lattice, s.z, s.q, s.sector, beta, s.trunc)


def _factorize_non_product():
    alg = _algebra()
    g1 = alg.generator(Charge((1, 0)))
    alg.factorize(alg.one() + g1 * g1)


def _cone_with_rank3_q():
    s = build_setup()
    cone_enumerate(s.lattice, s.z, QuadraticForm(((1, 0, 0), (0, 1, 0), (0, 0, 1))), s.sector, s.trunc)


def _walls_at_zero_tolerance():
    s = build_setup()
    detect_walls(VariationPath((s.z, s.z)), (s.g1, s.g2), s.sector, tolerance=0)


def _structure(refinement=None):
    s = build_setup()
    return StabilityStructure(s.lattice, s.z, s.q, s.sector, s.trunc, Spectrum({s.g1: 1}),
                              refinement=refinement)


def _constant_path():
    s = build_setup()
    return VariationPath((s.z, s.z))


def _scenario(old: str, new: str):
    def parse():
        assert old in CROSSING
        parse_scenario(CROSSING.replace(old, new, 1))
    return parse


def _chains(line: str):
    return lambda: parse_scenario(CROSSING + f"\n[chains]\nchain = {line}\n")


CASES = {
    # algebra
    "mode-coerce": (
        lambda: BracketMode.coerce("x"),
        ValidationError, "unknown bracket mode 'x'"),
    "spectrum-tuple-key": (
        lambda: Spectrum({(1, 0): 1}),
        ValidationError, "spectrum keys must be charges, got (1, 0)"),
    "ray-product-outside-cone": (
        lambda: _algebra().ray_product(Spectrum({Charge((5, 5)): 1})),
        ValidationError, "spectrum support outside the truncated cone: Charge(5, 5)"),
    "multiply-across-algebras": (
        _product_across_algebras,
        ValidationError, "element belongs to a different algebra"),
    "coefficient-of-ints": (
        lambda: _algebra().one().coefficient((0,)),
        ValidationError, "coefficient expects a word of charges"),
    "members-with-rank3-z": (
        _rank3_members,
        ValidationError, "central charge / quadratic form rank must match the lattice"),
    "members-with-q-none": (
        _members_with_q(None),
        ValidationError, "q must be a QuadraticForm, got None"),
    "members-with-q-junk": (
        _members_with_q("junk"),
        ValidationError, "q must be a QuadraticForm, got 'junk'"),
    "members-with-rank1-q": (
        _members_with_q(QuadraticForm(((1,),))),
        ValidationError, "central charge / quadratic form rank must match the lattice"),
    "factorize-non-product": (
        _factorize_non_product,
        ReconstructionError, "element is not a clockwise sector product"),
    "members-int": (
        lambda: _members(5),
        ValidationError, "members must be a sequence of charges, got 5"),
    "members-repeated": (
        lambda: _members((build_setup().g1, build_setup().g1)),
        ValidationError, "members must not repeat a charge"),
    "coefficient-int": (
        lambda: _algebra().one().coefficient(5),
        ValidationError, "word must be a sequence of charges, got 5"),
    "normal-form-int": (
        lambda: _algebra().normal_form(5),
        ValidationError, "word must be a sequence of charges, got 5"),
    "element-plus-int": (
        lambda: _algebra().one() + 5,
        ValidationError, "other must be an AlgebraElement, got 5"),
    "element-minus-none": (
        lambda: _algebra().one() - None,
        ValidationError, "other must be an AlgebraElement, got None"),
    "multiply-left-none": (
        lambda: _algebra().multiply(None, _algebra().one()),
        ValidationError, "left must be an AlgebraElement, got None"),
    "multiply-right-none": (
        lambda: _algebra().multiply(_algebra().one(), None),
        ValidationError, "right must be an AlgebraElement, got None"),
    "exponential-none": (
        lambda: _algebra().exponential(None),
        ValidationError, "x must be an AlgebraElement, got None"),
    "factorize-none": (
        lambda: _algebra().factorize(None),
        ValidationError, "element must be an AlgebraElement, got None"),
    "convert-none": (
        lambda: _algebra().convert(None),
        ValidationError, "element must be an AlgebraElement, got None"),
    "from-terms-int": (
        lambda: _algebra().from_terms(5),
        ValidationError, "terms must be a Mapping, got 5"),
    "from-terms-int-word": (
        lambda: _algebra().from_terms({5: 1}),
        ValidationError, "word must be a sequence of charges, got 5"),
    "from-terms-none-word": (
        lambda: _algebra().from_terms({None: 1}),
        ValidationError, "word must be a sequence of charges, got None"),
    "ray-product-of-a-dict": (
        lambda: _algebra().ray_product({}),
        ValidationError, "spectrum must be a Spectrum, got {}"),
    "generator-of-a-list": (
        lambda: _algebra().generator([1, 0]),
        ValidationError, "charge must be a Charge, got [1, 0]"),
    "structure-constant-list-a": (
        lambda: _algebra().structure_constant([1, 0], Charge((0, 1))),
        ValidationError, "a must be a Charge, got [1, 0]"),
    "structure-constant-tuple-b": (
        lambda: _algebra().structure_constant(Charge((1, 0)), (0, 1)),
        ValidationError, "b must be a Charge, got (0, 1)"),
    "normal-form-list-letter": (
        lambda: _algebra().normal_form([[1, 0]]),
        ValidationError, "a letter of word must be a Charge, got [1, 0]"),
    "from-terms-tuple-letter": (
        lambda: _algebra().from_terms({((1, 0),): 1}),
        ValidationError, "a letter of word must be a Charge, got (1, 0)"),
    "spectrum-coefficient-list": (
        lambda: Spectrum({Charge((1, 0)): 1}).coefficient([1, 0]),
        ValidationError, "charge must be a Charge, got [1, 0]"),
    "spectrum-coefficient-tuple": (
        lambda: Spectrum({Charge((1, 0)): 1}).coefficient((1, 0)),
        ValidationError, "charge must be a Charge, got (1, 0)"),
    "spectrum-coefficient-none": (
        lambda: Spectrum({}).coefficient(None),
        ValidationError, "charge must be a Charge, got None"),
    "spectrum-restrict-int": (
        lambda: Spectrum({}).restrict(5),
        ValidationError, "keep must be a Callable, got 5"),
    # lattice
    "surface-odd": (
        lambda: SurfaceModel(((0,),)),
        ValidationError, "intersection matrix must have even dimension"),
    "surface-not-square": (
        lambda: SurfaceModel(((0, 1), (-1,))),
        ValidationError, "intersection matrix must be square"),
    "surface-not-skew": (
        lambda: SurfaceModel(((0, 1), (1, 0))),
        ValidationError, "intersection matrix must be skew-symmetric"),
    "pairing-length": (
        lambda: SurfaceModel.standard(1).pairing_h1((1,), (0, 1)),
        ValidationError, "homology vector length does not match surface"),
    "lattice-rank-0": (
        lambda: ChargeLattice(0, (), SurfaceModel.standard(0)),
        ValidationError, "lattice rank must be positive"),
    "lattice-short-row": (
        lambda: ChargeLattice(2, ((1, 0), (0,)), SurfaceModel.standard(1)),
        ValidationError, "boundary matrix row length must equal the lattice rank"),
    "central-charge-3-rows": (
        lambda: CentralCharge(((1, 0), (0, 1), (1, 1))),
        ValidationError, "central charge matrix must have exactly two rows"),
    "central-charge-evaluate-length": (
        lambda: build_setup().z.evaluate((1, 2, 3)),
        ValidationError, "charge length does not match central charge rank"),
    "form-not-square": (
        lambda: QuadraticForm(((1, 0), (0,))),
        ValidationError, "quadratic form matrix must be square"),
    "form-not-symmetric": (
        lambda: QuadraticForm(((1, 2), (0, 1))),
        ValidationError, "quadratic form matrix must be symmetric"),
    "form-evaluate-length": (
        lambda: build_setup().q.evaluate((1, 2, 3)),
        ValidationError, "charge length does not match quadratic form rank"),
    "sector-contains-none": (
        lambda: build_setup().sector.contains(None),
        ValidationError, "v must be a pair of rationals, got None"),
    "sector-contains-one-entry": (
        lambda: build_setup().sector.contains((1,)),
        ValidationError, "v must be a pair of rationals, got (1,)"),
    "truncation-height-none": (
        lambda: build_setup().trunc.height(None),
        ValidationError, "z_value must be a pair of rationals, got None"),
    "truncation-zero-on-a-ray": (
        lambda: TruncationSet((1, 0), 2, 4).validate_for(Sector((0, 1), (1, 1))),
        ValidationError, "truncation covector must be positive on the closed sector"),
    "truncation-validate-for-none": (
        lambda: build_setup().trunc.validate_for(None),
        ValidationError, "sector must be a Sector, got None"),
    "scan-box-0": (
        lambda: TruncationSet((0, 1), 2, 0),
        ValidationError, "scan_box must be a positive integer"),
    "cone-rank3-q": (
        _cone_with_rank3_q,
        ValidationError, "central charge / quadratic form rank must match the lattice"),
    "charge-add-rank": (
        lambda: Charge((1, 0)) + Charge((1, 0, 0)),
        ValidationError, "charges of different rank: Charge(1, 0) and Charge(1, 0, 0)"),
    "charge-sub-rank": (
        lambda: Charge((1, 0, 0)) - Charge((1, 0)),
        ValidationError, "charges of different rank: Charge(1, 0, 0) and Charge(1, 0)"),
    "charge-add-tuple": (
        lambda: Charge((1, 0)) + (1, 0),
        ValidationError, "charge arithmetic needs a charge, got (1, 0)"),
    "charge-sub-tuple": (
        lambda: Charge((1, 0)) - (1, 0),
        ValidationError, "charge arithmetic needs a charge, got (1, 0)"),
    "charge-radd-tuple": (
        lambda: (1, 0) + Charge((1, 0)),
        ValidationError, "charge arithmetic needs a charge, got (1, 0)"),
    "charge-rsub-tuple": (
        lambda: (1, 0) - Charge((1, 0)),
        ValidationError, "charge arithmetic needs a charge, got (1, 0)"),
    "charge-sum-from-int": (
        lambda: sum([Charge((1, 0))]),
        ValidationError, "charge arithmetic needs a charge, got 0"),
    "charge-times-fraction": (
        lambda: Charge((1, 0)) * Fraction(1, 2),
        ValidationError, "charge multiplier must be an integer, got Fraction(1, 2)"),
    "integral-fraction-times-charge": (
        lambda: Fraction(2) * Charge((1, 2)),
        ValidationError, "charge multiplier must be an integer, got Fraction(2, 1)"),
    "charge-times-bool": (
        lambda: Charge((1, 2)) * True,
        ValidationError, "charge multiplier must be an integer, got True"),
    "bool-times-charge": (
        lambda: True * Charge((1, 2)),
        ValidationError, "charge multiplier must be an integer, got True"),
    "charge-times-charge": (
        lambda: Charge((1, 2)) * Charge((1, 2)),
        ValidationError, "charge multiplier must be an integer, got Charge(1, 2)"),
    "parallel-of-none": (
        lambda: charges_parallel(None, Charge((1, 2))),
        ValidationError, "charge arithmetic needs a charge, got None"),
    "first-type-z-none": (
        lambda: wall_first_type(None, (Charge((1, 0)),)),
        ValidationError, "z must be a CentralCharge, got None"),
    "second-type-beta-none": (
        lambda: _wall_second_type(None),
        ValidationError, "beta must be a charge of lattice rank 2, got None"),
    "second-type-beta-none-on-an-empty-cone": (
        lambda: _wall_second_type(None, cutoff=0),
        ValidationError, "beta must be a charge of lattice rank 2, got None"),
    "second-type-beta-tuple": (
        lambda: _wall_second_type((1, 1)),
        ValidationError, "beta must be a charge of lattice rank 2, got (1, 1)"),
    "second-type-beta-rank-3": (
        lambda: _wall_second_type(Charge((1, 1, 0))),
        ValidationError, "beta must be a charge of lattice rank 2, got Charge(1, 1, 0)"),
    "integers-not-a-sequence": (
        lambda: Charge(5),
        ValidationError, "charge coordinates must be a sequence of integers, got 5"),
    # multidisk
    "forest-unequal-halves": (
        lambda: DecoratedForest((Charge((1, 0)),) * 2, (0, 1), (1,)),
        ValidationError, "every half-edge needs an attachment and a partner"),
    "forest-charges-not-a-sequence": (
        lambda: DecoratedForest(5, (), ()),
        ValidationError, "vertex decorations must be a sequence of charges, got 5"),
    "chain-vertex-tuple-charge": (
        lambda: ChainVertex(Fraction(1, 2), (1, 0), (1, 0)),
        ValidationError, "chain vertex needs a charge, got (1, 0)"),
    "chain-vertex-height-0": (
        lambda: ChainVertex(Fraction(0), Charge((1, 0)), (1, 0)),
        ValidationError, "chain heights live strictly between 0 and 1"),
    "chain-vertex-height-1": (
        lambda: ChainVertex(Fraction(1), Charge((1, 0)), (1, 0)),
        ValidationError, "chain heights live strictly between 0 and 1"),
    "make-chain-lattice-none": (
        lambda: make_chain(None, [(Fraction(1, 2), (1, 0))]),
        ValidationError, "lattice must be a ChargeLattice, got None"),
    "link-vertex-int": (
        lambda: link(5, _chain().vertices[1], build_setup().z, SurfaceModel.standard(1)),
        ValidationError, "v1 must be a ChainVertex, got 5"),
    "multilink-forest-none": (
        lambda: multilink_forest(_chain(), None, build_setup().z, SurfaceModel.standard(1)),
        ValidationError, "forest must be a DecoratedForest, got None"),
    "multilink-total-chain-none": (
        lambda: multilink_total(None, build_setup().z, SurfaceModel.standard(1)),
        ValidationError, "chain must be a NiceChain, got None"),
    "chain-combination-plus-int": (
        lambda: ChainCombination() + 5,
        ValidationError, "other must be a ChainCombination, got 5"),
    "crossing-rewrite-surface-int": (
        lambda: crossing_rewrite(_chain(), 0, 5),
        ValidationError, "surface must be a SurfaceModel, got 5"),
    # refinement
    "refinement-surface-none": (
        lambda: QuadraticRefinement(None, (1, 1)),
        ValidationError, "refinement surface must be a SurfaceModel, got None"),
    "all-refinements-none": (
        lambda: all_refinements(None),
        ValidationError, "surface must be a SurfaceModel, got None"),
    "action-evaluate-length": (
        lambda: CohomologyAction((1, 0)).evaluate((1, 0, 0)),
        ValidationError, "homology vector length does not match action"),
    "action-apply-length": (
        lambda: CohomologyAction((1,)).apply(QuadraticRefinement(SurfaceModel.standard(1), (1, 1))),
        ValidationError, "action length does not match surface"),
    "action-apply-none": (
        lambda: CohomologyAction((1, 0)).apply(None),
        ValidationError, "sigma must be a QuadraticRefinement, got None"),
    "twist-spectrum-sigma-none": (
        lambda: twist_spectrum(None, build_setup().lattice, Spectrum({})),
        ValidationError, "sigma must be a QuadraticRefinement, got None"),
    "twist-spectrum-foreign-surface": (
        lambda: twist_spectrum(_foreign_sigma(), build_setup().lattice, Spectrum({})),
        ValidationError, "refinement surface does not match the lattice"),
    "covariant-spectrum-of-a-dict": (
        lambda: covariant_spectrum(CohomologyAction((1, 0)), build_setup().lattice, {}),
        ValidationError, "spectrum must be a Spectrum, got {}"),
    "to-twisted-element-int": (
        lambda: to_twisted(_sigma(), 5),
        ValidationError, "element must be an AlgebraElement, got 5"),
    "to-twisted-foreign-surface": (
        lambda: to_twisted(_foreign_sigma(), _algebra().one()),
        ValidationError, "refinement surface does not match the lattice"),
    # scenario, on crossing.scn
    "format-scenario-none": (
        lambda: format_scenario(None),
        ValidationError, "sc must be a Scenario, got None"),
    "scenario-text-not-a-str": (
        lambda: parse_scenario(5),
        ValidationError, "scenario text must be a str, got 5"),
    "scenario-empty-matrix-row": (
        _scenario("matrix = -3 -1 ; 1 1", "matrix = -3 -1 ;"),
        ValidationError, "line 13: empty vector"),
    "scenario-empty-int-row": (
        _scenario("boundary = 1 0 ; 0 1", "boundary = 1 0 ; ; 0 1"),
        ValidationError, "line 7: empty vector"),
    "scenario-int-token": (
        _scenario("boundary = 1 0 ; 0 1", "boundary = 1 0 ; 0 1/2"),
        ValidationError, "line 7: expected an integer, got '1/2'"),
    "scenario-rational-past-int-digit-limit": (
        _scenario("cutoff = 2", "cutoff = " + "1" * 5000),
        ValidationError, "line 25: malformed rational '111"),
    "scenario-int-past-int-digit-limit": (
        _scenario("boundary = 1 0 ; 0 1", "boundary = 1 0 ; 0 " + "1" * 5000),
        ValidationError, "line 7: expected an integer, got '111"),
    "scenario-int-intersection": (
        _scenario("genus = 1", "genus = 1\nintersection = 0 1 ; -1 x"),
        ValidationError, "line 11: expected an integer, got 'x'"),
    "scenario-int-entry": (
        _scenario("entry = 1 0 : 1", "entry = 1 0.5 : 1"),
        ValidationError, "line 32: expected an integer, got '0.5'"),
    "scenario-int-signs": (
        _scenario("signs = 1 1", "signs = 1 +"),
        ValidationError, "line 36: expected an integer, got '+'"),
    "scenario-3-entry-direction": (
        _scenario("start = -5 1", "start = -5 1 0"),
        ValidationError, "line 20: sector directions live in the plane"),
    "scenario-3-entry-covector": (
        _scenario("covector = 0 1", "covector = 0 1 0"),
        ValidationError, "line 24: truncation covector lives in the plane"),
    "scenario-chain-item-without-colon": (
        _chains("1/2 1 0"),
        ValidationError, "line 39: chain item needs '<height> : <coords>'"),
    "scenario-chain-int-coords": (
        _chains("1/2 : 1 z"),
        ValidationError, "line 39: expected an integer, got 'z'"),
    "scenario-rank3-keyframe": (
        _scenario("keyframe = 1 -1 ; 1 1", "keyframe = 1 -1 0 ; 1 1 0"),
        ValidationError, "line 12: keyframe rank must match the lattice"),
    # engine and cli
    "path-int": (
        lambda: VariationPath(5),
        ValidationError, "keyframes must be a sequence of central charges, got 5"),
    "path-none": (
        lambda: VariationPath(None),
        ValidationError, "keyframes must be a sequence of central charges, got None"),
    "walls-sector-none": (
        lambda: detect_walls(_constant_path(), (Charge((1, 0)),), None),
        ValidationError, "sector must be a Sector, got None"),
    "walls-path-none": (
        lambda: detect_walls(None, (Charge((1, 0)),), build_setup().sector),
        ValidationError, "path must be a VariationPath, got None"),
    "structure-foreign-surface": (
        lambda: _structure(refinement=_foreign_sigma()),
        ValidationError, "refinement surface does not match the lattice"),
    "structure-refinement-int": (
        lambda: _structure(refinement=5),
        ValidationError, "refinement must be a QuadraticRefinement, got 5"),
    "transport-structure-none": (
        lambda: transport_spectrum(None, build_setup().z),
        ValidationError, "struct must be a StabilityStructure, got None"),
    "variation-path-none": (
        lambda: check_variation(None, _structure()),
        ValidationError, "path must be a VariationPath, got None"),
    "variation-structure-none": (
        lambda: check_variation(_constant_path(), None),
        ValidationError, "struct must be a StabilityStructure, got None"),
    "walls-zero-tolerance": (
        _walls_at_zero_tolerance,
        ValidationError, "tolerance must be positive"),
    "cross-none": (
        lambda: cross(None, (1, 2)),
        ValidationError, "u must be a pair of rationals, got None"),
    "cross-one-tuple": (
        lambda: cross((1, 2), (1,)),
        ValidationError, "v must be a pair of rationals, got (1,)"),
    "cross-float": (
        lambda: cross((Fraction(1, 2), 1), (0.5, 2)),
        ValidationError, "exact rational expected, got float 0.5"),
    "cross-none-entry": (
        lambda: cross((1, None), (1, 2)),
        ValidationError, "exact rational expected, got None"),
    "phase-precedes-none": (
        lambda: phase_precedes((1, 2), None),
        ValidationError, "v must be a pair of rationals, got None"),
    "phase-precedes-triple": (
        lambda: phase_precedes((1, 2, 3), (1, 2)),
        ValidationError, "u must be a pair of rationals, got (1, 2, 3)"),
    "phase-precedes-float": (
        lambda: phase_precedes((1.0, 2), (1, 2)),
        ValidationError, "exact rational expected, got float 1.0"),
    "cli-unknown-command": (
        lambda: cli.run("bogus", parse_scenario(CROSSING)),
        ValidationError, "unknown command 'bogus'"),
}


@pytest.mark.parametrize("call, error, fragment", CASES.values(), ids=CASES.keys())
def test_invalid_input_raises_its_error(call, error, fragment):
    with pytest.raises(WallcrossError) as err:
        call()
    assert err.type is error
    assert fragment in str(err.value)
