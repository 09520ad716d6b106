"""Pin of the public API: the names in wallcross.__all__, the signature of
every exported function and class (the bases of the exception classes, the
members of the enum), and the public methods of the algebra classes.  A new
parameter or a renamed method fails here; update the pin only with an API
change that is meant."""

import enum
import inspect

import wallcross


def public_api() -> dict:
    api = {"__all__": sorted(wallcross.__all__)}
    for name in sorted(wallcross.__all__):
        obj = getattr(wallcross, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            api[name] = tuple(base.__name__ for base in obj.__bases__)
        elif isinstance(obj, type) and issubclass(obj, enum.Enum):
            api[name] = tuple((m.name, m.value) for m in obj)
        else:
            api[name] = str(inspect.signature(obj))
    for cls in (wallcross.PbwAlgebra, wallcross.AlgebraElement, wallcross.Spectrum):
        api[cls.__name__ + " methods"] = {
            name: str(inspect.signature(fn))
            for name, fn in sorted(vars(cls).items())
            if not name.startswith("_") and callable(fn)
        }
    return api


PINNED = {
    '__all__': ['AlgebraElement',
                'BracketMode',
                'CentralCharge',
                'ChainCombination',
                'ChainVertex',
                'Charge',
                'ChargeLattice',
                'CohomologyAction',
                'DecoratedForest',
                'FirstTypeWallError',
                'NiceChain',
                'PbwAlgebra',
                'QuadraticForm',
                'QuadraticRefinement',
                'ReconstructionError',
                'Scenario',
                'SecondTypeWallError',
                'Sector',
                'Spectrum',
                'SpectrumJump',
                'StabilityStructure',
                'SurfaceModel',
                'TruncationSet',
                'ValidationError',
                'VariationPath',
                'VariationReport',
                'WallEvent',
                'WallcrossError',
                'all_refinements',
                'charges_parallel',
                'check_variation',
                'cone_enumerate',
                'covariant_spectrum',
                'cross',
                'crossing_rewrite',
                'detect_walls',
                'enumerate_forests',
                'format_scenario',
                'link',
                'make_chain',
                'multilink_forest',
                'multilink_total',
                'parse_scenario',
                'phase_precedes',
                'to_twisted',
                'transport_spectrum',
                'twist_spectrum',
                'wall_first_type',
                'wall_second_type'],
    'AlgebraElement': "(algebra: 'PbwAlgebra', terms: 'dict[tuple[int, ...], Fraction]')",
    'BracketMode': (('PLAIN', 'plain'), ('TWISTED', 'twisted')),
    'CentralCharge': "(matrix: 'tuple[tuple[Fraction, ...], ...]') -> None",
    'ChainCombination': "(terms: 'Mapping[NiceChain, Fraction]' = ())",
    'ChainVertex': "(theta: 'Fraction', charge: 'Charge', boundary: 'tuple[int, ...]') -> None",
    'Charge': "(coords: 'Iterable[int]')",
    'ChargeLattice': ("(rank: 'int', boundary: 'tuple[tuple[int, ...], ...]', surface: "
                      "'SurfaceModel') -> None"),
    'CohomologyAction': "(bits: 'tuple[int, ...]') -> None",
    'DecoratedForest': ("(vertex_charges: 'tuple[Charge, ...]', attach: 'tuple[int, ...]', "
                        "involution: 'tuple[int, ...]') -> None"),
    'FirstTypeWallError': ('WallcrossError',),
    'NiceChain': "(vertices: 'tuple[ChainVertex, ...]') -> None",
    'PbwAlgebra': ("(lattice: 'ChargeLattice', z: 'CentralCharge', q: 'QuadraticForm', sector: "
                   "'Sector', trunc: 'TruncationSet', mode: 'BracketMode | str' = "
                   "<BracketMode.PLAIN: 'plain'>, members: 'Optional[tuple[Charge, ...]]' = "
                   'None)'),
    'QuadraticForm': "(matrix: 'tuple[tuple[Fraction, ...], ...]') -> None",
    'QuadraticRefinement': "(surface: 'SurfaceModel', basis_signs: 'tuple[int, ...]') -> None",
    'ReconstructionError': ('WallcrossError',),
    'Scenario': ("(lattice: 'ChargeLattice', z: 'CentralCharge', keyframes: "
                 "'tuple[CentralCharge, ...]', q: 'QuadraticForm', sector: 'Sector', trunc: "
                 "'TruncationSet', mode: 'BracketMode', spectrum: 'Spectrum', refinement: "
                 "'Optional[QuadraticRefinement]', chains: 'tuple[NiceChain, ...]') -> None"),
    'SecondTypeWallError': ('WallcrossError',),
    'Sector': "(start: 'Vec2', end: 'Vec2') -> None",
    'Spectrum': "(mapping: 'Mapping[Charge, Fraction]' = ())",
    'SpectrumJump': ("(t_lo: 'Fraction', t_hi: 'Fraction', before: 'Spectrum', after: "
                     "'Spectrum', witnesses: 'tuple[tuple[Charge, Charge], ...]') -> None"),
    'StabilityStructure': ("(lattice: 'ChargeLattice', z: 'CentralCharge', q: 'QuadraticForm', "
                           "sector: 'Sector', trunc: 'TruncationSet', spectrum: 'Spectrum', "
                           "mode: 'BracketMode' = <BracketMode.PLAIN: 'plain'>, refinement: "
                           "'Optional[QuadraticRefinement]' = None) -> None"),
    'SurfaceModel': "(intersection: 'tuple[tuple[int, ...], ...]') -> None",
    'TruncationSet': "(covector: 'Vec2', cutoff: 'Fraction', scan_box: 'int') -> None",
    'ValidationError': ('WallcrossError',),
    'VariationPath': "(keyframes: 'tuple[CentralCharge, ...]') -> None",
    'VariationReport': ("(initial: 'Spectrum', final: 'Spectrum', events: 'tuple[WallEvent, "
                        "...]', jumps: 'tuple[SpectrumJump, ...]') -> None"),
    'WallEvent': ("(t_lo: 'Fraction', t_hi: 'Fraction', kind: 'str', beta1: 'Charge', beta2: "
                  "'Charge') -> None"),
    'WallcrossError': ('Exception',),
    'all_refinements': "(surface: 'SurfaceModel') -> 'Iterator[QuadraticRefinement]'",
    'charges_parallel': "(b1: 'Charge', b2: 'Charge') -> 'bool'",
    'check_variation': ("(path: 'VariationPath', struct: 'StabilityStructure', tolerance: "
                        "'Fraction' = Fraction(1, 1024)) -> 'VariationReport'"),
    'cone_enumerate': ("(lattice: 'ChargeLattice', z: 'CentralCharge', q: 'QuadraticForm', "
                       "sector: 'Sector', trunc: 'TruncationSet') -> 'tuple[Charge, ...]'"),
    'covariant_spectrum': ("(action: 'CohomologyAction', lattice: 'ChargeLattice', spectrum: "
                           "'Spectrum') -> 'Spectrum'"),
    'cross': "(u, v) -> 'Fraction'",
    'crossing_rewrite': ("(chain: 'NiceChain', j: 'int', surface: 'SurfaceModel') -> "
                         "'ChainCombination'"),
    'detect_walls': ("(path: 'VariationPath', charges: 'Iterable[Charge]', sector: 'Sector', "
                     "tolerance: 'Fraction' = Fraction(1, 1024)) -> 'tuple[WallEvent, ...]'"),
    'enumerate_forests': "(vertex_charges: 'Sequence[Charge]') -> 'tuple[DecoratedForest, ...]'",
    'format_scenario': "(sc: 'Scenario') -> 'str'",
    'link': ("(v1: 'ChainVertex', v2: 'ChainVertex', z: 'CentralCharge', surface: "
             "'SurfaceModel') -> 'int'"),
    'make_chain': ("(lattice: 'ChargeLattice', items: 'Iterable[tuple[Fraction, Charge | "
                   "Sequence[int]]]') -> 'NiceChain'"),
    'multilink_forest': ("(chain: 'NiceChain', forest: 'DecoratedForest', z: 'CentralCharge', "
                         "surface: 'SurfaceModel') -> 'Fraction'"),
    'multilink_total': ("(chain: 'NiceChain', z: 'CentralCharge', surface: 'SurfaceModel') -> "
                        "'Fraction'"),
    'parse_scenario': "(text: 'str') -> 'Scenario'",
    'phase_precedes': "(u, v) -> 'bool'",
    'to_twisted': ("(sigma: 'QuadraticRefinement', element: 'AlgebraElement') -> "
                   "'AlgebraElement'"),
    'transport_spectrum': "(struct: 'StabilityStructure', z_new: 'CentralCharge') -> 'Spectrum'",
    'twist_spectrum': ("(sigma: 'QuadraticRefinement', lattice: 'ChargeLattice', spectrum: "
                       "'Spectrum') -> 'Spectrum'"),
    'wall_first_type': ("(z: 'CentralCharge', charges: 'Iterable[Charge]') -> "
                        "'Optional[tuple[Charge, Charge]]'"),
    'wall_second_type': ("(lattice: 'ChargeLattice', z: 'CentralCharge', q: 'QuadraticForm', "
                         "sector: 'Sector', beta: 'Charge', trunc: 'TruncationSet') -> "
                         "'Optional[tuple[Charge, Charge]]'"),
    'PbwAlgebra methods': {'convert': '(self, element: "\'AlgebraElement\'") -> '
                                      '"\'AlgebraElement\'"',
                           'exponential': '(self, x: "\'AlgebraElement\'") -> '
                                          '"\'AlgebraElement\'"',
                           'factorize': '(self, element: "\'AlgebraElement\'") -> \'Spectrum\'',
                           'from_terms': "(self, terms: 'Mapping[Sequence[Charge], Fraction]') "
                                         '-> "\'AlgebraElement\'"',
                           'generator': '(self, charge: \'Charge\') -> "\'AlgebraElement\'"',
                           'multiply': '(self, left: "\'AlgebraElement\'", right: '
                                       '"\'AlgebraElement\'") -> "\'AlgebraElement\'"',
                           'normal_form': "(self, word: 'Sequence[Charge]', coeff=1, strategy: "
                                          '\'str\' = \'leftmost\') -> "\'AlgebraElement\'"',
                           'one': '(self) -> "\'AlgebraElement\'"',
                           'ray_product': "(self, spectrum: 'Spectrum') -> "
                                          '"\'AlgebraElement\'"',
                           'structure_constant': "(self, a: 'Charge', b: 'Charge') -> 'int'",
                           'with_mode': "(self, mode: 'BracketMode | str') -> "
                                        '"\'PbwAlgebra\'"',
                           'zero': '(self) -> "\'AlgebraElement\'"'},
    'AlgebraElement methods': {'coefficient': "(self, word: 'Sequence[Charge]') -> 'Fraction'",
                               'is_zero': "(self) -> 'bool'",
                               'terms': "(self) -> 'list[tuple[tuple[Charge, ...], Fraction]]'"},
    'Spectrum methods': {'coefficient': "(self, charge: 'Charge') -> 'Fraction'",
                         'items': "(self) -> 'list[tuple[Charge, Fraction]]'",
                         'restrict': '(self, keep) -> "\'Spectrum\'"',
                         'support': "(self) -> 'tuple[Charge, ...]'"},
}


def test_public_api_is_pinned():
    assert public_api() == PINNED
