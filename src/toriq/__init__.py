"""toriq: exact-arithmetic toric geometry.

Fans and rational polytopes, intersection numbers on complete simplicial
toric data, Fano and second-Chern positivity scans, and the minimal model
program with scaling run as an operation on adjoint polytopes.  Every
computation is exact: integers and fractions only.
"""

from .fans import (Fan, fan_from_primitive_data, star_quotient, star_subdivision, validate,
                   walls, weakly_split)
from .intersection import (
    TorusDivisor,
    anticanonical,
    ch2_dot_surface,
    curve_number,
    div_char,
    is_2fano,
    is_fano,
)
from .polytopes import (
    FacetPresentation,
    adjoint,
    cayley_mori_build,
    cayley_mori_detect,
    core_and_projection,
    normal_fan,
    polytope_of_divisor,
    remove_redundant,
    thresholds,
    vertices,
)
from .mmp import run_mmp_scaling

__all__ = [
    "Fan",
    "FacetPresentation",
    "TorusDivisor",
    "adjoint",
    "anticanonical",
    "cayley_mori_build",
    "cayley_mori_detect",
    "ch2_dot_surface",
    "core_and_projection",
    "curve_number",
    "div_char",
    "fan_from_primitive_data",
    "is_2fano",
    "is_fano",
    "normal_fan",
    "polytope_of_divisor",
    "remove_redundant",
    "run_mmp_scaling",
    "star_quotient",
    "star_subdivision",
    "thresholds",
    "validate",
    "vertices",
    "walls",
    "weakly_split",
]

__version__ = "0.1.0"
