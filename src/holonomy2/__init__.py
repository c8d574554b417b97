"""Two-dimensional holonomy over finite topological models.

Finite topological spaces stand in for manifolds, partial
homeomorphisms for partial diffeomorphisms.  On top of that the
package builds crossed modules of groupoids, their edge-symmetric
double groupoids with connection, local linear sections and their
germs, and the holonomy groupoid of a windowed double groupoid,
together with its chart topology and universal property.
"""

from .fintop import FiniteTopSpace, PartialMap, TopologyError, is_continuous, is_partial_homeomorphism
from .groupoid import Groupoid, GroupoidMorphism, NormalSubgroupoid, GroupoidError, check_groupoid, check_groupoid_morphism, generated_subgroupoid, quotient
from .xmod import CrossedModule, XModMorphism, XModError, check_crossed_module, apply_action, check_xmod_morphism, find_xmod_isomorphism
from .dgpd import Square, DoubleGroupoid, build_double_groupoid, crossed_module_of, check_double
from .homotopy import FreeDerivation, LinearSection, constant_derivation, check_free_derivation, enumerate_free_derivations, induced_endomorphism, derivation_mul, is_coadmissible, inverse_derivation, derivation_to_section, section_to_derivation, section_mul, enumerate_linear_sections
from .holonomy import WStructure, WGSquares, LocalLinearSection, Germ, HolonomyGroupoid, HolonomyError, build_wg, check_wstructure, local_section_mul, local_section_inv, constant_section, germ_at, check_locally_lie_double, check_locally_lie_xmod, has_enough_sections, build_germ_groupoid, build_restricted_germs, build_unit_germs, holonomy_groupoid, left_translation, universal_morphism

__version__ = "0.1.0"
