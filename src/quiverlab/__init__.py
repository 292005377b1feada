"""Exact computations with quivers, homogeneous relations, and their modules.

Everything runs over the rationals with no floating point anywhere: graded
bases of path-algebra quotients, cocenters, corner subalgebras at the framed
vertices with minimized generators and truncated presentations, coordinate
rings of representation spaces with their defining ideals and invariants,
Groebner-based nilpotency probes, and explicit matrix modules with induction
and framed-generation tests.
"""

from .algebra import (AlgebraElement, Cocenter, GradedBasis, RelationSet,
                      cocenter, framed_affine_preprojective, graded_basis,
                      normal_form, preprojective_relations,
                      restrict_to_vertices, star_pairing)
from .corner import (BimoduleGenerators, CornerGenerator, CornerGenerators,
                     CornerPresentation, bimodule_generators,
                     corner_generators, corner_presentation,
                     sufficient_dimension_bound)
from .errors import BudgetExceeded, VerificationError
from .linalg import Mat, SpanBuilder, block_diag, block_upper, kernel_combos
from .modules import (conjugate, generated_by_framing, induce_module,
                      invariant_fingerprint, is_nilvadent, module_from_json,
                      module_to_json, random_extension)
from .polynomials import (GroebnerBasis, NilpotentWitness, PolyRing,
                          Polynomial, buchberger, nilpotent_witness_search,
                          standard_monomials)
from .quiverfile import (ParseError, QuiverFile, parse_quiver_file,
                         print_quiver_file)
from .quivers import (FRAMING_ARROW, FRAMING_VERTEX, Arrow, DimensionVector,
                      Path, Quiver, StabilityVector, affine_cartan_matrix,
                      build_doubled_affine_dynkin, build_doubled_dynkin,
                      delta, delta_k, evaluate_character, frame)
from .repscheme import (InvariantGenerator, ModuleRep, RepCoordinates, RepIdeal,
                        add_pullback, build_acircledast, build_astar,
                        check_relations, corner_comparison_map, direct_sum,
                        element_matrix, entry_generator, invariant_generators,
                        lift, path_matrix, product_split_check, rep_ideal,
                        restrict_corner, trace_generator, variable_name,
                        zero_module)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
