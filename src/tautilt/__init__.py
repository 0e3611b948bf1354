"""Exact support tau-tilting computations for monomial bound quiver algebras."""

from .algebra import (Algebra, Arrow, Path, Quiver, add_isolated_vertex, build_algebra,
                      delete_vertex, load_algebra, one_point_extension, opposite_algebra,
                      parse_algebra, serialize_algebra)
from .catalog import Catalog, ModuleRef, build_catalog
from .counting import closed_form
from .dags import LabeledDag, dag_iso, glue, hasse_to_dag, to_dot
from .errors import (AlgebraFormatError, InfiniteDimensionalError, InvariantViolation,
                     NotDirectedError, PreconditionError, TautiltError)
from .families import family, type_a_square, type_d_square
from .linalg import QMatrix, kernel_basis, rref, solve
from .modules import (Morphism, Representation, ext1, extend_by_zero, hom_basis, injective,
                      iso, min_presentation, pd_at_most_one, projective, projective_cover,
                      tau, tau_inverse)
from .tilting import (HasseQuiver, STauPair, enumerate_stau, hasse, is_tau_rigid,
                      is_tau_tilting, is_tilting, tau_tilting_modules, tilting_modules)
from .verify import (ClaimReport, ExtensionContext, reproduce_tables, run_claims,
                     select_doubled_subset, verify_classification, verify_count_equations,
                     verify_hasse_gluing, verify_tilting_transfer)

__version__ = "0.1.0"
