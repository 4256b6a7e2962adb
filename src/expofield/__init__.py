"""Exact computation with existentially closed exponential fields.

Modules by pipeline stage: exact coefficient arithmetic (mpoly, fieldelem,
linalg), the exponential-ring language (exprlang), parametric varieties and
additive freeness (variety), presented exponential fields and point
realization (efield), independence and amalgamation (amalg), finite
tree-property witnesses (treeprops), JSON schemas (serialize), and the
batch CLI (cli).
"""

from .errors import (CyclotomicOrderMismatch, DimensionMismatch, DomainError,
                     ExponentialConflict, ExprSyntaxError, IllFormedExtension,
                     Inconsistent, LinearDependence, MissingExponential,
                     NotTranscendental, SchemaError, UnknownVariable,
                     UnsupportedShape, WellDefFailure, ZeroValue)
from .mpoly import MPoly, cyclotomic_polynomial, euler_phi
from .fieldelem import FieldElem, coerce, cyclotomic_root, eliminate_symbols
from .linalg import (ff_rank, integer_kernel_basis, jacobian_rank,
                     kernel_basis, qlin_solve)
from .exprlang import (ESystem, ETerm, FlatSystem, eliminate_inequations,
                       flatten, parse, parse_element, print_system,
                       print_term)
from .variety import (FreenessCertificate, ParametricVariety,
                      ReductionResult, additive_freeness, freeness_oracle,
                      from_flat, pullback, reduce)
from .efield import (EEvalResult, EFieldPresentation, HullPresentation,
                     SolveResult, WellDefCheck, check_presentation, e_eval,
                     eval_system, eval_term, extend_graph, hull,
                     merge_graphs, minimal_ea_family, presentation, solve)
from .amalg import (Amalgam, CompletionResult, EmbeddedPresentation,
                    IndepSystem, SystemReport, acf_indep, amalgamate2,
                    complete_system, indep, tdeg, verify_independent_system)
from .treeprops import (SOP1Candidate, TP2Witness, TypeFamily, VerifyReport,
                        tp2_witness, type_family, verify_finite_witness,
                        z_stabilizer_witness)

__version__ = "0.1.0"
