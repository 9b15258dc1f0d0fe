"""Perfect colorings of Hamming graphs: constructions and exhaustive verification."""

from .constructions import (ConstructedColoring, HammingCosetPartition,
                            RecursionSpec, RecursionTrace, UnbalancedBoolean,
                            UniformCollection, closed_form_length,
                            coloring_periods, construct_bc,
                            construct_unbalanced_boolean, hamming_cosets,
                            hamming_union_coloring, hamming_union_collection,
                            iterate_construction, predicted_step_quotient,
                            recursive_step, reduce_by_periods, rm_coloring,
                            rm_quotient, translations_collection,
                            union_quotient)
from .core import (Coloring, QuotientMatrix, digits, materialize_guard,
                   neighbors, vertex_index)
from .gf import FieldTable, check_axioms, factor_prime_power, frobenius_fixed
from .pcolfile import read_pcol, write_pcol
from .spectral import (CharacterSpectrum, DegreeReport, character_transform,
                       coloring_degree, degree, eigen_decomposition_check,
                       hamming_weights)
from .verify import (NonPerfectWitness, UniformityCheck, VerificationReport,
                     check_uniform, compute_quotient, densities_by_count,
                     densities_from_quotient, essential_arguments,
                     graph_eigenvalue, quotient_spectrum, search_colorings,
                     verification_report)

__version__ = "0.1.0"

__all__ = [
    "Coloring", "QuotientMatrix", "digits", "vertex_index", "neighbors",
    "materialize_guard",
    "FieldTable", "factor_prime_power", "check_axioms", "frobenius_fixed",
    "NonPerfectWitness", "UniformityCheck", "VerificationReport",
    "compute_quotient", "essential_arguments", "densities_by_count",
    "densities_from_quotient", "quotient_spectrum", "graph_eigenvalue",
    "check_uniform", "search_colorings", "verification_report",
    "CharacterSpectrum", "DegreeReport", "character_transform",
    "degree", "coloring_degree", "hamming_weights", "eigen_decomposition_check",
    "UniformCollection", "HammingCosetPartition", "RecursionSpec",
    "RecursionTrace", "ConstructedColoring", "UnbalancedBoolean",
    "rm_coloring", "rm_quotient", "translations_collection",
    "coloring_periods", "reduce_by_periods", "hamming_cosets",
    "hamming_union_coloring", "hamming_union_collection", "union_quotient",
    "predicted_step_quotient", "recursive_step", "iterate_construction",
    "closed_form_length", "construct_bc", "construct_unbalanced_boolean",
    "read_pcol", "write_pcol",
]
