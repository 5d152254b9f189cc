"""Exact classification of finite group actions on curves by the
representation types of their pluricanonical spaces.

The pipeline: build a group, enumerate Hurwitz vectors for a genus, evaluate
the multiplicity of every irreducible character in H^0 of each pluricanonical
bundle, and partition the vectors by those multiplicities. A companion module
bounds the component count of the regular-representation locus for split
metacyclic groups. All arithmetic is exact: character values live in a prime
field whose default prime recovers degrees, inner products and eigenvalue
counts uniquely, and the multiplicities are integer arithmetic on the counts.
"""

from .errors import (AbelianGroup, CwModuliError, EnumerationCapExceeded,
                     GroupSizeError, GroupSpecError, InternalConsistencyError,
                     NegativeGenus, NoFreeAction, NonIntegralGenus, NotGenerating,
                     OrderViolation, PrimeSearchExceeded, RelationViolation)
from .groups import (DEFAULT_ORDER_CAP, ConjugacyData, FiniteGroup,
                     MetacyclicParams, build_abelian, build_cyclic,
                     build_from_permutations, build_from_table, build_metacyclic,
                     closure, conjugacy_classes, generates, group_from_spec)
from .modular import (PRIME_SEARCH_LIMIT, WorkingPrime, choose_prime,
                      recover_integer, session_bound)
from .characters import (CharacterTable, character_table, eigenvalue_counts,
                         eigenvalue_multiplicities, inner_product,
                         rational_character_value, rational_character_values)
from .hurwitz import (BranchingData, EnumerationOptions, HurwitzVector,
                      enumerate_branching_data, enumerate_hurwitz_rows,
                      enumerate_hurwitz_vectors, enumerate_hurwitz_vectors_parallel,
                      genus, validate)
from .chevalley_weil import (MultiplicityVector, cw_character, periodicity_delta,
                             regular_multiple)
from .decomposition import (Decomposition, StabilizationReport, canonical_decomposition,
                            decompose_at_k, refine, stabilization_report)
from .metacyclic import SchurResult, rr_component_lower_bound, schur_multiplier_order
from .cli import run

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CwModuliError", "GroupSizeError", "GroupSpecError", "PrimeSearchExceeded",
    "InternalConsistencyError", "OrderViolation", "RelationViolation",
    "NotGenerating", "NonIntegralGenus", "NegativeGenus",
    "EnumerationCapExceeded", "AbelianGroup", "NoFreeAction",
    # groups
    "DEFAULT_ORDER_CAP", "FiniteGroup", "ConjugacyData", "MetacyclicParams",
    "build_cyclic", "build_abelian", "build_metacyclic",
    "build_from_permutations", "build_from_table", "conjugacy_classes",
    "closure", "generates", "group_from_spec",
    # modular
    "PRIME_SEARCH_LIMIT", "WorkingPrime", "session_bound", "choose_prime",
    "recover_integer",
    # characters
    "CharacterTable", "character_table", "eigenvalue_counts", "eigenvalue_multiplicities",
    "inner_product", "rational_character_value", "rational_character_values",
    # hurwitz
    "BranchingData", "HurwitzVector", "EnumerationOptions", "validate", "genus",
    "enumerate_branching_data", "enumerate_hurwitz_rows", "enumerate_hurwitz_vectors",
    "enumerate_hurwitz_vectors_parallel",
    # chevalley-weil
    "MultiplicityVector", "cw_character", "regular_multiple", "periodicity_delta",
    # decomposition
    "Decomposition", "StabilizationReport", "decompose_at_k", "refine",
    "canonical_decomposition", "stabilization_report",
    # metacyclic
    "SchurResult", "schur_multiplier_order", "rr_component_lower_bound",
    # cli
    "run",
]
