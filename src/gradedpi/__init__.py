"""Exact computation with group-graded PI-algebras.

Multilinear graded-identity components by two independent routes
(evaluation kernels and consequence spans), T-ideal products and
factoring verdicts for block-triangular matrix algebras, a normal-form
engine for exterior-type relatively free algebras, and the generic
matrix model tying them together. All arithmetic is exact rational.
"""

from .algebras import (
    BlockShape,
    GrassmannSpec,
    StructureConstantAlgebra,
    algebra_from_descriptor,
    build_field,
    build_grassmann,
    build_matrix_algebra,
    build_matrix_over,
    descriptor_of,
    evaluate,
    homogeneous_indices,
    is_g_regular,
    parse_inline_descriptor,
)
from .errors import (
    AmbientMismatchError,
    DegreeConflictError,
    GradedEvaluationError,
    GradedPIError,
    GuardExceededError,
    InternalInconsistencyError,
    MalformedElementError,
    ParseError,
    TruncationError,
    UnsupportedFeatureError,
)
from .freealg import (
    NcPolynomial,
    format_poly,
    left_normed_commutator,
    multilinear_coordinates,
    multilinear_monomials,
    parse_poly,
    parse_signature,
    poly_from_coordinates,
    validate_signature,
    yvar,
    zvar,
)
from .groups import TRIVIAL_GROUP, Z2, GroupSpec
from .linalg import (
    DEFAULT_GUARD,
    GuardLimits,
    RowReducer,
    Subspace,
    contains,
    kernel_basis,
)
from .model import (
    GenericMatrix,
    ModelConfig,
    RectangularStrip,
    decode_entry_variable,
    encode_entry_variable,
    extract_blocks,
    identity_matrix,
    independent_by_columns,
    independent_full,
    make_generator,
    model_eval,
    reassemble,
    shift_automorphism,
    zero_matrix,
)
from .relfree import (
    GradingMode,
    MultiplicativityReport,
    ProbeReport,
    RelFreeElement,
    RelFreeWord,
    count_multilinear_basis_words,
    expand,
    format_relfree,
    multilinear_basis_words,
    normal_form,
    partial_multiplicativity_check,
    relfree_mul,
    soundness_probe,
)
from .spaces import (
    ConsequenceProvider,
    EvaluationProvider,
    FactoringVerdict,
    IdentitySubspace,
    ProductProvider,
    TIdealPresentation,
    TruncatedQuotientBackend,
    check_factoring,
    full_multilinearization,
    identities_by_consequences,
    identities_by_evaluation,
    membership,
    multidegree_components,
    presentation_for_mode,
    presentation_trivial_grassmann,
    tideal_product,
    triple_commutator_generators,
)

__version__ = "0.1.0"
