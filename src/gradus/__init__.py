"""gradus: universal gradings, idempotents, and torsion units of orders.

An order is a commutative ring whose additive group is Z^n, presented here
by integer structure constants.  For reduced orders the package computes the
canonical inner product numerically (with certified residuals), splits the
lattice into its finest orthogonal components, and assembles the grading by
a finite abelian group that every other grading of the order factors
through.  Verification of gradings, the idempotents, the root-of-unity
search, and pushforwards along group homomorphisms are exact.
"""

from .config import DEFAULT_CONFIG, RunConfig
from .embeddings import EmbeddingMatrix, compute_embeddings, gram
from .errors import (
    AmbiguousMorphism,
    AmbiguousSign,
    AmbiguousZero,
    BadIdentity,
    DegenerateSplitting,
    EnumerationBudgetExceeded,
    GradusError,
    InfiniteGroup,
    InfiniteIndex,
    InternalInconsistency,
    NoMorphism,
    NotAssociative,
    NotCommutative,
    NotReduced,
    PrecisionExhausted,
    TorsionQuotient,
    ValidationError,
)
from .examples import example_names, example_order, natural_group_ring_grading
from .grading import (
    FinAbGroup,
    GradedOrder,
    Grading,
    GradingReport,
    GroupHom,
    find_morphism,
    grading_from_json,
    grading_to_json,
    group_from_relations,
    homogeneous_parts,
    is_homogeneous_element,
    is_homogeneous_sublattice,
    make_grading,
    push_forward,
    universal_grading,
    verify_grading,
)
from .intlinalg import (
    IntMatrix,
    SublatticeBasis,
    direct_sum_index,
    hnf,
    kernel_saturated,
    snf,
    solve_left,
)
from .lattices import (
    GramForm,
    SDecomposition,
    enumerate_up_to,
    gram_from_strings,
    inner,
    is_indecomposable,
    lll_reduce,
    norm,
    universal_s_decomposition,
)
from .orders import (
    Order,
    group_ring,
    is_reduced,
    monogenic_order,
    mul,
    nilradical,
    order_from_json,
    order_to_json,
    power,
    product_order,
    quotient_order,
    regular_matrix,
    subring_order,
    trace_gram,
    validate,
)
from .units import (
    UnitGroupReport,
    element_order,
    idempotents,
    is_connected,
    roots_of_unity,
)

__version__ = "0.1.0"
