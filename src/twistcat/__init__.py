"""Braided ribbon categories of finite-group representations twisted by
abelian 3-cocycles, with exact cocycle arithmetic, matrix-level coherence
suites, fusion rules, S-matrices, and branch-cut monodromy scalars."""

from .abgroup import FinAbGroup, GroupElt
from .branchcut import (
    PathPolyline,
    assoc_scalar,
    clockwise_unit_loop,
    plog,
    transport_scalar,
    winding,
)
from .cocycle import (
    AbelianCocycle,
    AxiomCheck,
    CoherenceReport,
    build_cyclic,
    validate_cocycle,
)
from .errors import (
    CocycleError,
    ConsistencyError,
    DomainError,
    GradingError,
    RepresentationError,
    StructuralError,
)
from .fusionring import su2_tensor
from .grouprep import (
    CentralEmbedding,
    FiniteGroup,
    GradedIrrep,
    MatrixRep,
    grade_of,
    rep_from_generators,
    validate_irrep,
)
from .modcat import TwistedCategory, flip_matrix
from .specio import CategorySpec, fixture_path, load_spec
from .unitscalar import UnitScalar

__version__ = "0.1.0"

__all__ = [
    "AbelianCocycle",
    "AxiomCheck",
    "CategorySpec",
    "CentralEmbedding",
    "CocycleError",
    "CoherenceReport",
    "ConsistencyError",
    "DomainError",
    "FinAbGroup",
    "FiniteGroup",
    "GradedIrrep",
    "GradingError",
    "GroupElt",
    "MatrixRep",
    "PathPolyline",
    "RepresentationError",
    "StructuralError",
    "TwistedCategory",
    "UnitScalar",
    "assoc_scalar",
    "build_cyclic",
    "clockwise_unit_loop",
    "fixture_path",
    "flip_matrix",
    "grade_of",
    "load_spec",
    "plog",
    "rep_from_generators",
    "su2_tensor",
    "transport_scalar",
    "validate_cocycle",
    "validate_irrep",
    "winding",
]
