"""Mapping class group calculus for reducible 3-manifolds.

Generator words (slides, spins, twists, interchanges, summand
automorphisms) act on the fundamental group and on encoded sphere systems;
the eduction homomorphism, its kernel of discrepant automorphisms, and the
slide normalization of symmetric systems are all executable.
"""

from .errors import (
    InvalidFamily,
    InvalidWord,
    ManifoldMismatch,
    McgseqError,
    NotAllowable,
    NotDiscrepant,
    NotLaminarAfterSlide,
    NotReducible,
    NotSymmetric,
    OracleError,
    ParseError,
    TypeMismatch,
    Unreachable,
)
from .model import (
    Assignment,
    HomeoType,
    LaminarFamily,
    PrimeDecomposition,
    SystemClass,
    allowable,
    associated_separating,
    build_manifold,
    classify_system,
    e_label,
    identity_assignment,
    s_label,
    standard_system,
    validate_laminar,
)
from .oracles import (
    CyclicOracle,
    FreeAbelianOracle,
    FreeOracle,
    GroupOracle,
    OracleAut,
    TableOracle,
    parse_group_spec,
)
from .fpgroup import (
    AbAction,
    AutTable,
    abelianize_table,
    abelianized_action,
    act_pi1,
    aut_of_word,
    fp_inv,
    fp_mul,
    fp_reduce,
)
from .words import (
    Aut,
    SlideEnd,
    SlideHandle,
    SlideIrr,
    Spin,
    SwapHandles,
    SwapIrr,
    Twist,
    Word,
    compose,
    empty_word,
    free_reduce,
    invert,
    normalize_word,
)
from .systems import (
    act_system,
    family_dot,
    normalize_system,
    trace_assignment,
)
from .sequence import (
    CapAut,
    EductionImage,
    SpotSlide,
    SpotSwap,
    SpotTwist,
    SpottedMarking,
    educe,
    factor_discrepant,
    identity_image,
    is_discrepant,
    lift,
    spotted_educe,
    spotted_lift,
)

__version__ = "0.1.0"
