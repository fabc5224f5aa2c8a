"""Exact-arithmetic toolkit for even lattices, discriminant forms and
sextic double planes in characteristic 5."""

__version__ = "0.1.0"

from .lattice import DegenerateLatticeError, GramLattice, RootSystemType
from .discform import (
    DeltaType,
    IsotropicSubgroup,
    REFERENCE_SUBGROUPS,
    STARRED_TYPES,
    b_value,
    build_S0,
    canonical_key,
    classify_isotropic_subgroups,
    condition_II,
    delta,
    e_splittings,
    isotropic_table,
    max_isotropic_dimension,
    q_value,
    root_type_orthogonal_to_h,
    verify_q_consistency,
)
from .ffpoly import (
    GF,
    GFPoly,
    MODULI,
    RootInExtension,
    SplittingFieldError,
    embedding,
    format_poly_literal,
    is_squarefree,
    parse_poly_literal,
    poly_gcd,
    roots_in_extension,
    subfield_degree,
)
from .curvecheck import (
    CurveReport,
    GenericityError,
    OutsideUError,
    SexticModel,
    SingularPointReport,
    WallReport,
    analyze,
    is_in_U,
    ns_gram_model,
    random_in_U,
    verify_A4,
)
