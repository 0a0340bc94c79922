"""Exact arithmetic for 3-dimensional Lie lattices over Z_p (p odd).

The package classifies anti-commutative bracket structures on Z_p^3 into
canonical diagonal forms, decides existence of index-p simple virtual
endomorphisms, and reports self-similarity bounds for the associated
pro-p groups.
"""

from .catalog import NAMED, group_report, named_algebra, normal_subgroup_sigma
from .classify import CanonicalForm, QpType, canonical_form, eta, is_isomorphic, qp_type
from .errors import (
    InvalidInput,
    PadicLieError,
    PathDisagreement,
    PrecisionLoss,
    PreconditionViolated,
    UnsupportedPrime,
)
from .lattice import Algebra, change_of_basis, lcs_exponents, residually_nilpotent
from .normal_forms import (
    Mat,
    cassels_move,
    congruent_diagonalize,
    hnf_columns,
    lattice_contains,
    parse_matrix,
    snf,
)
from .padic_core import INF, PadicScalar, PrimeContext, hilbert_additive, legendre_class
from .selfsim import (
    CONJECTURED_INFINITE,
    VirtualEndomorphism,
    construct_simple_ve,
    decide_index_p,
    domain_chain,
    invariant_ideal_search,
    is_morphism,
    non_self_similarity_certificate,
    regularity_check,
    sigma_bounds,
    witness_subalgebra,
)
from .subalgebras import XiSymbol, all_symbols, b_xi, enumerate_index_p, nss_condition

__all__ = [
    "INF",
    "NAMED",
    "CONJECTURED_INFINITE",
    "Algebra",
    "CanonicalForm",
    "InvalidInput",
    "Mat",
    "PadicLieError",
    "PadicScalar",
    "PathDisagreement",
    "PrecisionLoss",
    "PreconditionViolated",
    "PrimeContext",
    "QpType",
    "UnsupportedPrime",
    "VirtualEndomorphism",
    "XiSymbol",
    "all_symbols",
    "b_xi",
    "canonical_form",
    "cassels_move",
    "change_of_basis",
    "congruent_diagonalize",
    "construct_simple_ve",
    "decide_index_p",
    "domain_chain",
    "enumerate_index_p",
    "eta",
    "group_report",
    "hilbert_additive",
    "hnf_columns",
    "invariant_ideal_search",
    "is_isomorphic",
    "is_morphism",
    "lattice_contains",
    "lcs_exponents",
    "legendre_class",
    "named_algebra",
    "non_self_similarity_certificate",
    "normal_subgroup_sigma",
    "nss_condition",
    "parse_matrix",
    "qp_type",
    "regularity_check",
    "residually_nilpotent",
    "sigma_bounds",
    "snf",
    "witness_subalgebra",
]

__version__ = "0.1.0"
