"""Exact Waring ranks and decompositions of monomials.

The package computes the Waring rank of a monomial, writes down the explicit
root-of-unity decomposition achieving it (exactly, over a cyclotomic field),
parametrizes all decompositions by complete intersection ideals, certifies
which parameter choices give honest reduced point sets, and measures the
dimension of the space of decompositions via Hilbert functions.
"""

from .cyclotomic import (
    CycloScalar,
    CyclotomicPolynomial,
    cyclotomic_poly,
    embed,
    root_of_unity,
)
from .ideals import (
    CIIdeal,
    PhiTuple,
    basis_Bprime,
    canonicalize_phi,
    dim_perp_cap_alpha0,
    dim_vsp,
    explicit_phi,
    hilbert_S_mod_J,
    make_ci_ideal,
)
from .monomials import (
    Decomposition,
    MonomialSpec,
    VerificationReport,
    explicit_decomposition,
    multinomial_C,
    rank_lower_bound,
    verify_decomposition,
    waring_rank,
)
from .polynomial import (
    DUAL,
    PRIMAL,
    LinearForm,
    SparsePoly,
    apply_diff,
    dehomogenize,
)
from .solver import (
    NonRadicalIdealError,
    PointExtractionError,
    PointSet,
    QuotientAlgebra,
    build_quotient,
    extract_points,
    ideal_membership,
    trace_form_rank,
)
from .vsp import (
    TorusElement,
    VSPParameterSpace,
    apply_torus,
    decompose_from_phi,
    fit_phi_from_points,
    parameter_space,
    point_ideal_hilbert,
    sample_phi,
    torus_normalize,
)

__all__ = [
    "CIIdeal",
    "CycloScalar",
    "CyclotomicPolynomial",
    "Decomposition",
    "DUAL",
    "LinearForm",
    "MonomialSpec",
    "NonRadicalIdealError",
    "PhiTuple",
    "PointExtractionError",
    "PointSet",
    "PRIMAL",
    "QuotientAlgebra",
    "SparsePoly",
    "TorusElement",
    "VSPParameterSpace",
    "VerificationReport",
    "apply_diff",
    "apply_torus",
    "basis_Bprime",
    "build_quotient",
    "canonicalize_phi",
    "cyclotomic_poly",
    "decompose_from_phi",
    "dehomogenize",
    "dim_perp_cap_alpha0",
    "dim_vsp",
    "embed",
    "explicit_decomposition",
    "explicit_phi",
    "extract_points",
    "fit_phi_from_points",
    "hilbert_S_mod_J",
    "ideal_membership",
    "make_ci_ideal",
    "multinomial_C",
    "parameter_space",
    "point_ideal_hilbert",
    "rank_lower_bound",
    "root_of_unity",
    "sample_phi",
    "torus_normalize",
    "trace_form_rank",
    "verify_decomposition",
    "waring_rank",
]
