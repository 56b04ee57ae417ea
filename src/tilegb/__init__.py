"""Signed polyomino tilings decided by strong Groebner bases over Z."""

from .polyring import (LEX, Polynomial, TermOrder, coeff_divmod, diff_quotient,
                       format_poly, parse_poly)
from .groebner import (GroebnerBasis, ReductionResult, buchberger, g_polynomial,
                       ideal_member, reduce, remainder, s_polynomial,
                       verify_strong_gb)
from .bones import (BoneSystem, b3_remainder, bone_polynomials, bone_system,
                    decide_nbone, nbone_prototiles,
                    t_remainder_closed, triangle)
from .tiling import (Certificate, Placement, TilingDecision, certificate_nbone,
                     decide_signed_tiling, newton_polynomial, normalize_region,
                     render, verify_certificate)
from .homology import (AbelianGroup, basis_group, box_group, nbone_homology,
                       snf, stabilized_group)
from .brion import rational_form_T, verify_brion
from .oracle import OracleDecision, hnf_solve, oracle_decide

__all__ = [
    "LEX", "Polynomial", "TermOrder", "coeff_divmod", "diff_quotient",
    "format_poly", "parse_poly",
    "GroebnerBasis", "ReductionResult", "buchberger", "g_polynomial",
    "ideal_member", "reduce", "remainder", "s_polynomial", "verify_strong_gb",
    "BoneSystem", "b3_remainder", "bone_polynomials", "bone_system",
    "decide_nbone", "nbone_prototiles", "t_remainder_closed",
    "triangle",
    "Certificate", "Placement", "TilingDecision", "certificate_nbone",
    "decide_signed_tiling", "newton_polynomial", "normalize_region", "render",
    "verify_certificate",
    "AbelianGroup", "basis_group", "box_group", "nbone_homology", "snf",
    "stabilized_group",
    "rational_form_T", "verify_brion",
    "OracleDecision", "hnf_solve", "oracle_decide",
]

__version__ = "0.1.0"
