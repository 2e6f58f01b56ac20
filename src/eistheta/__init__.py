"""Exact arithmetic for theta series, genus averages and Eisenstein congruences.

The package works with positive semidefinite half-integral symmetric
matrices stored through their doubled (integral) Gram matrices, and keeps
every computation in exact rational arithmetic.
"""

from __future__ import annotations

from .eisenstein import eisenstein_qexp
from .exactnum import cohen_H
from .fourier import (
    QExpansion,
    check_weight_rank_congruence,
    coeff,
    congruent_mod,
    dump_qexp,
    load_qexp,
    mod_pm_singular_rank,
    phi_restrict,
    primitive_coeffs,
    qexp_add,
    qexp_scale,
    rank_filter,
    u_p,
)
from .genus import (
    ClassRecord,
    GenusRecord,
    build_genera,
    cached_genera,
    same_genus,
)
from .lattice import (
    automorphism_count,
    chi_S,
    enumerate_classes,
    eta_S,
    form_rank,
    is_equivalent,
    level,
    minkowski_reduce,
    short_vectors,
)
from .localdensity import local_density_coeff
from .padic import (
    DirectLadder,
    FitRung,
    LimitLadder,
    PipelineError,
    SingularRankAudit,
    VerificationReport,
    WeightSequence,
    WeightTarget,
    default_sequence,
    direct_limit_coefficient,
    empirical_limit,
    fit_and_verify,
    primitive_density_coeff,
    singular_rank_audit,
)
from .theta import genus_theta, theta_series, verify_rank_decomposition

__version__ = "0.1.0"

__all__ = [
    "QExpansion",
    "coeff",
    "qexp_add",
    "qexp_scale",
    "congruent_mod",
    "rank_filter",
    "u_p",
    "phi_restrict",
    "primitive_coeffs",
    "mod_pm_singular_rank",
    "check_weight_rank_congruence",
    "dump_qexp",
    "load_qexp",
    "level",
    "chi_S",
    "eta_S",
    "short_vectors",
    "minkowski_reduce",
    "form_rank",
    "is_equivalent",
    "automorphism_count",
    "enumerate_classes",
    "ClassRecord",
    "GenusRecord",
    "same_genus",
    "build_genera",
    "cached_genera",
    "theta_series",
    "genus_theta",
    "verify_rank_decomposition",
    "eisenstein_qexp",
    "cohen_H",
    "local_density_coeff",
    "WeightTarget",
    "WeightSequence",
    "default_sequence",
    "LimitLadder",
    "empirical_limit",
    "SingularRankAudit",
    "singular_rank_audit",
    "primitive_density_coeff",
    "DirectLadder",
    "direct_limit_coefficient",
    "FitRung",
    "VerificationReport",
    "fit_and_verify",
    "PipelineError",
    "__version__",
]
