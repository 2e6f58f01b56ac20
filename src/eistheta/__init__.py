"""Exact arithmetic for theta series, genus averages and Eisenstein congruences.

The package works with positive semidefinite half-integral symmetric
matrices stored through their doubled (integral) Gram matrices, and keeps
every computation in exact rational arithmetic.

``import eistheta`` loads no submodule.  Each exported name is looked up
in the submodule that defines it on first use (PEP 562), so a run compiles
only the modules it calls: the dual-route check never loads ``genus``,
``theta`` or ``padic``.  Nothing is cached here, so ``eistheta.f`` is
always the defining module's current binding of ``f``.
"""

import importlib

__version__ = "0.1.0"

# each exported name under the submodule that defines it
_EXPORTS = {
    "fourier": (
        "QExpansion",
        "qexp_add",
        "qexp_scale",
        "u_p",
        "mod_pm_singular_rank",
        "check_weight_rank_congruence",
        "dump_qexp",
        "load_qexp",
    ),
    "lattice": (
        "level",
        "eta_S",
        "short_vectors",
        "minkowski_reduce",
        "form_rank",
        "automorphism_count",
        "enumerate_classes",
    ),
    "genus": ("ClassRecord", "GenusRecord", "same_genus", "build_genera", "cached_genera"),
    "theta": ("theta_series", "genus_theta"),
    "exactnum": ("cohen_H",),
    "eisenstein": ("eisenstein_qexp", "WeightTarget", "WeightSequence", "default_sequence"),
    "localdensity": (
        "local_density_coeff",
        "primitive_density_coeff",
        "DirectLadder",
        "direct_limit_coefficient",
    ),
    "padic": (
        "LimitLadder",
        "empirical_limit",
        "SingularRankAudit",
        "singular_rank_audit",
        "FitRung",
        "VerificationReport",
        "fit_and_verify",
        "PipelineError",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
