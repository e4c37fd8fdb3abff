"""Almost-multiplicative matrix maps on groups: defects, averaging, repair.

The package measures how far a matrix-valued map on a group is from being a
unitary representation, and implements the averaging constructions that pull
an almost-representation back to an exact one: positive definite smoothing,
polar repair, the quadratic stabilization loop, and similarity unitarization.

Public names load with their module on first use (PEP 562), so importing the
package loads no numpy; ``ulamlab.cli`` pins the BLAS threads before it does.
"""

import importlib
import sys
import types

_EXPORTS = {
    "linalg": (
        "NormKind", "OPERATOR", "SingularInputError", "ky_fan", "op_norm", "parse_norm",
        "schatten",
    ),
    "groups": (
        "FiniteGroup", "FreeBall", "NotAGroupError", "UnsupportedDomainError", "cyclic",
        "dihedral", "direct_product", "free_ball", "from_table", "parse_group_spec",
        "symmetric",
    ),
    "maps": (
        "Bound", "Certificate", "DefectReport", "GroupMap", "PreconditionError",
        "SizeLimitError", "constant_identity", "defect_report", "distance", "iso_defect",
        "map_to_dict", "mult_defect", "pair_defect_norms", "pd_min_eig",
        "perturbation_bound_report", "sup_norm", "unit_defect",
    ),
    "averaging": (
        "average_pd", "condition_b_report", "condition_c_check", "estimate_checks", "form",
        "translate_average", "translate_coefficient",
    ),
    "stabilize": (
        "CERTIFIED_EPSILON", "ContractionSeries", "DixmierReport", "NotRepairableError",
        "StabilizationTrace", "contraction_series", "dixmier_unitarize", "kazhdan_step",
        "polar_repair", "stabilize",
    ),
    "generators": (
        "GenSpec", "build_map", "compress_rep", "conjugate_rep", "derive_seed", "direct_sum",
        "haar_unitary", "parse_genspec", "perturb_unitary", "random_map", "regular_rep",
        "similarity_twist", "trivial_rep",
    ),
    "verify": ("SUITES", "SuiteResult", "run_suite"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE) + ["__version__"]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Keeps ``ulamlab.stabilize`` the function when its submodule loads.

    Importing a submodule binds it on the package under its own name; for
    ``stabilize`` that would shadow the exported function of the same name.
    """

    def __setattr__(self, name: str, value) -> None:
        if name in _SOURCE and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
