"""framekit: dual-pair and operator-valued frames at finite dimension.

Vector frames live in `frames`, operator-valued ones in `ovf`, frame
factories in `constructors`, algorithms and certificates in `analysis`,
the lp (Banach) theory in `pframes`, file formats in `io`.

The root imports nothing up front: each exported name, and each of the
submodules a bare `import framekit` exposes, is loaded from its owning
module on first access (PEP 562), so `import framekit.frames` pays only
for the vector layer.
"""

import sys

__version__ = "0.1.0"

_OWNERS = {
    "numerics": (
        "PNormInterval", "SpectralReport", "Tolerance", "herm_sqrt", "pnorm_estimate",
        "principal_power", "spectral",
    ),
    "frames": (
        "FramePair", "FrameReport", "canonical_dual", "classify", "common_dual", "dilate",
        "direct_sum", "frame_idempotent", "frame_operator", "interpolate_parseval", "is_dual",
        "is_orthogonal", "make_dual_from_params", "parsevalize", "similarity_detect",
        "tensor_product", "verify",
    ),
    "ovf": (
        "OvfPair", "OvfReport", "canonical_dual_ovf", "compose_ovf", "dilate_ovf",
        "duality_relation", "extend_tight_ovf", "factorize_against_onb", "onb_blocks",
        "ovf_bridge", "ovf_bridge_inverse", "ovf_operators", "right_similarity_detect",
        "tensor_ovf", "verify_ovf", "weighted_onb_bessel_check",
    ),
    "constructors": (
        "GroupTable", "Representation", "check_group_invariance", "circular_general",
        "circular_kl", "group_frame", "left_regular", "synthesize_representation",
    ),
    "analysis": (
        "IterationTrace", "PerturbCertificate", "complex_to_real", "extend_tight_append",
        "extend_tight_minimal", "formulas_report", "iterate_reconstruct", "perturb_normsum",
        "perturb_quadratic", "perturb_sampled", "real_to_complex", "span_characterization",
        "trace_formula", "weighted_onb_check",
    ),
    "pframes": (
        "PFramePair", "banach_formulas", "four_laws_check", "p_canonical_dual",
        "p_orthonormal_check", "p_verify", "paley_wiener_check", "project_line_l4",
        "riesz_p_bounds",
    ),
    "errors": (),
}

# exported name -> owning submodule; a submodule's own name maps to itself
_EXPORTS = {name: module for module, names in _OWNERS.items() for name in (module, *names)}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, so that -X importtime reports the load
    __import__(f"{__name__}.{module}")
    owner = sys.modules[f"{__name__}.{module}"]
    value = owner if name == module else getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
