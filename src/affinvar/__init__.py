"""affinvar: affine diffusions on polyhedral and quadratic state spaces.

Validation of stochastic-invariance (admissibility) conditions, canonical
transforms and square-root constructions, PSD facet decompositions, quadric
classification, and reproducible Monte Carlo simulation.

Each submodule is imported the first time one of its names is read (PEP
562), so ``import affinvar`` loads none of them: the CLI pays only for the
deciders that its subcommand reaches.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_PUBLIC = {
    "convex": ("FarkasCertificate", "farkas_decompose", "interior_point",
               "minimalize"),
    "core": ("AffineMap", "AffineMatrixField", "AffineScalar",
             "AffineVectorField", "Check", "ModelSpec", "Polyhedron",
             "QuadraticForm", "QuadraticSpace", "psd_square_root"),
    "modelio": ("load_fixture", "load_model", "save_model"),
    "polyhedral": ("CanonicalTransform", "PsdFacetDecomposition",
                   "build_square_root", "canonical_transform",
                   "check_open_facet_invariance",
                   "check_polyhedral_admissibility",
                   "check_triangle_condition", "diagonalize_extended",
                   "lift_drift", "psd_decompose", "transform_model"),
    "quadratic": ("ConicalDecomposition", "ParabolicDecomposition",
                  "QuadricClassification", "check_cone_admissibility",
                  "check_open_invariance_general", "check_parabolic_drift",
                  "check_parabolic_psd_condition", "classify_quadric",
                  "cone_square_root", "conical_basis",
                  "conical_theta_decompose", "normalize_parabolic",
                  "parabolic_basis", "parabolic_square_root",
                  "parabolic_theta_decompose"),
    "report": ("Report", "validate"),
    "simulate": ("PathEnsemble", "Scheme", "SimConfig",
                 "invariance_monte_carlo", "mean_ode", "simulate_paths",
                 "simulate_summary", "simulation_frame"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names}
_SUBMODULES = {*_PUBLIC, "cli", "errors", "tolerances"}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    # the defining module's binding, read on every access, never cached
    # here: a patch of that binding is what the package name returns
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                               __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list(__all__)
