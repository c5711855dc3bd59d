"""affinvar: affine diffusions on polyhedral and quadratic state spaces.

Validation of stochastic-invariance (admissibility) conditions, canonical
transforms and square-root constructions, PSD facet decompositions, quadric
classification, and reproducible Monte Carlo simulation.
"""

__version__ = "0.1.0"

from .convex import (FarkasCertificate, facet_relative_decompose,
                     farkas_decompose, interior_point, minimalize)
from .core import (AffineMatrixField, AffineScalar, AffineVectorField,
                   ModelSpec, Polyhedron, QuadraticForm, QuadraticSpace,
                   psd_square_root)
from .modelio import load_fixture, load_model, save_model
from .polyhedral import (CanonicalTransform, ClassicalModel,
                         PsdFacetDecomposition, build_square_root,
                         canonical_transform, check_classical,
                         check_open_facet_invariance,
                         check_polyhedral_admissibility,
                         check_triangle_condition, diagonalize_extended,
                         lift_drift, psd_decompose, transform_model)
from .quadratic import (ConicalDecomposition, ParabolicDecomposition,
                        QuadricClassification, check_cone_admissibility,
                        check_open_invariance_general, check_parabolic_drift,
                        check_parabolic_psd_condition, classify_quadric,
                        cone_square_root, conical_basis,
                        conical_theta_decompose, normalize_parabolic,
                        parabolic_basis, parabolic_square_root,
                        parabolic_theta_decompose, verify_theta_zero_lemma)
from .simulate import (PathEnsemble, Scheme, SimConfig, boundary_attainment,
                       invariance_monte_carlo, mean_ode, simulate_paths,
                       simulate_summary)
