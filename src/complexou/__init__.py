"""Complex Ornstein-Uhlenbeck toolkit.

The generator L = 4*cos(theta) d^2/dz dzbar - e^{i*theta} z d/dz
- e^{-i*theta} zbar d/dzbar on the Gaussian plane, its orthonormal eigenbasis
J[m, n], the semigroup P_t (spectral multiplier and Mehler average), the
carre du champ, and Monte Carlo sampling of the associated SDE, with every
identity between these realizations checkable numerically (see
:mod:`complexou.checks` and the ``complexou`` CLI).
"""

__version__ = "0.1.0"

from .operator import (
    GeneratorParams,
    adjoint_params,
    apply_generator_spectral,
    apply_generator_wirtinger,
    carre_du_champ,
    carre_du_champ_via_generator,
    chain_rule_sides,
    domain_seminorm_sq,
    eigenvalue,
)
from .hermite import (
    BasisTransform,
    build_basis_transform,
    complex_hermite,
    complex_hermite_via_creation,
    creation_ladder,
    creation_z,
    creation_zbar,
    hermite_product_poly,
    monomial_to_hermite,
    project_monomials,
    synthesize,
)
from .poly import PolyWWbar, PolyZZbar, compose
from .quadrature import (
    QuadratureRule,
    default_rule,
    gauss_hermite_rule,
    inner_product,
    integrate_gamma,
    project,
)
from .sde import (
    PathEnsemble,
    SimConfig,
    StationarityReport,
    estimate_pt,
    euler_halving_probe,
    sample_euler,
    sample_exact,
    stationarity_check,
)
from .semigroup import (
    ErgodicEnvelope,
    PropagatorParams,
    adjoint_semigroup,
    ergodic_envelope,
    ergodic_limit_residual,
    gaussian_rotation_residual,
    invariance_residual,
    normality_commutator,
    semigroup_mehler,
    semigroup_pairing,
    semigroup_spectral,
)
from .spectral import SpectralCoeffs
from .expr import ExprError, parse_poly

__all__ = [
    "__version__",
    "BasisTransform",
    "ErgodicEnvelope",
    "ExprError",
    "GeneratorParams",
    "PathEnsemble",
    "PolyWWbar",
    "PolyZZbar",
    "PropagatorParams",
    "QuadratureRule",
    "SimConfig",
    "SpectralCoeffs",
    "StationarityReport",
    "adjoint_params",
    "adjoint_semigroup",
    "apply_generator_spectral",
    "apply_generator_wirtinger",
    "build_basis_transform",
    "carre_du_champ",
    "carre_du_champ_via_generator",
    "chain_rule_sides",
    "complex_hermite",
    "complex_hermite_via_creation",
    "compose",
    "creation_ladder",
    "creation_z",
    "creation_zbar",
    "default_rule",
    "domain_seminorm_sq",
    "eigenvalue",
    "ergodic_envelope",
    "ergodic_limit_residual",
    "estimate_pt",
    "euler_halving_probe",
    "gauss_hermite_rule",
    "gaussian_rotation_residual",
    "hermite_product_poly",
    "inner_product",
    "integrate_gamma",
    "invariance_residual",
    "monomial_to_hermite",
    "normality_commutator",
    "parse_poly",
    "project",
    "project_monomials",
    "sample_euler",
    "sample_exact",
    "semigroup_mehler",
    "semigroup_pairing",
    "semigroup_spectral",
    "stationarity_check",
    "synthesize",
]
