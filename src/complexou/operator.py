"""The complex Ornstein-Uhlenbeck generator, its spectral form, and the
carre du champ.

For an angle theta with |theta| < pi/2 the generator acts on smooth functions
as

    L = 4*cos(theta) d^2/dz dzbar - e^{i*theta} z d/dz - e^{-i*theta} zbar d/dzbar,

and diagonally on the complex Hermite basis,

    L J[m,n] = -[(m+n)*cos(theta) + i*(m-n)*sin(theta)] * J[m,n],

which makes it a normal (for theta != 0 nonsymmetric) operator: the adjoint is
the generator with angle -theta, and |eigenvalue|^2 = m^2 + n^2 +
2*m*n*cos(2*theta) gives the graph seminorm.

The carre du champ has two independent realizations that must agree:

    derivative form:  Gamma(phi, psi) = 2*[ phi_z * conj(psi)_zbar'
                                            + phi_zbar * conj(psi)_z' ]
                      i.e. 2*[ dphi/dz * conj(dpsi/dz) + dphi/dzbar * conj(dpsi/dzbar) ]
    generator form:   (1/(2*cos(theta))) * [ L(phi*conj(psi))
                                             - phi*L(conj(psi)) - conj(psi)*L(phi) ]

where conj(.) is the polynomial-level conjugate.  Both are provided, plus the
second-order (diffusion) chain rule for outer polynomials F in several complex
slots; the chain-rule residual is returned, not asserted, so callers can
report it.

All operations are pure functions over immutable values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .poly import _Z, _ZBAR, MonomialTable, PolyZZbar, PolyWWbar, compose
from .spectral import SpectralCoeffs

# cos(theta) must stay strictly positive; reject angles where the diffusion
# coefficient degenerates.  The generator route of Gamma divides by cos(theta),
# so its roundoff grows as about 1.8e-14 / cos(theta): 6e-11 here, inside the
# carre-du-champ tol of 1e-10, and 5.6e-9 at 0.499999 * pi.
THETA_BOUND = 0.4999 * math.pi


@dataclass(frozen=True)
class GeneratorParams:
    """The angle theta (radians) selecting the generator; |theta| < pi/2."""

    theta: float

    def __post_init__(self):
        if not abs(self.theta) <= THETA_BOUND:
            raise ValueError(
                f"|theta| must be <= {THETA_BOUND!r} (strictly inside (-pi/2, pi/2)), "
                f"got {self.theta}"
            )

    @property
    def cos_theta(self) -> float:
        return math.cos(self.theta)

    @property
    def drift(self) -> complex:
        """The complex drift coefficient e^{i*theta}."""
        return cmath.exp(1j * self.theta)


def eigenvalue(params: GeneratorParams, m, n):
    """lambda[m,n] = -[(m+n)*cos(theta) + i*(m-n)*sin(theta)].

    m and n are integers, giving a complex, or integer index arrays, giving
    the complex grid of lambda over them with the same bits entry by entry.
    """
    re = -((m + n) * math.cos(params.theta))
    im = -((m - n) * math.sin(params.theta))
    if np.ndim(re) == 0:
        return complex(re, im)
    grid = np.empty(np.shape(re), dtype=complex)
    grid.real, grid.imag = re, im
    return grid


def adjoint_params(params: GeneratorParams) -> GeneratorParams:
    """The adjoint generator's parameters: theta -> -theta."""
    return GeneratorParams(-params.theta)


def generator_terms(phi: PolyZZbar) -> tuple[PolyZZbar, PolyZZbar, PolyZZbar]:
    """The theta-free terms of the generator applied to phi:
    (d^2 phi / dz dzbar, z dphi/dz, zbar dphi/dzbar)."""
    dz = phi.wirtinger_dz()
    dzbar = phi.wirtinger_dzbar()
    return dz.wirtinger_dzbar(), _Z * dz, _ZBAR * dzbar


def combine_generator_terms(
    params: GeneratorParams, terms: tuple[PolyZZbar, PolyZZbar, PolyZZbar]
) -> PolyZZbar:
    """L phi from :func:`generator_terms` (phi): 4 cos(theta) times the first,
    minus e^{i theta} times the second, minus e^{-i theta} times the third."""
    laplacian, euler, euler_bar = terms
    c = 4.0 * params.cos_theta
    drift = params.drift
    return laplacian * c - euler * drift - euler_bar * drift.conjugate()


def apply_generator_wirtinger(params: GeneratorParams, phi: PolyZZbar) -> PolyZZbar:
    """Apply the generator in differential form by exact polynomial algebra."""
    return combine_generator_terms(params, generator_terms(phi))


def apply_generator_spectral(params: GeneratorParams, f: SpectralCoeffs) -> SpectralCoeffs:
    """Apply the generator as the diagonal multiplier b[m,n] -> lambda[m,n]*b[m,n]."""
    return f.apply_diagonal(lambda m, n: eigenvalue(params, m, n))


def domain_seminorm_sq(params: GeneratorParams, f: SpectralCoeffs) -> float:
    """sum (m^2 + n^2 + 2*m*n*cos(2*theta)) |b[m,n]|^2, the squared graph
    seminorm; equals ||L f||^2 by Parseval."""
    c2 = math.cos(2.0 * params.theta)
    return sum(
        (m * m + n * n + 2.0 * m * n * c2) * abs(c) ** 2
        for (m, n), c in f.terms.items()
    )


def carre_du_champ(phi: PolyZZbar, psi: PolyZZbar) -> PolyZZbar:
    """Derivative form of Gamma (theta-independent)."""
    return 2.0 * (
        phi.wirtinger_dz() * psi.wirtinger_dz().conjugate()
        + phi.wirtinger_dzbar() * psi.wirtinger_dzbar().conjugate()
    )


def carre_du_champ_via_generator(
    params: GeneratorParams, phi: PolyZZbar, psi: PolyZZbar
) -> PolyZZbar:
    """Definitional route for Gamma through the generator; must match
    :func:`carre_du_champ` coefficientwise for every admissible theta."""
    psicon = psi.conjugate()
    lhs = apply_generator_wirtinger(params, phi * psicon)
    lhs = lhs - phi * apply_generator_wirtinger(params, psicon)
    lhs = lhs - psicon * apply_generator_wirtinger(params, phi)
    return lhs * (0.5 / params.cos_theta)


def chain_rule_sides(
    params: GeneratorParams, outer: PolyWWbar, phis: Sequence[PolyZZbar]
) -> tuple[PolyZZbar, PolyZZbar]:
    """Both sides of the second-order chain rule for L applied to F(phi_vec),
    where F is ``outer`` and phi_vec is ``phis``, one inner polynomial per
    slot of F.

    Left: the generator applied to the composed polynomial.  Right: the
    diffusion expansion

        cos(theta) * sum_ij [ Gamma(phi_i, conj(phi_j)) F_{z_i z_j}(phi_vec)
                              + Gamma(conj(phi_i), phi_j) F_{zbar_i zbar_j}(phi_vec)
                              + 2 Gamma(phi_i, phi_j) F_{z_i zbar_j}(phi_vec) ]
        + sum_i [ L(phi_i) F_{z_i}(phi_vec) + L(conj(phi_i)) F_{zbar_i}(phi_vec) ].
    """
    phis = list(phis)
    if len(phis) != outer.n_slots:
        raise ValueError("one inner polynomial required per slot of the outer function")

    lhs = apply_generator_wirtinger(params, compose(outer, phis))

    conj_phis = [p.conjugate() for p in phis]
    l_phi = [apply_generator_wirtinger(params, p) for p in phis]
    l_conj_phi = [apply_generator_wirtinger(params, p) for p in conj_phis]
    cos_t = params.cos_theta

    # one table for every right-side composition; the left side composes on
    # its own, so the two sides share no intermediate product
    table = MonomialTable(phis)
    rhs = PolyZZbar.zero()
    for i in range(outer.n_slots):
        fz = outer.dslot(i)
        fzbar = outer.dslotbar(i)
        if fz:
            rhs = rhs + l_phi[i] * table.compose(fz)
        if fzbar:
            rhs = rhs + l_conj_phi[i] * table.compose(fzbar)
        for j in range(outer.n_slots):
            fzz = fz.dslot(j)
            if fzz:
                rhs = rhs + cos_t * carre_du_champ(phis[i], conj_phis[j]) * table.compose(fzz)
            fbb = fzbar.dslotbar(j)
            if fbb:
                rhs = rhs + cos_t * carre_du_champ(conj_phis[i], phis[j]) * table.compose(fbb)
            fzb = fz.dslotbar(j)
            if fzb:
                rhs = rhs + 2.0 * cos_t * carre_du_champ(phis[i], phis[j]) * table.compose(fzb)
    return lhs, rhs
