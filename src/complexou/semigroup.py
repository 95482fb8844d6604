"""The Ornstein-Uhlenbeck semigroup P_t in spectral and Mehler form.

Two independent realizations of the same semigroup:

- spectral multiplier: b[m,n] -> e^{lambda[m,n] t} b[m,n] on basis coefficients,
- Mehler average:      P_t phi(x) = E[ phi(e^{-e^{i*theta} t} x
                                         + sqrt(1 - e^{-2 t cos(theta)}) Y) ]

with Y drawn from the standard planar Gaussian gamma, i.e. Y = Y1 + i*Y2 with
Y1, Y2 independent N(0,1) so that E|Y|^2 = 2 (per-coordinate noise variance
1 - e^{-2 t cos(theta)}).  Their agreement on polynomials is the central
cross-check of this package.

Also provided: the adjoint semigroup (theta -> -theta), the normality
commutation P_t P_t* = P_t* P_t together with its fused single-integral form
(decay e^{-2 t cos(theta)}, noise variance 1 - e^{-4 t cos(theta)}), gamma
invariance, ergodic decay with an explicit envelope, and the unitary
mixing identity that justifies the adjoint computation.

Everything here is pure; quadrature rules are passed in explicitly so callers
control exactness (an order-K rule is exact per real coordinate up to degree
2K - 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .hermite import basis_indices, basis_values
from .operator import GeneratorParams, adjoint_params, eigenvalue
from .poly import _BLOCK, PolyWWbar, _blocks
from .quadrature import QuadratureRule, _eval_at, inner_product, integrate_gamma
from .spectral import SpectralCoeffs


@dataclass(frozen=True)
class PropagatorParams:
    """The pair (generator parameters, time t >= 0) selecting P_t.

    The complex decay factor e^{-e^{i*theta} t} and the per-coordinate noise
    standard deviation sqrt(1 - e^{-2 t cos(theta)}) are computed once at
    construction and reused everywhere, so all routes share bitwise-identical
    constants; neither can be passed in.
    """

    params: GeneratorParams
    t: float
    decay: complex = field(init=False)
    noise_std: float = field(init=False)

    def __post_init__(self):
        if not self.t >= 0.0:
            raise ValueError(f"t must be >= 0 (semigroups are forward-only), got {self.t}")
        object.__setattr__(self, "decay", cmath.exp(-self.params.drift * self.t))
        object.__setattr__(
            self,
            "noise_std",
            math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * self.t * self.params.cos_theta))),
        )

    def transition_moments(self, x0: complex) -> tuple[complex, float]:
        """Mean decay x0 and variance E|Z_t - mean|^2 = 2 noise_std^2 of Z_t from x0."""
        return self.decay * x0, 2.0 * self.noise_std**2


def adjoint_semigroup(p: PropagatorParams) -> PropagatorParams:
    """The adjoint propagator: theta -> -theta, same t."""
    return PropagatorParams(adjoint_params(p.params), p.t)


def semigroup_spectral(p: PropagatorParams, f: SpectralCoeffs) -> SpectralCoeffs:
    """Apply P_t as the diagonal multiplier e^{lambda[m,n] t} on coefficients.

    t = 0 short-circuits to the identity so the fixed point is exact.
    """
    if p.t == 0.0:
        return f
    return f.apply_diagonal(lambda m, n: np.exp(eigenvalue(p.params, m, n) * p.t))


def semigroup_mehler(p: PropagatorParams, phi, x, rule: QuadratureRule):
    """P_t phi at x by Gauss-Hermite quadrature of the Mehler average.

    phi is anything with .eval(points) or a vectorized callable; x may be a
    complex scalar (a complex is returned) or an ndarray (an array of its
    shape), evaluated pointwise.  Exact when phi is a polynomial whose
    degree the rule covers.

    x is swept in blocks of max(4, poly._BLOCK // K^2) of its ravelled
    points (``poly._blocks``), a scalar as 1 point, so a sweep holds one
    block's (rows, K^2) argument and value grids, at most ``poly._BLOCK``
    values below order 65, rather than all of x's.  Each block's ``@ wts``
    is the matrix-vector product of one sweep over all points on fewer rows,
    which gives each row the same bits; no block has 1 row (a 1-row product
    runs as a dot product, which rounds differently) unless x has 1 point.
    """
    pts, wts = rule.tensor_points()
    xv = np.asarray(x, dtype=complex)
    flat = xv.ravel()
    out = np.empty(flat.size, dtype=complex)
    for lo, hi in _blocks(flat.size, max(4, _BLOCK // pts.size)):
        out[lo:hi] = _eval_at(phi, p.decay * flat[lo:hi, None] + p.noise_std * pts) @ wts
    return complex(out[0]) if xv.ndim == 0 else out.reshape(xv.shape)


def normality_commutator(p: PropagatorParams, phi, x, rule: QuadratureRule):
    """Evaluate (P_t P_t* phi)(x), (P_t* P_t phi)(x), and the fused form.

    The fused form collapses the two-step average into one Mehler average
    with real decay e^{-2 t cos(theta)} and noise variance 1 - e^{-4 t
    cos(theta)}, i.e. the theta = 0 propagator at time 2 t cos(theta).
    All three must agree for every x; their equality is what makes the
    semigroup normal.
    """
    adj = adjoint_semigroup(p)
    lhs = semigroup_mehler(p, lambda y: semigroup_mehler(adj, phi, y, rule), x, rule)
    rhs = semigroup_mehler(adj, lambda y: semigroup_mehler(p, phi, y, rule), x, rule)
    fused_p = PropagatorParams(GeneratorParams(0.0), 2.0 * p.t * p.params.cos_theta)
    fused = semigroup_mehler(fused_p, phi, x, rule)
    return lhs, rhs, fused


def semigroup_pairing(p: PropagatorParams, phi, psi, rule: QuadratureRule) -> complex:
    """<P_t phi, psi> in L^2(gamma): outer quadrature in x, Mehler inside.

    With the adjoint propagator on psi instead, the value must match:
    <P_t^theta phi, psi> = <phi, P_t^{-theta} psi>.
    """
    return inner_product(rule, lambda y: semigroup_mehler(p, phi, y, rule), psi)


def invariance_residual(p: PropagatorParams, phi, rule: QuadratureRule) -> float:
    """|integral of P_t phi d(gamma) - integral of phi d(gamma)|.

    The left side is a genuine double quadrature (outer in x, Mehler inner),
    not a spectral shortcut, so this really exercises the invariance of gamma.
    """
    lhs = integrate_gamma(rule, lambda y: semigroup_mehler(p, phi, y, rule))
    return abs(lhs - integrate_gamma(rule, phi))


def ergodic_limit_residual(
    params: GeneratorParams, phi, x: complex, t_large: float, rule: QuadratureRule
) -> float:
    """|P_{t_large} phi(x) - integral of phi d(gamma)|, both by quadrature."""
    if not t_large > 0.0:
        raise ValueError("t_large must be positive")
    val = semigroup_mehler(PropagatorParams(params, t_large), phi, x, rule)
    return abs(val - integrate_gamma(rule, phi))


@dataclass(frozen=True)
class ErgodicEnvelope:
    """Decay bound C * e^{-d t cos(theta)} for |P_t phi(x) - mean|.

    C sums |b[m,n]| * |J[m,n](x)| over the nonconstant terms of phi's basis
    expansion; d is their minimal total degree.  A constant phi gives the
    zero envelope.
    """

    amplitude: float
    degree: int

    def bound(self, params: GeneratorParams, t: float) -> float:
        return self.amplitude * math.exp(-self.degree * t * params.cos_theta)


def ergodic_envelope(coeffs: SpectralCoeffs, x: complex) -> ErgodicEnvelope:
    """Build the decay envelope at the point x from a basis expansion."""
    terms = [(mn, c) for mn, c in coeffs.terms.items() if mn != (0, 0)]
    if not terms:
        return ErgodicEnvelope(0.0, 0)
    top = max(m + n for (m, n), _ in terms)
    j_at_x = dict(zip(basis_indices(top), basis_values(top, np.array([x]))[:, 0].tolist()))
    amplitude = sum(abs(c) * abs(j_at_x[mn]) for mn, c in terms)
    return ErgodicEnvelope(amplitude, min(m + n for (m, n), _ in terms))


def gaussian_rotation_residual(p: PropagatorParams, f: PolyWWbar, rule: QuadratureRule) -> float:
    """Residual of the unitary change of variables behind the adjoint identity.

    With s = noise_std, the mixing matrix

        M = [[ decay, s ], [ -s, conj(decay) ]]

    is unitary (|decay|^2 + s^2 = 1), so (y1, y2) = M (z1, z2) has the same
    law as (z1, z2) under gamma x gamma.  Returns |E f(M z) - E f(z)| by
    tensor quadrature for a two-slot polynomial f.
    """
    if f.n_slots != 2:
        raise ValueError("f must have exactly two slots")
    pts, wts = rule.tensor_points()
    z1 = pts[:, None]
    z2 = pts[None, :]
    w = wts[:, None] * wts[None, :]
    d, s = p.decay, p.noise_std
    mixed = f.eval([d * z1 + s * z2, -s * z1 + d.conjugate() * z2])
    direct = f.eval([z1 + 0.0 * z2, 0.0 * z1 + z2])
    return abs(complex(np.sum(w * mixed)) - complex(np.sum(w * direct)))
