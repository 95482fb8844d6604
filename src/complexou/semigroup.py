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
from dataclasses import dataclass

import numpy as np

from .operator import GeneratorParams, eigenvalue
from .poly import PolyWWbar
from .quadrature import QuadratureRule, _eval_at, integrate_gamma
from .spectral import SpectralCoeffs


@dataclass(frozen=True)
class PropagatorParams:
    """The pair (generator parameters, time t >= 0) selecting P_t.

    The complex decay factor e^{-e^{i*theta} t} and the per-coordinate noise
    standard deviation sqrt(1 - e^{-2 t cos(theta)}) are computed once at
    construction and reused everywhere, so all routes share bitwise-identical
    constants.
    """

    params: GeneratorParams
    t: float
    decay: complex = 0j
    noise_std: float = 0.0

    def __post_init__(self):
        if not self.t >= 0.0:
            raise ValueError(f"t must be >= 0 (semigroups are forward-only), got {self.t}")
        object.__setattr__(self, "decay", cmath.exp(-self.params.drift * self.t))
        object.__setattr__(
            self,
            "noise_std",
            math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * self.t * self.params.cos_theta))),
        )

    @property
    def theta(self) -> float:
        return self.params.theta


def adjoint_semigroup(p: PropagatorParams) -> PropagatorParams:
    """The adjoint propagator: theta -> -theta, same t."""
    return PropagatorParams(GeneratorParams(-p.params.theta), p.t)


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
    complex scalar or an ndarray (evaluated pointwise, one quadrature sweep).
    Exact when phi is a polynomial whose degree the rule covers.
    """
    pts, wts = rule.tensor_points()
    xv = np.asarray(x, dtype=complex)
    args = p.decay * xv[..., None] + p.noise_std * pts
    vals = _eval_at(phi, args) @ wts
    return complex(vals) if xv.ndim == 0 else vals


def _nested_mehler(outer: PropagatorParams, inner: PropagatorParams, phi, x, rule):
    """(P^outer P^inner phi)(x): the inner decay acts on the outer-shifted point."""
    pts, wts = rule.tensor_points()
    xv = np.asarray(x, dtype=complex)
    mid = outer.decay * xv[..., None] + outer.noise_std * pts
    args = inner.decay * mid[..., None] + inner.noise_std * pts
    vals = (_eval_at(phi, args) @ wts) @ wts
    return complex(vals) if xv.ndim == 0 else vals


def normality_commutator(p: PropagatorParams, phi, x, rule: QuadratureRule):
    """Evaluate (P_t P_t* phi)(x), (P_t* P_t phi)(x), and the fused form.

    The fused form collapses the two-step average into one Mehler average
    with real decay e^{-2 t cos(theta)} and noise variance 1 - e^{-4 t
    cos(theta)}, i.e. the theta = 0 propagator at time 2 t cos(theta).
    All three must agree for every x; their equality is what makes the
    semigroup normal.
    """
    adj = adjoint_semigroup(p)
    lhs = _nested_mehler(p, adj, phi, x, rule)
    rhs = _nested_mehler(adj, p, phi, x, rule)
    fused_p = PropagatorParams(GeneratorParams(0.0), 2.0 * p.t * p.params.cos_theta)
    fused = semigroup_mehler(fused_p, phi, x, rule)
    return lhs, rhs, fused


def semigroup_pairing(p: PropagatorParams, phi, psi, rule: QuadratureRule) -> complex:
    """<P_t phi, psi> in L^2(gamma): outer quadrature in x, Mehler inside.

    With the adjoint propagator on psi instead, the value must match:
    <P_t^theta phi, psi> = <phi, P_t^{-theta} psi>.
    """
    pts, wts = rule.tensor_points()
    left = semigroup_mehler(p, phi, pts, rule)
    right = np.conjugate(_eval_at(psi, pts))
    return complex((left * right) @ wts)


def invariance_residual(p: PropagatorParams, phi, rule: QuadratureRule) -> float:
    """|integral of P_t phi d(gamma) - integral of phi d(gamma)|.

    The left side is a genuine double quadrature (outer in x, Mehler inner),
    not a spectral shortcut, so this really exercises the invariance of gamma.
    """
    pts, wts = rule.tensor_points()
    lhs = complex(semigroup_mehler(p, phi, pts, rule) @ wts)
    rhs = integrate_gamma(rule, phi)
    return abs(lhs - rhs)


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
    from .hermite import complex_hermite

    amplitude = 0.0
    degree = None
    for (m, n), c in coeffs.terms.items():
        if (m, n) == (0, 0):
            continue
        amplitude += abs(c) * abs(complex_hermite(m, n).eval(x))
        degree = m + n if degree is None else min(degree, m + n)
    if degree is None:
        return ErgodicEnvelope(0.0, 0)
    return ErgodicEnvelope(amplitude, degree)


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
