"""Real and complex Hermite polynomials and the conversions between them.

Normalization conventions (probabilist, unit-variance Gaussian):

- real Hermite polynomials H_n are orthonormal against the 1-d weight
  exp(-x^2/2)/sqrt(2*pi); the leading coefficient of H_n is 1/sqrt(n!),
  and they satisfy the three-term recurrence
  H_{n+1}(x) = (x*H_n(x) - sqrt(n)*H_{n-1}(x)) / sqrt(n+1);
- complex Hermite polynomials J[m,n] are orthonormal in L2(gamma), where
  gamma is the standard planar Gaussian (each real coordinate variance 1,
  so E|z|^2 = 2).

J[m,n] is built by two independent routes that must agree:

1. the explicit closed form

       J[m,n](z) = (m! n! 2^(m+n))^(-1/2)
                   * sum_{r=0}^{min(m,n)} (-1)^r r! 2^r C(m,r) C(n,r)
                     z^(m-r) zbar^(n-r),

2. iterating the creation operators on the constant 1,

       a*  : p -> -dp/dzbar + (z/2) p
       abar*: p -> -dp/dz   + (zbar/2) p
       J[m,n] = sqrt(2^(m+n)/(m! n!)) (a*)^m (abar*)^n 1.

The degree-l slices {J[m, l-m]} and {H_k(x) H_{l-k}(y)} with z = x + i*y span
the same subspace; :func:`build_basis_transform` realizes both change-of-basis
matrices from their closed-form coefficient sums (never by numerical
inversion, so the mutual-inverse property remains a genuine identity check).

Numerical policy: binomial coefficients are exact integers; every factorial
ratio under a square root is accumulated in log space (lgamma) so the stated
ranges (total degree up to 64) stay far from overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly import PolyZZbar
from .spectral import MAX_TOTAL_DEGREE, SpectralCoeffs

_LN2 = math.log(2.0)
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # i**k by k mod 4

MAX_CREATION_DEGREE = 32
MAX_TRANSFORM_DEGREE = 16


@dataclass(frozen=True)
class RealHermite:
    """Orthonormal probabilist Hermite polynomial of degree n.

    ``coeffs`` holds ascending power coefficients; coeffs[n] == 1/sqrt(n!).
    """

    n: int
    coeffs: np.ndarray

    def eval(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)


@dataclass(frozen=True)
class BasisTransform:
    """Degree-l change of basis between {H_k(x)H_{l-k}(y)} and {J[m, l-m]}.

    forward[m, k] is the coefficient of H_k(x)H_{l-k}(y) in J[m, l-m];
    inverse[k, m] is the coefficient of J[m, l-m] in H_k(x)H_{l-k}(y).
    Both matrices are unitary and mutually inverse (both bases are
    orthonormal in L2(gamma)).
    """

    degree: int
    forward: np.ndarray
    inverse: np.ndarray

    def residual(self) -> float:
        """Worst entry of forward @ inverse - I and of both unitarity defects."""
        eye = np.eye(self.degree + 1)
        return max(
            float(np.max(np.abs(self.forward @ self.inverse - eye))),
            float(np.max(np.abs(self.forward @ self.forward.conj().T - eye))),
            float(np.max(np.abs(self.inverse @ self.inverse.conj().T - eye))),
        )


def real_hermite(n: int) -> RealHermite:
    """Orthonormal real Hermite polynomial H_n by the three-term recurrence."""
    if not 0 <= n <= MAX_TOTAL_DEGREE:
        raise ValueError(f"n must be in [0, {MAX_TOTAL_DEGREE}], got {n}")
    prev = np.array([1.0])  # H_0
    if n == 0:
        return RealHermite(0, prev)
    cur = np.array([0.0, 1.0])  # H_1 = x
    for k in range(1, n):
        nxt = np.zeros(k + 2)
        nxt[1:] = cur
        nxt[: k] -= math.sqrt(k) * prev
        nxt /= math.sqrt(k + 1)
        prev, cur = cur, nxt
    return RealHermite(n, cur)


def hermite_product_poly(kx: int, ky: int) -> PolyZZbar:
    """H_kx(x) * H_ky(y) as a (z, zbar)-polynomial.

    Substitutes x = (z + zbar)/2 and y = -i(z - zbar)/2 and multiplies out;
    used to cross-check the basis transform against exact polynomial algebra.
    """
    x = (PolyZZbar.z() + PolyZZbar.zbar()) * 0.5
    y = (PolyZZbar.z() - PolyZZbar.zbar()) * (-0.5j)

    def horner(coeffs: np.ndarray, arg: PolyZZbar) -> PolyZZbar:
        acc = PolyZZbar.zero()
        for c in coeffs[::-1]:
            acc = acc * arg + complex(c)
        return acc

    return horner(real_hermite(kx).coeffs, x) * horner(real_hermite(ky).coeffs, y)


def creation_z(p: PolyZZbar) -> PolyZZbar:
    """Creation operator a*: the L2(gamma)-adjoint of d/dz."""
    return -p.wirtinger_dzbar() + PolyZZbar.z() * p * 0.5


def creation_zbar(p: PolyZZbar) -> PolyZZbar:
    """Creation operator abar*: the L2(gamma)-adjoint of d/dzbar."""
    return -p.wirtinger_dz() + PolyZZbar.zbar() * p * 0.5


def _check_degrees(m: int, n: int, limit: int) -> None:
    if m < 0 or n < 0 or m + n > limit:
        raise ValueError(f"need m, n >= 0 and m + n <= {limit}, got ({m}, {n})")


@lru_cache(maxsize=None)
def complex_hermite(m: int, n: int) -> PolyZZbar:
    """Complex Hermite polynomial J[m,n] from the explicit closed form."""
    _check_degrees(m, n, MAX_TOTAL_DEGREE)
    log_norm = -0.5 * (math.lgamma(m + 1) + math.lgamma(n + 1) + (m + n) * _LN2)
    terms: dict[tuple[int, int], complex] = {}
    for r in range(min(m, n) + 1):
        mag = math.comb(m, r) * math.comb(n, r) * math.exp(
            math.lgamma(r + 1) + r * _LN2 + log_norm
        )
        terms[(m - r, n - r)] = complex((-1) ** r * mag)
    return PolyZZbar(terms)


def complex_hermite_via_creation(m: int, n: int) -> PolyZZbar:
    """J[m,n] by iterating the creation operators on 1 (cross-check route)."""
    _check_degrees(m, n, MAX_CREATION_DEGREE)
    p = PolyZZbar.constant(1.0)
    for _ in range(n):
        p = creation_zbar(p)
    for _ in range(m):
        p = creation_z(p)
    scale = math.exp(0.5 * ((m + n) * _LN2 - math.lgamma(m + 1) - math.lgamma(n + 1)))
    return p * scale


def monomial_to_hermite(m: int, n: int) -> SpectralCoeffs:
    """Expansion of the monomial z^m zbar^n over the J basis:

    z^m zbar^n = sum_{k=0}^{min(m,n)} C(m,k) C(n,k) k!
                 sqrt((m-k)! (n-k)! 2^(m+n)) J[m-k, n-k].
    """
    _check_degrees(m, n, MAX_TOTAL_DEGREE)
    terms: dict[tuple[int, int], complex] = {}
    for k in range(min(m, n) + 1):
        mag = math.comb(m, k) * math.comb(n, k) * math.exp(
            math.lgamma(k + 1)
            + 0.5 * (math.lgamma(m - k + 1) + math.lgamma(n - k + 1) + (m + n) * _LN2)
        )
        terms[(m - k, n - k)] = complex(mag)
    return SpectralCoeffs(terms)


def synthesize(coeffs: SpectralCoeffs) -> PolyZZbar:
    """Rebuild the polynomial sum b[m,n] * J[m,n] from its coefficients."""
    out = PolyZZbar.zero()
    for (m, n), c in coeffs.items_sorted():
        out = out + complex_hermite(m, n) * c
    return out


def project_monomials(p: PolyZZbar) -> SpectralCoeffs:
    """Exact J-basis coefficients of a polynomial, termwise via the monomial
    expansion (no quadrature)."""
    out = SpectralCoeffs()
    for (a, b), c in p.items_sorted():
        out = out + monomial_to_hermite(a, b) * c
    return out


def build_basis_transform(degree: int) -> BasisTransform:
    """Both degree-l change-of-basis matrices from their closed-form sums.

    The inverse is built from its own coefficient formula, not by inverting
    the forward matrix, so forward @ inverse == identity genuinely tests the
    pair of identities.  Powers of i use the exponent mod 4; the inner sums
    over r + s = k are exact integer arithmetic (C(a,b) = 0 outside 0<=b<=a).
    """
    l = degree
    if not 0 <= l <= MAX_TRANSFORM_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_TRANSFORM_DEGREE}], got {l}")
    forward = np.zeros((l + 1, l + 1), dtype=complex)
    inverse = np.zeros((l + 1, l + 1), dtype=complex)
    for m in range(l + 1):
        for k in range(l + 1):
            # J[m, l-m] over H_k(x) H_{l-k}(y)
            s_fwd = sum(
                math.comb(m, r) * math.comb(l - m, k - r) * (-1) ** ((l - m - k + r) % 2)
                for r in range(k + 1)
            )
            log_fwd = 0.5 * (
                math.lgamma(k + 1) + math.lgamma(l - k + 1)
                - l * _LN2 - math.lgamma(m + 1) - math.lgamma(l - m + 1)
            )
            forward[m, k] = _I_POW[(l - k) % 4] * s_fwd * math.exp(log_fwd)

            # H_k(x) H_{l-k}(y) over J[m, l-m]
            s_inv = sum(
                math.comb(k, r) * math.comb(l - k, m - r) * (-1) ** ((m - r) % 2)
                for r in range(m + 1)
            )
            log_inv = 0.5 * (
                math.lgamma(m + 1) + math.lgamma(l - m + 1)
                - l * _LN2 - math.lgamma(k + 1) - math.lgamma(l - k + 1)
            )
            inverse[k, m] = _I_POW[(l - k) % 4] * s_inv * math.exp(log_inv)
    return BasisTransform(l, forward, inverse)
