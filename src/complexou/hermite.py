"""Real and complex Hermite polynomials and the conversions between them.

Normalization conventions (probabilist, unit-variance Gaussian):

- real Hermite polynomials H_n are orthonormal against the 1-d weight
  exp(-x^2/2)/sqrt(2*pi); the leading coefficient of H_n is 1/sqrt(n!),
  and they satisfy the three-term recurrence
  H_{n+1}(x) = (x*H_n(x) - sqrt(n)*H_{n-1}(x)) / sqrt(n+1),
  which :func:`_hermite_rows` steps on values for the Gauss-Hermite rule
  and on (z, zbar)-polynomials for :func:`hermite_product_poly`;
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

Pointwise values of the basis on a grid (:func:`basis_values`, which
projections, Gram matrices and decay envelopes read) come from a third
form, the radial Laguerre recurrence, which stays accurate up to
MAX_TOTAL_DEGREE, where the alternating terms of the explicit sum cancel.
The tests check it against the explicit form where that evaluates
accurately.

The degree-l slices {J[m, l-m]} and {H_k(x) H_{l-k}(y)} with z = x + i*y span
the same subspace; :func:`build_basis_transform` realizes both change-of-basis
matrices from their closed-form coefficient sums (never by numerical
inversion, so the mutual-inverse property remains a genuine identity check).

Numerical policy: every normalization coefficient is the correctly rounded
square root of an exact rational of Python integers (:func:`_sqrt_ratio`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .poly import _BLOCK, _Z, _ZBAR, PolyZZbar, _blocks, _lincomb, _worst, _wrap
from .spectral import MAX_TOTAL_DEGREE, SpectralCoeffs

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # i**k by k mod 4

MAX_CREATION_DEGREE = 32
MAX_TRANSFORM_DEGREE = 64

# Point blocks of :func:`_basis_blocks`: equal blocks of at most
# max(_BLOCK_POINTS, poly._BLOCK // basis size) points, so a block's basis
# grid holds at most poly._BLOCK values unless that leaves fewer than 64
# points.  The floor matters at high degree: at the basis limit the grid rule
# alone gives 7-point blocks, which made check_orthonormality(64, order=66)
# three times slower than 64-point ones.
_BLOCK_POINTS = 64


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
        fwd, inv = self.forward, self.inverse
        pairs = ((fwd, inv), (fwd, fwd.conj().T), (inv, inv.conj().T))
        return _worst(float(np.max(np.abs(a @ b - eye))) for a, b in pairs)


def _hermite_rows(x, count: int) -> list:
    """H_0(x), ..., H_{count-1}(x), count >= 1, by the three-term recurrence
    H_{k+1} = (x H_k - sqrt(k) H_{k-1}) / sqrt(k+1): the one place it is stepped.

    x is a float array, which gives values (as :func:`quadrature.gauss_hermite_rule`
    reads them), or a PolyZZbar, which gives polynomials in (z, zbar) (as
    :func:`hermite_product_poly` reads them); only x**0, *, - and / are used.
    """
    rows = [x**0, x][:count]
    for k in range(1, count - 1):
        rows.append((x * rows[k] - math.sqrt(k) * rows[k - 1]) / math.sqrt(k + 1))
    return rows


def hermite_product_poly(kx: int, ky: int) -> PolyZZbar:
    """H_kx(x) * H_ky(y) as a (z, zbar)-polynomial, for kx, ky in
    [0, MAX_TOTAL_DEGREE].

    Steps :func:`_hermite_rows` on x = (z + zbar)/2 and y = -i(z - zbar)/2;
    used to cross-check the basis transform against exact polynomial algebra.
    """
    _check_degrees(kx, 0, MAX_TOTAL_DEGREE)
    _check_degrees(0, ky, MAX_TOTAL_DEGREE)
    x = (_Z + _ZBAR) * 0.5
    y = (_Z - _ZBAR) * (-0.5j)
    return _hermite_rows(x, kx + 1)[kx] * _hermite_rows(y, ky + 1)[ky]


def creation_z(p: PolyZZbar) -> PolyZZbar:
    """Creation operator a*: the L2(gamma)-adjoint of d/dz."""
    return -p.wirtinger_dzbar() + _Z * p * 0.5


def creation_zbar(p: PolyZZbar) -> PolyZZbar:
    """Creation operator abar*: the L2(gamma)-adjoint of d/dzbar."""
    return -p.wirtinger_dz() + _ZBAR * p * 0.5


def _check_degrees(m: int, n: int, limit: int) -> None:
    if m < 0 or n < 0 or m + n > limit:
        raise ValueError(f"need m, n >= 0 and m + n <= {limit}, got ({m}, {n})")


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for integers num >= 0 and den > 0.

    The integer root exceeds 2^64, so it is sqrt(num / den) 2^s to better
    than 2^-64 relative; the int -> float conversion rounds it once, and
    ldexp is exact.
    """
    s = 64 + max(num.bit_length(), den.bit_length())
    return math.ldexp(float(math.isqrt((num << 2 * s) // den)), -s)


@lru_cache(maxsize=None)
def complex_hermite(m: int, n: int) -> PolyZZbar:
    """Complex Hermite polynomial J[m,n] from the explicit closed form."""
    _check_degrees(m, n, MAX_TOTAL_DEGREE)
    den = math.factorial(m) * math.factorial(n) << (m + n)
    # the band [m - r, n - r]; the r = 0 corner is nonzero, so c is trimmed
    c = np.zeros((m + 1, n + 1), dtype=complex)
    for r in range(min(m, n) + 1):
        num = math.comb(m, r) * math.comb(n, r) * math.factorial(r) << r
        c[m - r, n - r] = (-1) ** r * _sqrt_ratio(num * num, den)
    return _wrap(PolyZZbar, c)


def basis_indices(max_total: int) -> list[tuple[int, int]]:
    """Every (m, n) with m + n <= max_total, by total degree, then by m: the
    order of :meth:`SpectralCoeffs.items_sorted`."""
    return [(m, total - m) for total in range(max_total + 1) for m in range(total + 1)]


def basis_values(max_total: int, pts: np.ndarray) -> np.ndarray:
    """J[m,n](pts), one row per :func:`basis_indices` entry: the basis on a
    grid, as projections and Gram matrices read it.

    Rows come from the radial Laguerre form (Ismail, Trans. AMS 368, 2016):
    for m >= n and a = m - n,

        J[m,n](z) = J[a,0](z) s_n(|z|^2 / 2),   J[a,0](z) = z^a / sqrt(2^a a!),

    where s_k = (-1)^k sqrt(k! a! / (k+a)!) L_k^a is the signed, normalized
    Laguerre polynomial, s_0 = 1, s_{-1} = 0, by its three-term recurrence
    s_{k+1} = ((x - 2k-1-a) s_k - sqrt(k(k+a)) s_{k-1}) / sqrt((k+1)(k+1+a));
    the rows with m < n are the conjugates.  The explicit sum adds alternating
    terms far larger than J, which cancel at high degree; the recurrence does
    not, so it stays accurate up to MAX_TOTAL_DEGREE on the largest nodes.

    The recurrence steps k for every frequency a at once: step k updates the
    rows a = 0 .. max_total - 2k, with per-row scalar columns, so each row
    sees the operations of its own one-frequency recurrence.
    """
    _check_degrees(0, max_total, MAX_TOTAL_DEGREE)
    shape = np.shape(pts)
    z = np.asarray(pts, dtype=complex).ravel()
    x = 0.5 * (z.real**2 + z.imag**2)
    out = np.empty(((max_total + 1) * (max_total + 2) // 2, z.size), dtype=complex)
    radial = np.empty((max_total + 1, z.size), dtype=complex)  # J[a,0](z)
    radial[0] = 1.0
    for a in range(1, max_total + 1):
        radial[a] = radial[a - 1] * z / math.sqrt(2 * a)
    prev, cur = np.zeros((max_total + 1, z.size)), np.ones((max_total + 1, z.size))
    for k in range(max_total // 2 + 1):
        a = np.arange(max_total - 2 * k + 1)
        if k:
            col = a[:, None]
            prev, cur = cur[: a.size], (
                (x - (2 * k - 1 + col)) * cur[: a.size]
                - np.sqrt((k - 1) * (k - 1 + col)) * prev[: a.size]
            ) / np.sqrt(k * (k + col))
        first = (a + 2 * k) * (a + 2 * k + 1) // 2  # rows of (0, a + 2k)
        out[first + a + k] = radial[: a.size] * cur  # J[a+k, k]
        out[first[1:] + k] = np.conjugate(out[first[1:] + a[1:] + k])  # J[k, a+k]
    return out.reshape(out.shape[:1] + shape)


def _mirror_defect(max_degree: int, vals: np.ndarray) -> float:
    """The worst |J[n,m] - conj(J[m,n])| over the rows with m < n of a
    :func:`basis_values` grid.  Degree l holds (m, l-m) at rows first + m, so its
    rows with m < n and their partners (l-m, m) are two slices, one read backwards."""
    defects = []
    for l in range(1, max_degree + 1):
        first, count = l * (l + 1) // 2, (l + 1) // 2
        rest, partner = vals[first : first + count], vals[first + l : first + l - count : -1]
        defects.append(np.max(np.abs(rest - np.conjugate(partner)), initial=0.0))
    return _worst(defects)


def _basis_blocks(max_total: int, pts: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, basis_values(max_total, pts[lo:hi])) over equal point blocks
    of the flat array pts, in order: the basis grid one block at a time, as
    the Gram matrix and quadrature projections sum over it.  Each block's
    grid is the caller's to overwrite."""
    size = (max_total + 1) * (max_total + 2) // 2
    for lo, hi in _blocks(pts.size, max(_BLOCK_POINTS, _BLOCK // size)):
        yield lo, hi, basis_values(max_total, pts[lo:hi])


def _creation_scale(m: int, n: int) -> float:
    """sqrt(2^(m+n) / (m! n!)), which normalizes (a*)^m (abar*)^n 1 to J[m,n]."""
    return _sqrt_ratio(1 << (m + n), math.factorial(m) * math.factorial(n))


def complex_hermite_via_creation(m: int, n: int) -> PolyZZbar:
    """J[m,n] by iterating the creation operators on 1 (cross-check route)."""
    _check_degrees(m, n, MAX_CREATION_DEGREE)
    p = PolyZZbar.constant(1.0)
    for _ in range(n):
        p = creation_zbar(p)
    for _ in range(m):
        p = creation_z(p)
    return p * _creation_scale(m, n)


def creation_ladder(max_total: int) -> Iterator[tuple[int, int, PolyZZbar]]:
    """(m, n, J[m,n]) by the creation route for every m + n <= max_total.

    Shares prefixes: (abar*)^n 1 is carried from one n to the next, and for
    each n the m ladder applies a* once per step, so the whole basis costs
    O(max_total^2) operator applications.  Each J is the same sequence of
    operations as :func:`complex_hermite_via_creation`, hence bitwise equal.
    Yields n = 0, 1, ... in the outer loop and m = 0, 1, ... in the inner one.
    """
    _check_degrees(0, max_total, MAX_CREATION_DEGREE)
    base = PolyZZbar.constant(1.0)
    for n in range(max_total + 1):
        if n:
            base = creation_zbar(base)
        p = base
        for m in range(max_total - n + 1):
            if m:
                p = creation_z(p)
            yield m, n, p * _creation_scale(m, n)


def monomial_to_hermite(m: int, n: int) -> SpectralCoeffs:
    """Expansion of the monomial z^m zbar^n over the J basis:

    z^m zbar^n = sum_{k=0}^{min(m,n)} C(m,k) C(n,k) k!
                 sqrt((m-k)! (n-k)! 2^(m+n)) J[m-k, n-k].
    """
    _check_degrees(m, n, MAX_TOTAL_DEGREE)
    # the band [m - k, n - k]; the k = 0 corner is nonzero, so c is trimmed
    c = np.zeros((m + 1, n + 1), dtype=complex)
    for k in range(min(m, n) + 1):
        lead = math.comb(m, k) * math.comb(n, k) * math.factorial(k)
        num = lead * lead * math.factorial(m - k) * math.factorial(n - k) << (m + n)
        c[m - k, n - k] = _sqrt_ratio(num, 1)
    return _wrap(SpectralCoeffs, c)


def synthesize(coeffs: SpectralCoeffs) -> PolyZZbar:
    """Rebuild the polynomial sum b[m,n] * J[m,n] from its coefficients."""
    return _wrap(
        PolyZZbar,
        _lincomb([(c, complex_hermite(m, n)._c) for (m, n), c in coeffs.items_sorted()]),
    )


def project_monomials(p: PolyZZbar) -> SpectralCoeffs:
    """Exact J-basis coefficients of a polynomial, termwise via the monomial
    expansion (no quadrature)."""
    return _wrap(
        SpectralCoeffs,
        _lincomb([(c, monomial_to_hermite(a, b)._c) for (a, b), c in p.items_sorted()]),
    )


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
    # fact[j] = j! (l-j)!, the factorials under both square roots
    fact = [math.factorial(j) * math.factorial(l - j) for j in range(l + 1)]
    forward = np.zeros((l + 1, l + 1), dtype=complex)
    inverse = np.zeros((l + 1, l + 1), dtype=complex)
    for m in range(l + 1):
        for k in range(l + 1):
            # J[m, l-m] over H_k(x) H_{l-k}(y)
            s_fwd = sum(
                math.comb(m, r) * math.comb(l - m, k - r) * (-1) ** ((l - m - k + r) % 2)
                for r in range(k + 1)
            )
            root = _sqrt_ratio(fact[k], fact[m] << l)
            forward[m, k] = _I_POW[(l - k) % 4] * s_fwd * root

            # H_k(x) H_{l-k}(y) over J[m, l-m]
            s_inv = sum(
                math.comb(k, r) * math.comb(l - k, m - r) * (-1) ** ((m - r) % 2)
                for r in range(m + 1)
            )
            root = _sqrt_ratio(fact[m], fact[k] << l)
            inverse[k, m] = _I_POW[(l - k) % 4] * s_inv * root
    return BasisTransform(l, forward, inverse)
