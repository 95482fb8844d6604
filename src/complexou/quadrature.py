"""Gauss-Hermite quadrature against the standard planar Gaussian gamma.

Probabilist convention throughout: the 1-d weight is exp(-x^2/2)/sqrt(2*pi)
(unit variance, weights summing to 1), and the planar measure gamma is its
tensor square, d(gamma) = (1/2*pi) exp(-(x^2+y^2)/2) dx dy, so each coordinate
of z = x + i*y has variance 1 and E|z|^2 = 2.

The nodes are the eigenvalues of the symmetric Jacobi matrix of the
orthonormal Hermite recurrence (numpy's dense ``eigvalsh``), symmetrized about
0 and refined by one Newton step on H_K.  The weights are the Christoffel
numbers w_i = 1 / sum_{k<K} H_k(x_i)^2 (Townsend, Trogdon & Olver, IMA J.
Numer. Anal. 36, 2016); unlike squared eigenvector components they keep
their relative accuracy in the tails, so the rule stays accurate up to
MAX_ORDER.  The Newton step and the weights read the recurrence's values
from :func:`hermite._hermite_rows`.  No eigenvectors are computed, and
the module needs numpy only.  The rule of order K integrates polynomials of
degree <= 2K-1 exactly; the default order for projections is
max_total_degree + 2, exact with margin.

Weighted sums over the tensor rule (integrals, inner products, projections,
the basis Gram matrix) are taken here, except semigroup's Mehler sweep and its
two-slot rotation grid.  Functions accept anything evaluable on the plane: an
object with ``.eval(points)`` (such as PolyZZbar) or a vectorized callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import _basis_blocks, _check_degrees, _hermite_rows, _mirror_defect, basis_indices
from .poly import _BLOCK, _blocks, _worst
from .spectral import MAX_TOTAL_DEGREE, SpectralCoeffs

MAX_ORDER = 128

# Rows and columns of the Gram tiles in _gram_tiles: equal tiles of at most
# _GRAM_TILE of the basis rows with m >= n, so a tile product holds at most
# poly._BLOCK entries.
_GRAM_TILE = math.isqrt(_BLOCK)


@dataclass(frozen=True)
class QuadratureRule:
    """1-d probabilist Gauss-Hermite rule, tensorized lazily over (x, y)."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)

    def tensor_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened planar nodes x_i + i*y_j and their product weights."""
        pts = (self.nodes[:, None] + 1j * self.nodes[None, :]).ravel()
        wts = (self.weights[:, None] * self.weights[None, :]).ravel()
        return pts, wts


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Gauss rule of the given order for the unit-variance Gaussian.

    Nodes: eigenvalues of the Jacobi matrix, symmetrized, then one Newton step
    x <- x - H_K(x) / H_K'(x) with H_K' = sqrt(K) H_{K-1}.  Weights: the
    Christoffel numbers 1 / sum_{k<K} H_k(x)^2 at the refined nodes,
    symmetrized; they sum to 1 in the probabilist normalization.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    offdiag = np.sqrt(np.arange(1.0, order))
    nodes = np.linalg.eigvalsh(np.diag(offdiag, -1) + np.diag(offdiag, 1))
    # the exact rule is symmetric about 0; averaging with the mirror removes
    # asymmetric eigenvalue noise (and the recurrence keeps the symmetry)
    nodes = 0.5 * (nodes - nodes[::-1])
    h = _hermite_rows(nodes, order + 1)
    nodes = nodes - h[order] / (math.sqrt(order) * h[order - 1])
    weights = 1.0 / np.sum(np.square(_hermite_rows(nodes, order)), axis=0)
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(nodes, weights)


def _eval_at(f, points: np.ndarray) -> np.ndarray:
    values = f.eval(points) if hasattr(f, "eval") else f(points)
    return np.asarray(values, dtype=complex)


def integrate_gamma(rule: QuadratureRule, f) -> complex:
    """Tensorized integral of f against gamma: sum_ij w_i w_j f(x_i + i*y_j)."""
    pts, wts = rule.tensor_points()
    return complex(np.sum(wts * _eval_at(f, pts)))


def inner_product(rule: QuadratureRule, f, g) -> complex:
    """L2(gamma) inner product <f, g> = integral of f * conj(g) d(gamma)."""
    pts, wts = rule.tensor_points()
    return complex(np.sum(wts * _eval_at(f, pts) * np.conjugate(_eval_at(g, pts))))


def default_rule(max_total_degree: int) -> QuadratureRule:
    """Rule adequate for degree-(2*max_total_degree) products, with margin."""
    return gauss_hermite_rule(max_total_degree + 2)


def project(rule: QuadratureRule, f, max_total_degree: int) -> SpectralCoeffs:
    """Coefficients b[m,n] = <f, J[m,n]> for all m + n <= max_total_degree.

    The rule must be exact for degree 2*max_total_degree products when f is a
    polynomial of that degree (the default_rule is).  The sum runs over the
    point blocks of :func:`hermite._basis_blocks`, one block's basis grid at
    a time, and within a block each coefficient is one ``np.sum`` of its
    weighted row, so a rule of one block gives one sum per coefficient.
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    pts, wts = rule.tensor_points()
    fw = _eval_at(f, pts) * wts
    total = None
    for lo, hi, vals in _basis_blocks(max_total_degree, pts):
        terms = np.multiply(fw[lo:hi], np.conjugate(vals, out=vals), out=vals)
        part = np.sum(terms, axis=1)
        total = part if total is None else total + part
    return SpectralCoeffs(dict(zip(basis_indices(max_total_degree), total.tolist())))


def _gram_tiles(
    max_degree: int, rule: QuadratureRule
) -> tuple[list[list[int]], dict, dict, float]:
    """The upper triangle of two matrices over the basis rows with m >= n,
    under the tensor rule, tile by tile: (tiles, herm, sym, mirror).

    With V those rows on the grid and W = V w, herm = conj(W) @ V^T, which is
    conj(G) on those rows for the Gram matrix G = (J w) @ conj(J)^T of
    {J[m,n] : m+n <= max_degree}, and sym = W @ V^T.  ``tiles`` lists each
    tile's basis rows (in :func:`hermite.basis_indices` order), and herm and
    sym map each tile pair (a, b) with a <= b to its block; the blocks below
    the diagonal are their transposes, conjugated for herm.  ``mirror`` is
    the worst |J[n,m] - conj(J[m,n])| on the grid (0 for
    :func:`hermite.basis_values`).

    A row with m < n is the conjugate of its partner's, so G[(m,n), (k,l)]
    with k < l is sym[(m,n), (l,k)] and every entry of G is an entry of herm
    or sym up to conjugation: each is formed once.  The sum over the points
    runs in the point blocks of :func:`hermite._basis_blocks`, so the kernel
    holds both triangles and one block's grid.
    """
    _check_degrees(0, max_degree, MAX_TOTAL_DEGREE)  # before the tiles are allocated
    pts, wts = rule.tensor_points()
    half = [i for i, (m, n) in enumerate(basis_indices(max_degree)) if m >= n]
    tiles = [half[lo:hi] for lo, hi in _blocks(len(half), _GRAM_TILE)]
    herm = {
        (a, b): np.zeros((len(tiles[a]), len(tiles[b])), dtype=complex)
        for a in range(len(tiles)) for b in range(a, len(tiles))
    }
    sym = {ab: np.zeros_like(block) for ab, block in herm.items()}
    mirror = []
    for lo, hi, vals in _basis_blocks(max_degree, pts):
        mirror.append(_mirror_defect(max_degree, vals))
        rows = [vals[tile] for tile in tiles]
        del vals
        for a, right in enumerate(rows):
            weighted = right * wts[lo:hi]
            left = np.conjugate(weighted)
            for b in range(a, len(rows)):
                herm[a, b] += left @ rows[b].T
                sym[a, b] += weighted @ rows[b].T
    return tiles, herm, sym, _worst(mirror)


def _gram_residual(max_degree: int, rule: QuadratureRule) -> tuple[float, int]:
    """Worst entry of the Gram matrix of {J[m,n] : m+n <= max_degree} under
    the tensor rule minus the identity, and the basis size.

    Every entry of G is one of :func:`_gram_tiles`' up to conjugation: the
    entries between rows with m >= n are herm's, whose diagonal is G's, and
    the others are the entries of sym whose row or column has m > n,
    provided the rows with m < n are their partners' conjugates, whose
    defect is folded in too.  The entries of sym between two rows with
    m = n are not Gram entries: the J[n,n] are real on the grid, so they
    repeat herm's, with no identity subtracted, and are left out.
    """
    tiles, herm, sym, mirror = _gram_tiles(max_degree, rule)
    indices = basis_indices(max_degree)
    radial = [np.array([indices[i][0] == indices[i][1] for i in tile]) for tile in tiles]
    worst = [mirror]
    for (a, b), block in herm.items():
        if a == b:
            block[np.diag_indices_from(block)] -= 1.0
        sym[a, b][np.ix_(radial[a], radial[b])] = 0.0
        worst += (np.max(np.abs(block)), np.max(np.abs(sym[a, b])))
    return _worst(worst), len(indices)
