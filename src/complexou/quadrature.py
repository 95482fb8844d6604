"""Gauss-Hermite quadrature against the standard planar Gaussian gamma.

Probabilist convention throughout: the 1-d weight is exp(-x^2/2)/sqrt(2*pi)
(unit variance, weights summing to 1), and the planar measure gamma is its
tensor square, d(gamma) = (1/2*pi) exp(-(x^2+y^2)/2) dx dy, so each coordinate
of z = x + i*y has variance 1 and E|z|^2 = 2.

Nodes and weights come from the Golub-Welsch construction: eigenvalues of the
symmetric tridiagonal Jacobi matrix of the (monic probabilist) Hermite
recurrence, with weights given by the squared first eigenvector components.
The rule of order K integrates polynomials of degree <= 2K-1 exactly; the
default order for projections is max_total_degree + 2, exact with margin.

Functions accept anything "evaluable on the complex plane": an object exposing
``.eval(points)`` (such as PolyZZbar) or a plain vectorized callable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .hermite import basis_indices, basis_values
from .spectral import SpectralCoeffs

MAX_ORDER = 128


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
    """Golub-Welsch rule of the given order for the unit-variance Gaussian."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if order == 1:
        return QuadratureRule(np.zeros(1), np.ones(1))
    diag = np.zeros(order)
    offdiag = np.sqrt(np.arange(1.0, order))
    nodes, vectors = eigh_tridiagonal(diag, offdiag)
    weights = vectors[0] ** 2  # total mass 1 in the probabilist normalization
    # Symmetrize: the exact rule is symmetric about 0; averaging the solver
    # output with its mirror removes asymmetric eigenvalue noise.
    nodes = 0.5 * (nodes - nodes[::-1])
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
    polynomial of that degree (the default_rule is).
    """
    if max_total_degree < 0:
        raise ValueError("max_total_degree must be >= 0")
    pts, wts = rule.tensor_points()
    fw = _eval_at(f, pts) * wts
    rows = zip(basis_indices(max_total_degree), basis_values(max_total_degree, pts))
    return SpectralCoeffs({mn: complex(np.sum(fw * np.conjugate(row))) for mn, row in rows})
