"""Expansion coefficients over the complex Hermite basis of L2(gamma).

A function f with finite expansion f = sum b[m,n] * J[m,n] is carried as one
2-D complex array whose entry ``[m, n]`` is b[m,n]: like
:class:`~.poly.PolyZZbar`, a :class:`~.poly._Coeffs`, summed, differenced
and scaled by the same array helpers (``poly._sum``, ``poly._times``), and
trimmed so that its last row and column each hold a nonzero entry
(the zero expansion has shape (0, 0)), read-only, compared exactly.  Because
the basis is orthonormal, Parseval gives ``norm_sq() == sum |b[m,n]|**2`` for
the squared L2(gamma) norm, and an operator that is diagonal in the basis is
one elementwise product with its multiplier grid (:meth:`SpectralCoeffs.apply_diagonal`).
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

import numpy as np

from .poly import MAX_TOTAL_DEGREE, _Coeffs, _number, _sum, _times, _wrap

Scalar = Union[int, float, complex]


class SpectralCoeffs(_Coeffs):
    """Finite expansion sum b[m,n] J[m,n]; entry [m, n] of the array is b[m,n]."""

    __slots__ = ()
    _INDEX = ("m", "n")
    _WHAT = "indices"
    _MAX_DEGREE = MAX_TOTAL_DEGREE

    def items_sorted(self) -> list[tuple[tuple[int, int], complex]]:
        """Entries sorted by (m + n, m), the order used in serialized output."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

    def norm_sq(self) -> float:
        """Squared L2(gamma) norm via Parseval."""
        return float(np.sum(np.abs(self._c) ** 2))

    def __repr__(self) -> str:
        body = ", ".join(f"({m},{n}): {c:g}" for (m, n), c in self.items_sorted())
        return f"SpectralCoeffs({{{body}}})"

    def __add__(self, other: "SpectralCoeffs") -> "SpectralCoeffs":
        if not isinstance(other, SpectralCoeffs):
            return NotImplemented
        return _wrap(SpectralCoeffs, _sum(self._c, other._c))

    def __sub__(self, other: "SpectralCoeffs") -> "SpectralCoeffs":
        if not isinstance(other, SpectralCoeffs):
            return NotImplemented
        return _wrap(SpectralCoeffs, _sum(self._c, other._c, np.subtract))

    def __mul__(self, scalar: Scalar) -> "SpectralCoeffs":
        return _wrap(SpectralCoeffs, _times(self._c, complex(scalar)))

    __rmul__ = __mul__

    def apply_diagonal(
        self, multiplier: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> "SpectralCoeffs":
        """The diagonal operator b[m,n] -> g[m,n] * b[m,n], where the grid
        ``g = multiplier(m, n)`` is evaluated once over the index arrays of the
        coefficient array; entries that come out exactly 0 are dropped."""
        return _wrap(SpectralCoeffs, _times(self._c, multiplier(*np.indices(self._c.shape))))

    def map_terms(self, fn) -> "SpectralCoeffs":
        """Termwise map b[m,n] -> fn(m, n, b[m,n]); exact zeros are dropped."""
        return SpectralCoeffs({(m, n): fn(m, n, c) for (m, n), c in self.terms.items()})

    # -- serialization ------------------------------------------------------

    def to_json_obj(self, theta: float | None = None) -> dict:
        """JSON form: {"theta": optional, "coeffs": [{m, n, re, im}, ...]}."""
        obj: dict = {}
        if theta is not None:
            obj["theta"] = float(theta)
        obj["coeffs"] = super().to_json_obj()
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> tuple["SpectralCoeffs", float | None]:
        """Parse the JSON form: "coeffs" is read as :meth:`_Coeffs.from_json_obj`
        reads a list (m + n at most ``MAX_TOTAL_DEGREE``), and theta, if
        given, must be a number; anything else raises ValueError."""
        if not isinstance(obj, Mapping) or not isinstance(obj.get("coeffs"), list):
            raise ValueError('coefficient input needs a "coeffs" list')
        coeffs, theta = super().from_json_obj(obj["coeffs"]), obj.get("theta")
        return coeffs, (None if theta is None else _number(theta, "theta"))
