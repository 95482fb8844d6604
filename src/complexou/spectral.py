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
The coefficient-file format is read in one place,
:meth:`SpectralCoeffs.from_json_obj`, whose m + n the basis limit
``MAX_TOTAL_DEGREE`` bounds.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Union

import numpy as np

from .poly import _Coeffs, _sum, _times, _wrap

Scalar = Union[int, float, complex]

# Largest total degree m + n of the basis (the explicit J[m,n] formula and
# every coefficient file); it also bounds the dense array a file fills.
MAX_TOTAL_DEGREE = 64


def _number(v, name: str) -> float:
    """v as a float; ValueError unless v is a number (not a bool) in float
    range and finite (Python's json reads NaN and Infinity)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{name} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of the float range") from exc
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return x


class SpectralCoeffs(_Coeffs):
    """Finite expansion sum b[m,n] J[m,n]; entry [m, n] of the array is b[m,n]."""

    __slots__ = ()
    _INDEX = ("m", "n")
    _WHAT = "indices"

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
    def from_json_obj(cls, obj) -> tuple["SpectralCoeffs", float | None]:
        """Read a coefficient file's JSON: {"theta": optional, "coeffs": [...]}
        or the bare list.  Each entry has the keys m, n, re, im: m and n are
        integers >= 0 with m + n <= ``MAX_TOTAL_DEGREE``, each (m, n) appears
        once, and re, im and theta are finite numbers; anything else raises
        ValueError."""
        if isinstance(obj, list):
            obj = {"coeffs": obj}
        if not isinstance(obj, Mapping) or not isinstance(obj.get("coeffs"), list):
            raise ValueError('coefficient input needs a "coeffs" list')
        terms = {}
        for t in obj["coeffs"]:
            if not isinstance(t, Mapping) or any(k not in t for k in ("m", "n", "re", "im")):
                raise ValueError(f"each coefficient needs the keys m, n, re, im; got {t!r}")
            m, n = t["m"], t["n"]
            # type() rather than isinstance(): JSON true and false are bools, not indices
            if not (type(m) is type(n) is int and m >= 0 and n >= 0 and m + n <= MAX_TOTAL_DEGREE):
                raise ValueError(
                    f"m and n must be integers >= 0 with m + n <= {MAX_TOTAL_DEGREE}; got {t!r}"
                )
            if (m, n) in terms:
                raise ValueError(f"coefficient (m, n) = {(m, n)} given more than once")
            terms[(m, n)] = complex(_number(t["re"], "re"), _number(t["im"], "im"))
        theta = obj.get("theta")
        return cls(terms), (None if theta is None else _number(theta, "theta"))
