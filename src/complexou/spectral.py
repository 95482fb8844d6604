"""Expansion coefficients over the complex Hermite basis of L2(gamma).

A function f with finite expansion f = sum b[m,n] * J[m,n] is carried as one
2-D complex array whose entry ``[m, n]`` is b[m,n], stored like the
coefficient array of :class:`~.poly.PolyZZbar` and summed by the same array
helpers: trimmed so that its last row and column each hold a nonzero entry
(the zero expansion has shape (0, 0)), read-only, compared exactly.  Because
the basis is orthonormal, Parseval gives ``norm_sq() == sum |b[m,n]|**2`` for
the squared L2(gamma) norm, and an operator that is diagonal in the basis is
one elementwise product with its multiplier grid (:meth:`SpectralCoeffs.apply_diagonal`).
"""

from __future__ import annotations

import json
from typing import Callable, Mapping, Union

import numpy as np

from .poly import _from_terms, _sum, _term_map, _times, _wrap

Scalar = Union[int, float, complex]

_ENTRY_KEYS = ("m", "n", "re", "im")

# Largest total degree m + n of the basis (the explicit J[m,n] formula and
# every coefficient file); it also bounds the dense array a file fills.
MAX_TOTAL_DEGREE = 64


class SpectralCoeffs:
    """Finite expansion sum b[m,n] J[m,n]; entry [m, n] of the array is b[m,n]."""

    __slots__ = ("_c", "_terms")

    def __init__(self, terms: Mapping[tuple[int, int], complex] | None = None):
        self._c = _from_terms(terms, "indices")
        self._terms: Mapping[tuple[int, int], complex] | None = None

    @property
    def terms(self) -> Mapping[tuple[int, int], complex]:
        """Read-only map (m, n) -> b[m,n] of the nonzero coefficients."""
        return _term_map(self)

    def coeff(self, m: int, n: int) -> complex:
        return self.terms.get((m, n), 0j)

    def items_sorted(self) -> list[tuple[tuple[int, int], complex]]:
        """Entries sorted by (m + n, m), the order used in serialized output."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

    def norm_sq(self) -> float:
        """Squared L2(gamma) norm via Parseval."""
        return float(np.sum(np.abs(self._c) ** 2))

    def max_abs_coeff(self) -> float:
        return float(np.abs(self._c).max()) if self._c.size else 0.0

    def __bool__(self) -> bool:
        return bool(self._c.size)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpectralCoeffs):
            return np.array_equal(self._c, other._c)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"({m},{n}): {c:g}" for (m, n), c in self.items_sorted())
        return f"SpectralCoeffs({{{body}}})"

    def __add__(self, other: "SpectralCoeffs") -> "SpectralCoeffs":
        if not isinstance(other, SpectralCoeffs):
            return NotImplemented
        return _wrap(SpectralCoeffs, _sum(self._c, other._c))

    def __sub__(self, other: "SpectralCoeffs") -> "SpectralCoeffs":
        return self + (other * -1.0)

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
        obj["coeffs"] = [
            {"m": m, "n": n, "re": c.real, "im": c.imag}
            for (m, n), c in self.items_sorted()
        ]
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> tuple["SpectralCoeffs", float | None]:
        """Parse the JSON form.  m and n must be integers with m + n at most
        ``MAX_TOTAL_DEGREE``, each (m, n) may appear once, and re, im and theta
        must be numbers; anything else raises ValueError."""
        if not isinstance(obj, Mapping) or not isinstance(obj.get("coeffs"), list):
            raise ValueError('coefficient input needs a "coeffs" list')
        terms = {}
        for t in obj["coeffs"]:
            if not isinstance(t, Mapping) or any(k not in t for k in _ENTRY_KEYS):
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

    def to_json(self, theta: float | None = None) -> str:
        return json.dumps(self.to_json_obj(theta), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> tuple["SpectralCoeffs", float | None]:
        return cls.from_json_obj(json.loads(text))


def _number(v, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{name} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of the float range") from exc
