"""Sparse expansion coefficients over the complex Hermite basis of L2(gamma).

A function f with finite expansion f = sum b[m,n] * J[m,n] is carried as the
sparse map (m, n) -> b[m,n].  Because the basis is orthonormal, Parseval gives
``norm_sq() == sum |b[m,n]|**2`` for the squared L2(gamma) norm, and linear
operators diagonal in the basis act termwise on the map.

Canonical form stores no coefficient that is exactly 0; values are immutable
after construction.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Iterable, Mapping, Union

Scalar = Union[int, float, complex]

_ENTRY_KEYS = ("m", "n", "re", "im")


class SpectralCoeffs:
    """Finite-support coefficient map (m, n) -> complex."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], complex] | None = None):
        out: dict[tuple[int, int], complex] = {}
        for (m, n), c in (terms or {}).items():
            if m < 0 or n < 0:
                raise ValueError(f"indices must be nonnegative, got {(m, n)}")
            c = complex(c)
            if c != 0:
                out[(int(m), int(n))] = c
        self._terms = MappingProxyType(out)

    @property
    def terms(self) -> Mapping[tuple[int, int], complex]:
        return self._terms

    def coeff(self, m: int, n: int) -> complex:
        return self._terms.get((m, n), 0j)

    def items_sorted(self) -> list[tuple[tuple[int, int], complex]]:
        """Entries sorted by (m + n, m), the order used in serialized output."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]))

    @property
    def max_total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(m + n for m, n in self._terms)

    def norm_sq(self) -> float:
        """Squared L2(gamma) norm via Parseval."""
        return sum(abs(c) ** 2 for c in self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpectralCoeffs):
            return dict(self._terms) == dict(other._terms)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"({m},{n}): {c:g}" for (m, n), c in self.items_sorted())
        return f"SpectralCoeffs({{{body}}})"

    def __add__(self, other: "SpectralCoeffs") -> "SpectralCoeffs":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) + c
        return SpectralCoeffs(out)

    def __sub__(self, other: "SpectralCoeffs") -> "SpectralCoeffs":
        return self + (other * -1.0)

    def __mul__(self, scalar: Scalar) -> "SpectralCoeffs":
        c = complex(scalar)
        return SpectralCoeffs({k: v * c for k, v in self._terms.items()})

    __rmul__ = __mul__

    def map_terms(self, fn) -> "SpectralCoeffs":
        """Termwise map b[m,n] -> fn(m, n, b[m,n]); exact zeros are dropped."""
        return SpectralCoeffs({(m, n): fn(m, n, c) for (m, n), c in self._terms.items()})

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

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
        if not isinstance(obj, Mapping) or not isinstance(obj.get("coeffs"), list):
            raise ValueError('coefficient input needs a "coeffs" list')
        terms = {}
        for t in obj["coeffs"]:
            if not isinstance(t, Mapping) or any(k not in t for k in _ENTRY_KEYS):
                raise ValueError(f"each coefficient needs the keys m, n, re, im; got {t!r}")
            try:
                terms[(int(t["m"]), int(t["n"]))] = complex(float(t["re"]), float(t["im"]))
            except TypeError as exc:
                raise ValueError(f"non-numeric coefficient entry {t!r}") from exc
        coeffs = cls(terms)
        theta = obj.get("theta")
        return coeffs, (float(theta) if theta is not None else None)

    def to_json(self, theta: float | None = None) -> str:
        return json.dumps(self.to_json_obj(theta), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> tuple["SpectralCoeffs", float | None]:
        return cls.from_json_obj(json.loads(text))
