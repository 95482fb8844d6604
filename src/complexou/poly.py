"""Dense polynomial algebra over the commuting formal pair (z, zbar).

A polynomial ``sum c[a,b] * z**a * zbar**b`` is stored as one 2-D complex
array whose entry ``[a, b]`` is the coefficient of ``z**a * zbar**b``.  The two
symbols are treated as independent formal variables; evaluation substitutes
``z = w, zbar = conj(w)``, so every polynomial defines a smooth function of
one complex argument (equivalently of (x, y) with w = x + i*y).

Conventions baked into the representation:

- canonical form: the array is trimmed so that its last row and last column
  each hold a nonzero entry, and the zero polynomial has shape (0, 0); so
  ``p == q`` compares shapes and entries exactly, and arithmetic never
  epsilon-prunes (use :meth:`PolyZZbar.prune` for display),
- absent terms are stored as +0: negation, conjugation and scalar products act
  on the nonzero entries only, and a sum keeps a term of the left operand that
  the right one lacks unchanged, so signed zeros in the printed coefficients
  are those of a term-by-term computation,
- ``terms`` is a read-only map from ``(a, b)`` to the nonzero coefficients,
  built from the array on first use and cached; its order, and the JSON form,
  are ascending in ``(a, b)``,
- ``degree`` is max(a + b) over nonzero terms, and -1 for the zero polynomial,
- the product is the 2-D convolution of the coefficient arrays, summed
  directly (no FFT), so products of Gaussian-integer polynomials are exact,
- the Wirtinger derivatives act formally: d/dz lowers ``a`` (zbar held fixed),
  d/dzbar lowers ``b``,
- ``conjugate`` represents the pointwise complex conjugate of the function:
  it transposes the array and conjugates it, so
  ``conjugate(p).eval(w) == conj(p.eval(w))``.

:class:`~.spectral.SpectralCoeffs` stores basis expansions in the same form
and shares the module-level array helpers (``_from_terms``, ``_sum``,
``_times``, ``_wrap``, ``_term_map``).

:class:`PolyWWbar` generalizes to n complex slots (w_1, wbar_1, ..., w_n,
wbar_n) with a sparse map of exponent tuples; it exists to express outer
functions F for composition F(phi_1, ..., phi_n), and :func:`compose` maps
such an F together with a vector of (z, zbar)-polynomials back into a single
(z, zbar)-polynomial.  :class:`MonomialTable` holds the powers and monomials
of one inner vector, so several compositions over it build each only once.

All values are immutable after construction (arrays are stored read-only) and
safe to share across threads; every operation returns a new object.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Scalar = Union[int, float, complex]

_EMPTY = np.zeros((0, 0), dtype=complex)
_EMPTY.setflags(write=False)


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing all-zero rows and columns; (0, 0) when nothing is left."""
    if c.size and np.count_nonzero(c[-1]) and np.count_nonzero(c[:, -1]):
        return c
    rows, cols = np.nonzero(c)
    if not rows.size:
        return _EMPTY
    return c[: rows.max() + 1, : cols.max() + 1]


def _on_nonzero(ufunc: np.ufunc, c: np.ndarray, *args) -> np.ndarray:
    """``ufunc(c, *args)`` on the nonzero entries of c; the others stay +0."""
    return ufunc(c, *args, out=np.zeros_like(c), where=c != 0)


def _pad(c: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """c zero-padded at the high end to ``shape``."""
    if c.shape == shape:
        return c
    out = np.zeros(shape, dtype=complex)
    out[: c.shape[0], : c.shape[1]] = c
    return out


def _times(c: np.ndarray, factor) -> np.ndarray:
    """Trimmed c * factor (a scalar or an array of c's shape) on c's nonzeros."""
    return _trim(_on_nonzero(np.multiply, c, factor))


def _from_terms(terms: Mapping[tuple[int, int], complex] | None, what: str) -> np.ndarray:
    """Trimmed read-only array with ``[i, j] = terms[(i, j)]``, zeros left out."""
    entries = []
    for (i, j), v in (terms or {}).items():
        if i < 0 or j < 0:
            raise ValueError(f"{what} must be nonnegative, got {(i, j)}")
        v = complex(v)
        if v != 0:
            entries.append((int(i), int(j), v))
    if not entries:
        return _EMPTY
    c = np.zeros((max(e[0] for e in entries) + 1, max(e[1] for e in entries) + 1), complex)
    for i, j, v in entries:
        c[i, j] = v
    c.setflags(write=False)
    return c


def _sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Trimmed x + y; where y is zero, x's entry is kept, signed zeros included."""
    out = np.zeros((max(x.shape[0], y.shape[0]), max(x.shape[1], y.shape[1])), dtype=complex)
    out[: x.shape[0], : x.shape[1]] = x
    overlap = out[: y.shape[0], : y.shape[1]]
    np.add(overlap, y, out=overlap, where=y != 0)
    return _trim(out)


def _wrap(cls, c: np.ndarray):
    """An instance of cls around an already trimmed complex array (not copied)."""
    obj = object.__new__(cls)
    c.setflags(write=False)
    obj._c = c
    obj._terms = None
    return obj


def _term_map(obj) -> Mapping[tuple[int, int], complex]:
    """Read-only map from ``(i, j)`` to the nonzero entries of ``obj._c``, in
    ascending ``(i, j)``; built on first use and cached in ``obj._terms``."""
    if obj._terms is None:
        rows, cols = np.nonzero(obj._c)
        values = obj._c[rows, cols].tolist()
        obj._terms = MappingProxyType(dict(zip(zip(rows.tolist(), cols.tolist()), values)))
    return obj._terms


def _power(base, n: int, one):
    """base ** n by repeated squaring, starting from the unit ``one``."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


class PolyZZbar:
    """Polynomial in (z, zbar) with complex double coefficients."""

    __slots__ = ("_c", "_terms")

    def __init__(self, terms: Mapping[tuple[int, int], complex] | None = None):
        self._c = _from_terms(terms, "exponents")
        self._terms: Mapping[tuple[int, int], complex] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "PolyZZbar":
        return _wrap(cls, _EMPTY)

    @classmethod
    def constant(cls, c: Scalar) -> "PolyZZbar":
        return cls.monomial(0, 0, c)

    @classmethod
    def z(cls) -> "PolyZZbar":
        return cls.monomial(1, 0)

    @classmethod
    def zbar(cls) -> "PolyZZbar":
        return cls.monomial(0, 1)

    @classmethod
    def monomial(cls, a: int, b: int, c: Scalar = 1.0) -> "PolyZZbar":
        if a < 0 or b < 0:
            raise ValueError(f"exponents must be nonnegative, got {(a, b)}")
        c = complex(c)
        if c == 0:
            return _wrap(cls, _EMPTY)
        arr = np.zeros((int(a) + 1, int(b) + 1), dtype=complex)
        arr[-1, -1] = c
        return _wrap(cls, arr)

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, int], complex]:
        return _term_map(self)

    @property
    def degree(self) -> int:
        if not self._c.size:
            return -1
        rows, cols = np.nonzero(self._c)
        return int((rows + cols).max())

    def coeff(self, a: int, b: int) -> complex:
        return self.terms.get((a, b), 0j)

    def max_abs_coeff(self) -> float:
        return float(np.abs(self._c).max()) if self._c.size else 0.0

    def items_sorted(self) -> list[tuple[tuple[int, int], complex]]:
        return list(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self._c.size)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyZZbar):
            return np.array_equal(self._c, other._c)
        if isinstance(other, (int, float, complex)):
            return self == PolyZZbar.constant(other)
        return NotImplemented

    __hash__ = None  # equality is by value; not hashable

    def __repr__(self) -> str:
        if not self._c.size:
            return "PolyZZbar(0)"
        parts = []
        for (a, b), c in self.items_sorted():
            mono = "*".join(
                s for s in (f"z^{a}" if a else "", f"zbar^{b}" if b else "") if s
            )
            parts.append(f"({c:g})" + (f"*{mono}" if mono else ""))
        return "PolyZZbar(" + " + ".join(parts) + ")"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "PolyZZbar" | Scalar) -> "PolyZZbar":
        if isinstance(other, (int, float, complex)):
            other = PolyZZbar.constant(other)
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        return _wrap(PolyZZbar, _sum(self._c, other._c))

    def __radd__(self, other: Scalar) -> "PolyZZbar":
        return self + other

    def __neg__(self) -> "PolyZZbar":
        return _wrap(PolyZZbar, _on_nonzero(np.negative, self._c))

    def __sub__(self, other: "PolyZZbar" | Scalar) -> "PolyZZbar":
        return self + (-other if isinstance(other, PolyZZbar) else -complex(other))

    def __rsub__(self, other: Scalar) -> "PolyZZbar":
        return (-self) + other

    def __mul__(self, other: "PolyZZbar" | Scalar) -> "PolyZZbar":
        if isinstance(other, (int, float, complex)):
            return _wrap(PolyZZbar, _times(self._c, complex(other)))
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        x, y = self._c, other._c
        if not x.size or not y.size:
            return _wrap(PolyZZbar, _EMPTY)
        # Pad both to the product's row width; then the flat 1-D convolution
        # lands [a1, b1] * [a2, b2] on flat index (a1 + a2) * width + b1 + b2.
        rows = x.shape[0] + y.shape[0] - 1
        width = x.shape[1] + y.shape[1] - 1
        flat = np.convolve(
            _pad(x, (x.shape[0], width)).ravel(), _pad(y, (y.shape[0], width)).ravel()
        )
        return _wrap(PolyZZbar, _trim(flat[: rows * width].reshape(rows, width)))

    def __rmul__(self, other: Scalar) -> "PolyZZbar":
        return self * other

    def __truediv__(self, other: Scalar) -> "PolyZZbar":
        return self * (1.0 / complex(other))

    def __pow__(self, n: int) -> "PolyZZbar":
        return _power(self, n, PolyZZbar.constant(1.0))

    # -- calculus -----------------------------------------------------------

    def wirtinger_dz(self) -> "PolyZZbar":
        """Formal d/dz: (a, b) -> (a-1, b) with factor a; zbar held constant."""
        c = self._c
        return _wrap(PolyZZbar, _trim(c[1:] * np.arange(1, c.shape[0])[:, None]))

    def wirtinger_dzbar(self) -> "PolyZZbar":
        """Formal d/dzbar: (a, b) -> (a, b-1) with factor b; z held constant."""
        c = self._c
        return _wrap(PolyZZbar, _trim(c[:, 1:] * np.arange(1, c.shape[1])))

    def conjugate(self) -> "PolyZZbar":
        """Pointwise complex conjugate: swap exponents, conjugate coefficients."""
        return _wrap(PolyZZbar, _on_nonzero(np.conjugate, self._c.T))

    # -- evaluation ---------------------------------------------------------

    def eval(self, w):
        """Evaluate at z = w, zbar = conj(w); w may be a scalar or ndarray.

        Nested Horner accumulation over the coefficient array: the inner loop
        runs Horner in conj(w) along a row from its last nonzero entry down,
        the outer loop in w over the rows.
        """
        scalar = np.isscalar(w) or isinstance(w, complex)
        c = self._c
        if not c.size:
            return 0j if scalar else np.zeros(np.shape(w), dtype=complex)
        wv = np.asarray(w, dtype=complex)
        wbar = np.conjugate(wv)
        nonzero = c != 0
        # each row's length up to its last nonzero entry, 0 for an all-zero row
        lengths = np.where(
            nonzero.any(axis=1), c.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 0
        )
        acc = np.zeros_like(wv)
        inner = np.empty_like(wv)
        for row, n in zip(c[::-1], lengths[::-1].tolist()):
            inner.fill(0)
            for coef in row[n - 1 :: -1] if n else ():
                inner *= wbar
                inner += coef
            acc *= wv
            acc += inner
        return complex(acc) if scalar else acc

    # -- utilities ----------------------------------------------------------

    def prune(self, eps: float) -> "PolyZZbar":
        """Drop terms with |coeff| <= eps (display helper, not used in algebra)."""
        return _wrap(PolyZZbar, _trim(np.where(np.abs(self._c) > eps, self._c, 0)))

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """JSON form: array of {a, b, re, im} sorted by (a, b) ascending."""
        return [
            {"a": a, "b": b, "re": c.real, "im": c.imag}
            for (a, b), c in self.items_sorted()
        ]

    @classmethod
    def from_json_obj(cls, obj: Iterable[Mapping]) -> "PolyZZbar":
        return cls(
            {
                (int(t["a"]), int(t["b"])): complex(float(t["re"]), float(t["im"]))
                for t in obj
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "PolyZZbar":
        return cls.from_json_obj(json.loads(text))


class PolyWWbar:
    """Polynomial in n complex slots and their conjugates.

    Exponent keys are tuples of length 2n: entry 2i is the power of w_i,
    entry 2i+1 the power of wbar_i.  Used as the outer function F in
    compositions F(phi_1, ..., phi_n); for n = 1 this mirrors PolyZZbar.

    Storage stays a sparse map: a dense array over 2n exponents of degree up
    to D has (D+1)**(2n) cells, while an outer function has few terms.
    """

    __slots__ = ("_n_slots", "_terms")

    def __init__(self, n_slots: int, terms: Mapping[tuple[int, ...], complex] | None = None):
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self._n_slots = int(n_slots)
        out: dict[tuple[int, ...], complex] = {}
        for key, c in (terms or {}).items():
            key = tuple(int(e) for e in key)
            if len(key) != 2 * self._n_slots or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {key} for n_slots={n_slots}")
            c = complex(c)
            if c != 0:
                out[key] = c
        self._terms = MappingProxyType(out)

    @classmethod
    def _unchecked(cls, n_slots: int, terms: dict[tuple[int, ...], complex]) -> "PolyWWbar":
        """From valid keys and complex values (not re-validated); drops zeros."""
        obj = object.__new__(cls)
        obj._n_slots = n_slots
        obj._terms = MappingProxyType({k: c for k, c in terms.items() if c != 0})
        return obj

    @classmethod
    def constant(cls, c: Scalar, n_slots: int = 1) -> "PolyWWbar":
        return cls(n_slots, {(0,) * (2 * n_slots): complex(c)})

    @classmethod
    def slot(cls, i: int, n_slots: int = 1) -> "PolyWWbar":
        """The coordinate polynomial w_i."""
        key = [0] * (2 * n_slots)
        key[2 * i] = 1
        return cls(n_slots, {tuple(key): 1.0})

    @classmethod
    def slotbar(cls, i: int, n_slots: int = 1) -> "PolyWWbar":
        """The conjugate coordinate polynomial wbar_i."""
        key = [0] * (2 * n_slots)
        key[2 * i + 1] = 1
        return cls(n_slots, {tuple(key): 1.0})

    @property
    def n_slots(self) -> int:
        return self._n_slots

    @property
    def terms(self) -> Mapping[tuple[int, ...], complex]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyWWbar):
            return self._n_slots == other._n_slots and dict(self._terms) == dict(other._terms)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"PolyWWbar(n_slots={self._n_slots}, terms={dict(self._terms)!r})"

    def _check_compatible(self, other: "PolyWWbar") -> None:
        if self._n_slots != other._n_slots:
            raise ValueError("slot count mismatch")

    def __add__(self, other: "PolyWWbar" | Scalar) -> "PolyWWbar":
        if isinstance(other, (int, float, complex)):
            other = PolyWWbar.constant(other, self._n_slots)
        self._check_compatible(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) + c
        return PolyWWbar._unchecked(self._n_slots, out)

    __radd__ = __add__

    def __neg__(self) -> "PolyWWbar":
        return PolyWWbar._unchecked(self._n_slots, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "PolyWWbar" | Scalar) -> "PolyWWbar":
        return self + (-other if isinstance(other, PolyWWbar) else -complex(other))

    def __mul__(self, other: "PolyWWbar" | Scalar) -> "PolyWWbar":
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return PolyWWbar._unchecked(self._n_slots, {k: v * c for k, v in self._terms.items()})
        self._check_compatible(other)
        out: dict[tuple[int, ...], complex] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
                out[key] = out.get(key, 0j) + c1 * c2
        return PolyWWbar._unchecked(self._n_slots, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolyWWbar":
        return _power(self, n, PolyWWbar.constant(1.0, self._n_slots))

    def _derivative(self, pos: int) -> "PolyWWbar":
        """Formal derivative in the variable at exponent position pos."""
        out: dict[tuple[int, ...], complex] = {}
        for key, c in self._terms.items():
            e = key[pos]
            if e:
                nk = key[:pos] + (e - 1,) + key[pos + 1 :]
                out[nk] = out.get(nk, 0j) + e * c
        return PolyWWbar._unchecked(self._n_slots, out)

    def dslot(self, i: int) -> "PolyWWbar":
        """Formal d/dw_i."""
        return self._derivative(2 * i)

    def dslotbar(self, i: int) -> "PolyWWbar":
        """Formal d/dwbar_i."""
        return self._derivative(2 * i + 1)

    def eval(self, ws: Sequence) -> complex | np.ndarray:
        """Evaluate at slot values ws (scalars or broadcastable arrays).

        Each power w_i**e and wbar_i**e that some term uses is computed once
        and shared by every term, in the same arithmetic as ``w ** e``.
        """
        if len(ws) != self._n_slots:
            raise ValueError("wrong number of slot values")
        ws = [np.asarray(w, dtype=complex) for w in ws]
        bases = [b for w in ws for b in (w, np.conjugate(w))]
        powers: dict[tuple[int, int], np.ndarray] = {}
        acc: np.ndarray | complex = 0j
        for key, c in self._terms.items():
            term = np.asarray(c, dtype=complex)
            for pos, e in enumerate(key):
                if e:
                    if (pos, e) not in powers:
                        powers[pos, e] = bases[pos] ** e
                    term = term * powers[pos, e]
            acc = acc + term
        if all(w.ndim == 0 for w in ws):
            return complex(acc)
        return acc


class MonomialTable:
    """Monomials of an inner vector (phi_1, conj phi_1, ..., phi_n, conj phi_n).

    Each power of a phi_i or conj(phi_i) and each monomial
    ``prod_pos base[pos] ** key[pos]`` is built once, on first use, and reused
    by every composition through the same table.  A monomial is the one of its
    key's prefix (trailing zeros dropped) times one power, so each new key
    costs one product.
    """

    __slots__ = ("_bases", "_powers", "_monomials")

    def __init__(self, inner: PolyZZbar | Sequence[PolyZZbar]):
        phis = [inner] if isinstance(inner, PolyZZbar) else list(inner)
        self._bases = [b for p in phis for b in (p, p.conjugate())]
        # _powers[pos][e - 1] is base[pos] ** e
        self._powers = [[b] for b in self._bases]
        self._monomials = {(): PolyZZbar.constant(1.0)}

    @property
    def n_slots(self) -> int:
        return len(self._bases) // 2

    def _power(self, pos: int, e: int) -> PolyZZbar:
        table = self._powers[pos]
        while len(table) < e:
            table.append(table[-1] * table[0])
        return table[e - 1]

    def _monomial(self, key: tuple[int, ...]) -> PolyZZbar:
        while key and not key[-1]:
            key = key[:-1]
        if key not in self._monomials:
            head = key[:-1]
            power = self._power(len(head), key[-1])
            self._monomials[key] = self._monomial(head) * power if any(head) else power
        return self._monomials[key]

    def compose(self, outer: PolyWWbar | PolyZZbar) -> PolyZZbar:
        """outer(phi_1, ..., phi_n) as sum c * monomial, summed in one array."""
        if isinstance(outer, PolyZZbar):
            outer = PolyWWbar._unchecked(1, dict(outer.terms))
        if outer.n_slots != self.n_slots:
            raise ValueError(
                f"outer has {outer.n_slots} slots but {self.n_slots} inner polynomials given"
            )
        terms = [(c, self._monomial(key)._c) for key, c in outer.terms.items()]
        out = np.zeros(
            (max((m.shape[0] for _, m in terms), default=0),
             max((m.shape[1] for _, m in terms), default=0)),
            dtype=complex,
        )
        # The sum starts at +0, and x + y is -0 only when x and y both are, so
        # no zero of the result is negative: the signed zeros are those of
        # adding the terms one by one with PolyZZbar.__add__.
        for c, m in terms:
            out[: m.shape[0], : m.shape[1]] += c * m
        return _wrap(PolyZZbar, _trim(out))


def compose(outer: PolyWWbar | PolyZZbar, inner) -> PolyZZbar:
    """Exact polynomial composition outer(phi_1, ..., phi_n).

    ``inner`` is a PolyZZbar (single slot) or a sequence of them, one per slot
    of ``outer``; each wbar_i is substituted by the conjugate polynomial of
    phi_i, so eval(compose(F, phi), w) == F.eval([phi.eval(w), ...]) for all w.
    A PolyZZbar outer is accepted as the single-slot case with w = z.  Several
    compositions over the same inner vector share work through one
    :class:`MonomialTable`.
    """
    return MonomialTable(inner).compose(outer)
