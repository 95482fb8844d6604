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
  epsilon-prunes,
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
  ``conjugate(p).eval(w) == conj(p.eval(w))``,
- evaluation is nested Horner, w over the rows and conj(w) along each row,
  seeded with each row's last nonzero coefficient so that zero coefficients
  and all-zero rows add nothing; many points are swept in cache-sized
  blocks, with the values of one sweep.

Both :class:`PolyZZbar` and :class:`~.spectral.SpectralCoeffs` (basis
expansions) are :class:`_Coeffs`: the base owns the array, its construction
from a term map whose keys must be pairs of nonnegative integers
(:func:`_int_key`, as for :class:`PolyWWbar`), the cached ``terms``, exact
equality and the JSON entries it writes; only
:meth:`~.spectral.SpectralCoeffs.from_json_obj` reads such entries back.  The
module-level array helpers (``_sum``, ``_times``, ``_wrap``) serve both;
``_lincomb`` sums a linear combination of such arrays in one array, for
compositions and basis sums.

Ops act on the nonzero entries only (one masked ufunc call), so the zeros
stay +0.  Every coefficient array has one negation, ``_on_nonzero(np.negative,
c)``, and one difference, ``_sum(x, y, np.subtract)``: IEEE ``x - y`` is
exactly ``x + (-y)``, so a difference has the bits of adding the negation.
Sums and differences are of two polynomials; a scalar is a polynomial through
``PolyZZbar.constant``.
:func:`_trim` tests corner entries before it counts or scans.

:class:`PolyWWbar` generalizes to n complex slots (w_1, wbar_1, ..., w_n,
wbar_n) with a sparse map of exponent tuples, evaluated by nested Horner over
the exponent positions; it exists to express outer functions F for
composition F(phi_1, ..., phi_n), and :func:`compose` maps
such an F together with a vector of (z, zbar)-polynomials back into a single
(z, zbar)-polynomial.  :class:`MonomialTable` holds the powers and monomials
of one inner vector, so several compositions over it build each only once.

All values are immutable after construction (arrays are stored read-only) and
safe to share across threads; every operation returns a new object.
"""

from __future__ import annotations

import itertools
import operator
from types import MappingProxyType
from typing import Mapping, Sequence, Union

import numpy as np

Scalar = Union[int, float, complex]

_EMPTY = np.zeros((0, 0), dtype=complex)
_EMPTY.setflags(write=False)


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing all-zero rows and columns; (0, 0) when nothing is left.

    A nonzero ``[-1, -1]`` corner, or nonzero ``[-1, 0]`` and ``[0, -1]``
    corners, show that the last row and column hold a nonzero entry; only
    otherwise are they counted, and only if one is all zero is c scanned.
    """
    if c.size and (
        c[-1, -1]
        or (c[-1, 0] and c[0, -1])
        or (np.count_nonzero(c[-1]) and np.count_nonzero(c[:, -1]))
    ):
        return c
    rows, cols = np.nonzero(c)
    if not rows.size:
        return _EMPTY
    return c[: rows.max() + 1, : cols.max() + 1]


def _on_nonzero(ufunc: np.ufunc, c: np.ndarray, *args) -> np.ndarray:
    """``ufunc(c, *args)`` on the nonzero entries of c; the others stay +0."""
    return ufunc(c, *args, out=np.zeros(c.shape, complex), where=c.astype(bool))


def _times(c: np.ndarray, factor) -> np.ndarray:
    """Trimmed c * factor (a scalar or an array of c's shape) on c's nonzeros."""
    return _trim(_on_nonzero(np.multiply, c, factor))


def _sum(x: np.ndarray, y: np.ndarray, ufunc: np.ufunc = np.add) -> np.ndarray:
    """Trimmed x + y, or x - y with ``ufunc=np.subtract``; where y is zero,
    x's entry is kept, signed zeros included.

    IEEE ``x - y`` is exactly ``x + (-y)``, so a difference has the bits of
    adding the negation that :meth:`PolyZZbar.__neg__` builds, without it.
    """
    (xr, xc), (yr, yc) = x.shape, y.shape
    if yr <= xr and yc <= xc:
        out = x.copy()
    else:
        out = np.zeros((max(xr, yr), max(xc, yc)), complex)
        out[:xr, :xc] = x
    overlap = out[:yr, :yc]
    ufunc(overlap, y, out=overlap, where=y.astype(bool))
    return _trim(out)


def _wrap(cls, c: np.ndarray):
    """An instance of cls around an already trimmed complex array (not copied)."""
    obj = object.__new__(cls)
    c.setflags(write=False)
    obj._c = c
    obj._terms = None
    return obj


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


def _lincomb(pairs: Sequence[tuple[complex, np.ndarray]]) -> np.ndarray:
    """Trimmed sum of ``c * a`` over the (c, a) pairs, summed in one zero array.

    The sum starts at +0, and x + y is -0 only when x and y both are, so no
    zero of the result is negative: the signed zeros are those of adding the
    scaled arrays one by one with :func:`_sum`.  Each product is formed
    scalar first; where ``a`` is real, as J[m,n] and the monomial expansions
    are, it has the bits of :func:`_times`, which forms it array first.
    """
    out = np.zeros(
        (max((a.shape[0] for _, a in pairs), default=0),
         max((a.shape[1] for _, a in pairs), default=0)),
        dtype=complex,
    )
    for c, a in pairs:
        out[: a.shape[0], : a.shape[1]] += c * a
    return _trim(out)


def _horner_row(row: list, wbar: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sum_j row[j] * wbar**j by Horner, seeded with the last nonzero
    entry of row (which must have one; trailing zeros are popped off row);
    zero entries are multiplied through, not added."""
    while not row[-1]:
        row.pop()
    out.fill(row[-1])
    for coef in row[-2::-1]:
        out *= wbar
        if coef:
            out += coef
    return out


def _horner(rows: list, w: np.ndarray, wbar: np.ndarray, acc: np.ndarray,
            inner: np.ndarray) -> np.ndarray:
    """acc = the polynomial with coefficient rows ``rows`` (top row first) at
    (w, wbar): Horner in w over the rows, each row's Horner in wbar into inner."""
    _horner_row(rows[0], wbar, acc)
    for row in rows[1:]:
        acc *= w
        if any(row[1:]):
            acc += _horner_row(row, wbar, inner)
        elif row[0]:
            acc += row[0]
    return acc


# Most complex values per block of a sweep over points or paths
# (PolyZZbar.eval, the samplers' steps and sde._abs_dev_sq).  Each array a
# block touches is then at most 256 KiB: an evaluation's w, their conjugates,
# the accumulator and a row's value stay in a 2 MiB L2 cache through the
# sweep's passes, and a sampler step's scratch is one block's normals rather
# than the whole width's.  The blocks are equal (:func:`_blocks`), so none is
# shorter than half of this: numpy multiplies a one-element array in place
# through another loop, which rounds differently.
_BLOCK = 16384


def _blocks(n: int, most: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the fewest equal blocks of at most ``most`` items
    that cover range(n) in order (sizes differ by at most one); none for
    n = 0."""
    k = -(-n // most)
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def _worst(values) -> float:
    """The largest of the floats ``values``, 0.0 if none and NaN if any is NaN
    (Python's max drops a NaN that is not first): the fold of every residual."""
    return float(np.max(np.fromiter(values, float), initial=0.0))


def _int_key(key) -> tuple[int, ...] | None:
    """key as a tuple of Python ints, or None unless each entry is a
    nonnegative integer: a Python or numpy int (``operator.index``), not a
    bool.  The common key, nonnegative Python ints, costs one type test per
    entry."""
    for e in key:
        if type(e) is not int or e < 0:
            break
    else:
        return tuple(key)
    try:
        out = tuple(map(operator.index, key))
    except TypeError:
        return None
    return None if bool in map(type, key) or min(out) < 0 else out


class _Coeffs:
    """Coefficients indexed by (i, j) >= 0, stored as one trimmed, read-only
    2-D complex array whose entry ``[i, j]`` is the coefficient of (i, j).

    A subclass names its two indices (``_INDEX``, also its JSON keys), the
    word for them in errors (``_WHAT``), and its ``items_sorted`` order, which
    is the order of its JSON entries.
    """

    __slots__ = ("_c", "_terms")
    _INDEX: tuple[str, str]
    _WHAT: str

    def __init__(self, terms: Mapping[tuple[int, int], complex] | None = None):
        entries = []
        for key, v in (terms or {}).items():
            index = _int_key(key)
            if index is None or len(index) != 2:
                raise ValueError(f"{self._WHAT} must be nonnegative integers, got {key}")
            v = complex(v)
            if v != 0:
                entries.append((*index, v))
        c = _EMPTY
        if entries:
            rows, cols, _ = zip(*entries)
            c = np.zeros((max(rows) + 1, max(cols) + 1), complex)
            for i, j, v in entries:
                c[i, j] = v
            c.setflags(write=False)
        self._c = c
        self._terms: Mapping[tuple[int, int], complex] | None = None

    @property
    def terms(self) -> Mapping[tuple[int, int], complex]:
        """Read-only map from (i, j) to the nonzero coefficients, in ascending
        (i, j); built from the array on first use and cached."""
        if self._terms is None:
            rows, cols = np.nonzero(self._c)
            values = self._c[rows, cols].tolist()
            self._terms = MappingProxyType(dict(zip(zip(rows.tolist(), cols.tolist()), values)))
        return self._terms

    def coeff(self, i: int, j: int) -> complex:
        return self.terms.get((i, j), 0j)

    def max_abs_coeff(self) -> float:
        return float(np.abs(self._c).max()) if self._c.size else 0.0

    def __bool__(self) -> bool:
        return bool(self._c.size)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return np.array_equal(self._c, other._c)
        return NotImplemented

    __hash__ = None  # equality is by value; not hashable

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """JSON form: an array of {i, j, re, im} in ``items_sorted`` order,
        keyed by the class's index names."""
        i, j = self._INDEX
        return [{i: a, j: b, "re": c.real, "im": c.imag} for (a, b), c in self.items_sorted()]


class PolyZZbar(_Coeffs):
    """Polynomial in (z, zbar) with complex double coefficients."""

    __slots__ = ()
    _INDEX = ("a", "b")
    _WHAT = "exponents"

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
        index = _int_key((a, b))
        if index is None:
            raise ValueError(f"exponents must be nonnegative integers, got {(a, b)}")
        c = complex(c)
        if c == 0:
            return _wrap(cls, _EMPTY)
        arr = np.zeros((index[0] + 1, index[1] + 1), dtype=complex)
        arr[-1, -1] = c
        return _wrap(cls, arr)

    # -- inspection ---------------------------------------------------------

    @property
    def degree(self) -> int:
        if not self._c.size:
            return -1
        rows, cols = np.nonzero(self._c)
        return int((rows + cols).max())

    def items_sorted(self) -> list[tuple[tuple[int, int], complex]]:
        return list(self.terms.items())

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

    def __add__(self, other: "PolyZZbar") -> "PolyZZbar":
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        return _wrap(PolyZZbar, _sum(self._c, other._c))

    def __neg__(self) -> "PolyZZbar":
        return _wrap(PolyZZbar, _on_nonzero(np.negative, self._c))

    def __sub__(self, other: "PolyZZbar") -> "PolyZZbar":
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        return _wrap(PolyZZbar, _sum(self._c, other._c, np.subtract))

    def __mul__(self, other: "PolyZZbar" | Scalar) -> "PolyZZbar":
        if isinstance(other, (int, float, complex)):
            return _wrap(PolyZZbar, _times(self._c, complex(other)))
        if not isinstance(other, PolyZZbar):
            return NotImplemented
        x, y = self._c, other._c
        if not x.size or not y.size:
            return _wrap(PolyZZbar, _EMPTY)
        # Pad both to the product's row width, stacked in one zero array; then
        # the flat 1-D convolution of the two blocks lands [a1, b1] * [a2, b2]
        # on flat index (a1 + a2) * width + b1 + b2.
        (xr, xc), (yr, yc) = x.shape, y.shape
        width = xc + yc - 1
        padded = np.zeros((xr + yr, width), complex)
        padded[:xr, :xc] = x
        padded[xr:, :yc] = y
        flat = np.convolve(padded[:xr].ravel(), padded[xr:].ravel())
        rows = xr + yr - 1
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
        factors = np.arange(1, c.shape[0], dtype=complex)[:, None]
        return _wrap(PolyZZbar, _trim(c[1:] * factors))

    def wirtinger_dzbar(self) -> "PolyZZbar":
        """Formal d/dzbar: (a, b) -> (a, b-1) with factor b; z held constant."""
        c = self._c
        factors = np.arange(1, c.shape[1], dtype=complex)
        return _wrap(PolyZZbar, _trim(c[:, 1:] * factors))

    def conjugate(self) -> "PolyZZbar":
        """Pointwise complex conjugate: swap exponents, conjugate coefficients."""
        return _wrap(PolyZZbar, _on_nonzero(np.conjugate, self._c.T))

    # -- evaluation ---------------------------------------------------------

    def eval(self, w):
        """Evaluate at z = w, zbar = conj(w); w may be a scalar or ndarray.

        Nested Horner over the coefficient array: the outer loop runs Horner in
        w over the rows from the top one down, starting from the top row's
        value, and each row's inner Horner in conj(w) starts from that row's
        last nonzero coefficient.  A zero coefficient costs one multiplication
        and no addition, an all-zero row only the outer multiplication, and a
        row whose one nonzero coefficient is its first adds that scalar.

        More than ``_BLOCK`` points are split into equal blocks of at most
        that many (:func:`_blocks`), swept one at a time, so the working
        buffers stay in cache through every pass.  Each point sees the same operations either way,
        so the values are those of one sweep over all points.
        """
        scalar = np.isscalar(w) or isinstance(w, complex)
        c = self._c
        if not c.size:
            return 0j if scalar else np.zeros(np.shape(w), dtype=complex)
        wv = np.asarray(w, dtype=complex)
        rows = c[::-1].tolist()
        flat = wv.ravel()
        out = np.empty(flat.size, dtype=complex)
        wbar = np.empty(min(flat.size, _BLOCK), dtype=complex)
        inner = np.empty(min(flat.size, _BLOCK), dtype=complex)
        for lo, hi in _blocks(flat.size, _BLOCK):
            n = hi - lo
            block = flat[lo:hi]
            _horner(rows, block, np.conjugate(block, out=wbar[:n]), out[lo:hi], inner[:n])
        return complex(out[0]) if scalar else out.reshape(wv.shape)


# the monomials z and zbar, built once for the operators that multiply by them
_Z = PolyZZbar.z()
_ZBAR = PolyZZbar.zbar()


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
            index = _int_key(key)
            if index is None or len(index) != 2 * self._n_slots:
                raise ValueError(f"bad exponent tuple {key} for n_slots={n_slots}")
            c = complex(c)
            if c != 0:
                out[index] = c
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

        Nested Horner over the exponent positions: the terms are grouped by
        their first exponent, Horner runs in that variable over the groups,
        and each group's value is the same evaluation of the rest of its keys
        (see :func:`_nested_horner`).  The variables that some term raises to
        a positive power are broadcast to one shape first; a constant outer
        gives a scalar.
        """
        if len(ws) != self._n_slots:
            raise ValueError("wrong number of slot values")
        ws = [np.asarray(w, dtype=complex) for w in ws]
        if not self._terms:
            return 0j
        items = sorted(self._terms.items())
        used = [pos for pos in range(2 * self._n_slots) if any(k[pos] for k, _ in items)]
        bases: list = [None] * (2 * self._n_slots)
        values = [np.conjugate(ws[pos // 2]) if pos % 2 else ws[pos // 2] for pos in used]
        for pos, b in zip(used, np.broadcast_arrays(*values)):
            bases[pos] = b
        acc = _nested_horner(items, 0, bases)
        if all(w.ndim == 0 for w in ws):
            return complex(acc)
        return acc if isinstance(acc, np.ndarray) else np.complex128(acc)


def _nested_horner(items: list, pos: int, bases: list):
    """sum of c * prod_{p >= pos} bases[p] ** key[p] over the (key, c) items,
    which are sorted and share key[:pos]: Horner in bases[pos] over the groups
    of equal key[pos], each group evaluated the same way from pos + 1.

    Every array this returns is new, so callers may update it in place.
    """
    if len(items) == 1:
        key, acc = items[0]
        for p in range(pos, len(key)):
            for _ in range(key[p]):
                acc *= bases[p]
        return acc
    groups = [(e, list(g)) for e, g in itertools.groupby(items, key=lambda kc: kc[0][pos])]
    acc = None
    for e, group in reversed(groups):
        value = _nested_horner(group, pos + 1, bases)
        if acc is None:
            acc = value
        else:
            for _ in range(e_prev - e):
                acc *= bases[pos]
            acc += value
        e_prev = e
    for _ in range(e_prev):
        acc *= bases[pos]
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

    def compose(self, outer: PolyWWbar) -> PolyZZbar:
        """outer(phi_1, ..., phi_n) as sum c * monomial, summed in one array."""
        if outer.n_slots != self.n_slots:
            raise ValueError(
                f"outer has {outer.n_slots} slots but {self.n_slots} inner polynomials given"
            )
        return _wrap(
            PolyZZbar, _lincomb([(c, self._monomial(key)._c) for key, c in outer.terms.items()])
        )


def compose(outer: PolyWWbar, inner: PolyZZbar | Sequence[PolyZZbar]) -> PolyZZbar:
    """Exact polynomial composition outer(phi_1, ..., phi_n).

    ``inner`` is a PolyZZbar (single slot) or a sequence of them, one per slot
    of ``outer``; each wbar_i is substituted by the conjugate polynomial of
    phi_i, so eval(compose(F, phi), w) == F.eval([phi.eval(w), ...]) for all w.
    Several compositions over the same inner vector share work through one
    :class:`MonomialTable`.
    """
    return MonomialTable(inner).compose(outer)
