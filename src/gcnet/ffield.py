"""Arithmetic in finite fields GF(p^m) with elements as integer indices.

An element of GF(p^m) is an integer in ``[0, p^m)`` encoding the
coefficient vector of its polynomial residue in base ``p``: the index
``sum(c_i * p**i)`` stands for ``sum(c_i * x**i)`` modulo a fixed monic
irreducible polynomial of degree ``m``.  Index 0 is the additive and
index 1 the multiplicative identity for every field.

The reducing modulus is chosen deterministically: candidates are scanned
in increasing integer encoding (which orders coefficient vectors
lexicographically from the highest degree down) and the first monic
irreducible wins.  Irreducibility is decided by trial division against
all monic polynomials of degree at most ``m // 2``.  The choice is
therefore reproducible across runs and machines, and two fields of the
same order always agree element by element.

Every field carries dense NumPy lookup tables for addition,
multiplication, negation and inversion, built once at creation; scalar
operations and the matrix kernels index these tables directly.  At the
largest order, 1024, the two ``(q, q)`` int16 tables take 4 MiB.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

#: Largest field order accepted by :func:`field_create`.
ORDER_LIMIT = 1024


def is_prime(n: int) -> bool:
    """Return True if ``n`` is a prime number."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Decompose ``q = p**m`` with ``p`` prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


def is_prime_power(q: int) -> bool:
    """Return True if ``q`` is a positive prime power."""
    try:
        factor_prime_power(q)
    except ValueError:
        return False
    return True


def prime_powers(limit: int) -> list[int]:
    """All prime powers ``q`` with ``2 <= q <= limit``, ascending."""
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


# ---------------------------------------------------------------------------
# Generic polynomial helpers over an arbitrary coefficient field.
#
# ``base`` is any object with scalar ``add``, ``sub`` and ``mul`` methods
# and a ``q`` attribute; coefficients are base-field indices and
# polynomials are lists ordered by ascending degree.  These helpers serve
# both the construction of prime-power fields over GF(p) and extension
# towers GF(q^m) over GF(q).
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], base) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = base.add(out[i + j], base.mul(ai, bj))
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], mod: Sequence[int], base) -> list[int]:
    # mod must be monic; the leading term cancels exactly each round
    rem = _poly_trim(list(a))
    dm = len(mod) - 1
    while rem and len(rem) - 1 >= dm:
        lead = rem[-1]
        shift = len(rem) - 1 - dm
        for i in range(dm + 1):
            if mod[i]:
                rem[shift + i] = base.sub(rem[shift + i], base.mul(lead, mod[i]))
        _poly_trim(rem)
    return rem


def _monic_polys(degree: int, base) -> Iterator[list[int]]:
    # ascending integer encoding of the low coefficients
    q = base.q
    for n in range(q**degree):
        coeffs = [(n // q**i) % q for i in range(degree)]
        coeffs.append(1)
        yield coeffs


def _is_irreducible(f: Sequence[int], base) -> bool:
    deg = len(f) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(d, base):
            if not _poly_mod(f, g, base):
                return False
    return True


def _smallest_irreducible(degree: int, base) -> tuple[int, ...]:
    for f in _monic_polys(degree, base):
        if _is_irreducible(f, base):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {degree} found")


# ---------------------------------------------------------------------------
# Prime-power fields.
# ---------------------------------------------------------------------------


class _PrimeOps:
    """Mod-p scalar arithmetic used while bootstrapping GF(p)."""

    def __init__(self, p: int):
        self.q = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q


class _Field:
    """Scalar operations common to :class:`FieldSpec` and
    :class:`ExtensionField`, built on the ``q``, ``add``, ``neg``, ``mul``
    and ``inv`` each of them defines."""

    q: int

    def check(self, a: int) -> int:
        """Validate an element index and return it as a plain int."""
        a = int(a)
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range for GF({self.q})")
        return a

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def pow(self, a: int, e: int) -> int:
        """Raise ``a`` to an integer power (negative allowed for ``a != 0``)."""
        a = self.check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.q - 1
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


class FieldSpec(_Field):
    """A concrete finite field GF(p^m) with a pinned reducing modulus.

    Parameters
    ----------
    p : int
        Prime characteristic.
    m : int
        Extension degree over the prime field.

    Attributes
    ----------
    p, m, q : int
        Characteristic, degree and order ``q = p**m``.
    modulus : tuple[int, ...]
        Coefficients of the reducing polynomial, ascending degree,
        length ``m + 1``, leading coefficient 1.
    add_table, mul_table : numpy.ndarray
        Dense ``(q, q)`` int16 operation tables.
    neg_table, inv_table : numpy.ndarray
        Dense ``(q,)`` int16 tables; ``inv_table[0]`` is unused.

    Use :func:`field_create` rather than calling this constructor in a
    loop; creation builds tables and is cached there.
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > ORDER_LIMIT:
            raise ValueError(f"field order {q} exceeds the supported limit {ORDER_LIMIT}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = _smallest_irreducible(m, _PrimeOps(p))
        self._weights = tuple(p**i for i in range(m))
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        # int32 holds every entry and every flat (q, q) index for q <= 1024
        p, m, q = self.p, self.m, self.q
        idx = np.arange(q, dtype=np.int32)
        digits = np.zeros((q, m), dtype=np.int32)
        for i in range(m):
            digits[:, i] = (idx // p**i) % p
        weights = np.array(self._weights, dtype=np.int32)

        # Both (q, q) tables grow one digit at a time, the new digit on
        # top: index c*p^i + low for c in GF(p) and low < p^i.  No
        # temporary has more entries than the finished table.
        cp = np.arange(p, dtype=np.int32)
        digit_add = np.add.outer(cp, cp) % p
        add = np.zeros((1, 1), dtype=np.int32)
        for i in range(m):
            n = p**i
            add = (digit_add[:, None, :, None] * n + add[None, :, None, :]).reshape(p * n, p * n)
        neg = ((-digits) % p) @ weights

        # scalar-by-element products c*w for c in GF(p)
        smul = np.zeros((p, q), dtype=np.int32)
        for c in range(p):
            smul[c] = ((digits * c) % p) @ weights

        # w -> x*w: shift coefficients up, fold x^m back via the modulus
        mod_low = np.array(self.modulus[:m], dtype=np.int32)
        top = digits[:, m - 1]
        shifted = np.zeros((q, m), dtype=np.int32)
        shifted[:, 1:] = digits[:, :-1]
        xtimes = ((shifted - top[:, None] * mod_low[None, :]) % p) @ weights

        # row c*p^i + low of the product table is (c*x^i)*b + low*b; the
        # rows below p are the scalar products themselves
        flat_add = add.ravel()
        mul = smul
        xi = xtimes  # x^i * b for all b
        for i in range(1, m):
            mul = flat_add[smul[:, xi][:, None, :] * q + mul[None, :, :]].reshape(-1, q)
            xi = xtimes[xi]

        if not np.array_equal(mul[1], idx):
            raise RuntimeError("field construction failed the identity check")
        inv = np.zeros(q, dtype=np.int32)
        rows, cols = np.nonzero(mul == 1)
        inv[rows] = cols
        if np.count_nonzero(inv[1:]) != q - 1:
            raise RuntimeError("field construction failed the inverse check")

        self.add_table = np.ascontiguousarray(add, dtype=np.int16)
        self.mul_table = np.ascontiguousarray(mul, dtype=np.int16)
        self.neg_table = np.ascontiguousarray(neg, dtype=np.int16)
        self.inv_table = np.ascontiguousarray(inv, dtype=np.int16)
        for t in (self.add_table, self.mul_table, self.neg_table, self.inv_table):
            t.setflags(write=False)

    # -- element codec -----------------------------------------------------

    def to_coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of ``a``, ascending degree, length ``m``."""
        a = self.check(a)
        return tuple((a // w) % self.p for w in self._weights)

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        """Element index for a coefficient vector of length at most ``m``."""
        if len(coeffs) > self.m:
            raise ValueError("coefficient vector longer than the field degree")
        return sum((c % self.p) * w for c, w in zip(coeffs, self._weights))

    def elements(self) -> range:
        """All element indices, ascending."""
        return range(self.q)

    # -- scalar operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[self.check(a), self.check(b)])

    def neg(self, a: int) -> int:
        return int(self.neg_table[self.check(a)])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[self.check(a), self.check(b)])

    def inv(self, a: int) -> int:
        a = self.check(a)
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.q})")
        return int(self.inv_table[a])

    # -- descriptors ---------------------------------------------------------

    @property
    def descriptor(self) -> str:
        """Textual form ``"p"`` or ``"p^m"`` accepted by the parsers."""
        return str(self.p) if self.m == 1 else f"{self.p}^{self.m}"

    @property
    def modulus_text(self) -> str:
        """Human-readable modulus, e.g. ``"x^2 + x + 1"``."""
        terms = []
        for i in range(self.m, -1, -1):
            c = self.modulus[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == 1 else f"{c}*{xi}")
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.q}), modulus={self.modulus_text})"


# A decision needs one field at a time, and no benchmark workload uses
# more than 5 fields (``exhaustive`` uses 2, 3, 4, 5 and 7; ``verify`` and
# ``decode`` use 2, 4, 16 and 257), so 8 rebuilds nothing mid-run while a
# sweep over q no longer keeps every field's tables alive.  Fields compare
# and hash by value, so an evicted field equals its rebuilt copy.
@lru_cache(maxsize=8)
def field_create(p: int, m: int = 1) -> FieldSpec:
    """Create (or fetch the cached) field GF(p^m).

    Raises ValueError when ``p`` is not prime or ``p**m`` exceeds
    :data:`ORDER_LIMIT`.
    """
    return FieldSpec(p, m)


def field_from_size(q: int) -> FieldSpec:
    """Create GF(q) from its order, factoring ``q`` as a prime power."""
    p, m = factor_prime_power(q)
    return field_create(p, m)


def field_from_descriptor(text: str) -> FieldSpec:
    """Parse a field descriptor such as ``"5"``, ``"2^4"`` or ``"9"``.

    A bare integer is treated as a field order; the ``p^m`` form names
    the characteristic and degree explicitly.
    """
    s = text.strip()
    if "^" in s:
        left, _, right = s.partition("^")
        try:
            p, m = int(left), int(right)
        except ValueError:
            raise ValueError(f"bad field descriptor {text!r}") from None
        return field_create(p, m)
    try:
        q = int(s)
    except ValueError:
        raise ValueError(f"bad field descriptor {text!r}") from None
    return field_from_size(q)


class ExtensionField(_Field):
    """GF(q^degree) built as a polynomial tower over an existing field.

    Elements are integer indices in ``[0, q**degree)`` encoding
    coefficient vectors over the base field in base ``q``.  The reducing
    modulus is again the lexicographically smallest monic irreducible,
    found with the same trial-division search as for prime fields, so the
    tower is fully determined by ``(base, degree)``.

    No dense tables are built; this class exists for rank-metric
    constructions where only a few thousand scalar operations are needed.
    """

    def __init__(self, base: FieldSpec, degree: int):
        if degree < 1:
            raise ValueError(f"extension degree must be >= 1, got {degree}")
        self.base = base
        self.degree = degree
        self.q = base.q**degree
        if degree == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = _smallest_irreducible(degree, base)

    def to_coeffs(self, a: int) -> tuple[int, ...]:
        """Base-field coefficient vector, ascending degree, length ``degree``."""
        a = self.check(a)
        qb = self.base.q
        return tuple((a // qb**i) % qb for i in range(self.degree))

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.degree:
            raise ValueError("coefficient vector longer than the extension degree")
        qb = self.base.q
        return sum(self.base.check(c) * qb**i for i, c in enumerate(coeffs))

    def basis_element(self, i: int) -> int:
        """The power-basis element ``x**i`` for ``0 <= i < degree``."""
        if not 0 <= i < self.degree:
            raise ValueError(f"basis index {i} out of range")
        return self.base.q**i

    def add(self, a: int, b: int) -> int:
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        return self.from_coeffs([self.base.add(x, y) for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        return self.from_coeffs([self.base.neg(x) for x in self.to_coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        prod = _poly_mul(self.to_coeffs(a), self.to_coeffs(b), self.base)
        rem = _poly_mod(prod, self.modulus, self.base)
        return self.from_coeffs(rem)

    def inv(self, a: int) -> int:
        a = self.check(a)
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.q})")
        return self.pow(a, self.q - 2)

    def frobenius(self, a: int) -> int:
        """The base-field Frobenius map ``a -> a**q_base``."""
        return self.pow(a, self.base.q)

    def __repr__(self) -> str:
        return f"ExtensionField(GF({self.base.q})^{self.degree})"
