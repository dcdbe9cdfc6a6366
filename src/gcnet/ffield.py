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
These tables are the program's one field arithmetic.  The polynomial
helpers (``_poly_*``) serve only the modulus search; an extension
GF(q^m) over GF(q) is handled as linear algebra over GF(q), through the
companion matrix of its modulus (:func:`gcnet.rankmetric.gabidulin_code`).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
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


def power_exceeds(q: int, e: int, cap: int) -> bool:
    """Whether ``q**e > cap`` for ``q >= 2``, ``e >= 0`` and ``cap >= 0``.
    With ``b`` bits in ``q`` and ``c`` in ``cap``, ``2**(b-1) <= q < 2**b``
    and ``cap < 2**c``, so ``e*(b-1) >= c`` settles True and, for
    ``cap >= 1``, ``e*b < c`` settles False; only between the two is
    ``q**e`` built, with at most twice as many bits as ``cap``."""
    b, c = q.bit_length(), cap.bit_length()
    if e * (b - 1) >= c:
        return True
    return e * b >= c and q**e > cap


def comb_exceeds(n: int, k: int, cap: int) -> bool:
    """Whether ``comb(n, k) > cap`` for ``0 <= k <= n`` and ``cap >= 0``.
    With ``m = min(k, n - k) >= 1`` and ``j = n // m >= 2``,
    ``j**m <= (n/m)**m <= comb(n, m) <= (e*n/m)**m < (4*(j+1))**m``, so
    bit lengths settle True when ``j**m`` reaches ``2**c``, ``c`` the bits
    of ``cap``, and False when the upper end stays below ``2**(c-1)``;
    only between the two, where ``m < c``, is the count built, with
    fewer than ``5*c`` bits."""
    m, c = min(k, n - k), cap.bit_length()
    if m == 0:
        return cap < 1
    j = n // m
    if m * (j.bit_length() - 1) >= c:
        return True
    return m * ((j + 1).bit_length() + 2) >= c and comb(n, m) > cap


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
# only the modulus search: of a prime-power field over GF(p), and of the
# extension GF(q^m) whose companion matrix builds a Gabidulin code over
# GF(q) (:mod:`gcnet.rankmetric`).
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


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


class FieldSpec:
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
    kernel_views : tuple[memoryview, ...]
        The ``inv``, ``neg``, ``add`` and ``mul`` tables as flat int16
        views, which copy nothing, for :mod:`gcnet.backend`.

    Use :func:`field_create` rather than calling this constructor in a
    loop; creation builds tables and is cached there.
    """

    def __init__(self, p: int, m: int):
        # bounded work first: neither the primality test nor p**m runs on a large order
        if p >= 2 and m >= 1 and power_exceeds(p, m, ORDER_LIMIT):
            order = p if m == 1 else f"{p}^{m}"
            raise ValueError(f"field order {order} exceeds the supported limit {ORDER_LIMIT}")
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus = (0, 1)
        else:
            self.modulus = _smallest_irreducible(m, FieldSpec(p, 1))
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
        tables = (self.inv_table, self.neg_table, self.add_table, self.mul_table)
        for t in tables:
            t.setflags(write=False)
        self.kernel_views = tuple(memoryview(t).cast("B").cast("h") for t in tables)

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

    def check(self, a: int) -> int:
        """Validate an element index and return it as a plain int."""
        a = int(a)
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range for GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[self.check(a), self.check(b)])

    def neg(self, a: int) -> int:
        return int(self.neg_table[self.check(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[self.check(a), self.check(b)])

    def inv(self, a: int) -> int:
        a = self.check(a)
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.q})")
        return int(self.inv_table[a])

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
    """Create GF(q) from its order, refusing ``q > ORDER_LIMIT`` before
    factoring ``q`` as a prime power, which trial-divides up to ``q``."""
    if q > ORDER_LIMIT:
        raise ValueError(f"field order {q} exceeds the supported limit {ORDER_LIMIT}")
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
