"""Independent references for the benchmark's correctness checks.

Nothing here imports gcnet.  Field arithmetic, elimination, file parsing
and the closed-form maxima are written again from their definitions, so
a fault in the program cannot hide behind the same fault in its check.

Element encoding follows the format contract of gcnet's files: in
GF(p^m) the index ``sum(c_i * p**i)`` stands for ``sum(c_i * x**i)``
modulo the first monic irreducible of degree m met when the low
coefficients are counted upwards as a base-p integer.  Only p = 2 is
needed for the extension fields the workloads use (q = 4, 16).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class CheckError(Exception):
    """An output that disagrees with the reference."""


def prime_power(q: int) -> tuple[int, int]:
    """``(p, m)`` with ``q = p**m``, or ValueError."""
    # the smallest divisor above 1 is prime
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    m, rest = 0, q
    while p is not None and rest % p == 0:
        rest //= p
        m += 1
    if p is None or rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(2, limit + 1):
        try:
            prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


def _gf2_polymod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _gf2_irreducible(f: int) -> bool:
    deg = f.bit_length() - 1
    return all(_gf2_polymod(f, g) for g in range(2, 1 << (deg // 2 + 1)))


class RefField:
    """GF(p) for a prime p, or GF(2^m) by carry-less products."""

    def __init__(self, q: int):
        p, m = prime_power(q)
        if m > 1 and p != 2:
            raise ValueError("the reference covers GF(p) and GF(2^m) only")
        self.q, self.p, self.m = q, p, m
        if m == 1:
            self.modulus = None
            return
        self.modulus = next(
            (1 << m) | low for low in range(1 << m) if _gf2_irreducible((1 << m) | low)
        )
        self._mul = [[self._slow_mul(a, b) for b in range(q)] for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = self._mul[a].index(1)

    def _slow_mul(self, a: int, b: int) -> int:
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> self.m:
                a ^= self.modulus
        return acc

    def add(self, a: int, b: int) -> int:
        return a ^ b if self.p == 2 else (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return a ^ b if self.p == 2 else (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b] if self.m > 1 else a * b % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a] if self.m > 1 else pow(a, -1, self.p)


_FIELDS: dict[int, RefField] = {}


def ref_field(q: int) -> RefField:
    if q not in _FIELDS:
        _FIELDS[q] = RefField(q)
    return _FIELDS[q]


def rank(rows, q: int) -> int:
    """Rank over GF(q) of a matrix given as a sequence of integer rows."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if q == 2:
        packed = [int("".join("1" if v else "0" for v in r), 2) for r in rows]
        r = 0
        for bit in range(len(rows[0]) - 1, -1, -1):
            mask = 1 << bit
            piv = next((i for i in range(r, len(packed)) if packed[i] & mask), None)
            if piv is None:
                continue
            packed[r], packed[piv] = packed[piv], packed[r]
            for i in range(r + 1, len(packed)):
                if packed[i] & mask:
                    packed[i] ^= packed[r]
            r += 1
        return r
    f = ref_field(q)
    r = 0
    cols = len(rows[0])
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pinv = f.inv(rows[r][c])
        prow = [f.mul(pinv, v) for v in rows[r]]
        rows[r] = prow
        for i in range(r + 1, len(rows)):
            factor = rows[i][c]
            if factor:
                rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[i], prow)]
        r += 1
        if r == len(rows):
            break
    return r


# ---------------------------------------------------------------------------
# File formats, parsed from their documented layout.
# ---------------------------------------------------------------------------


def _int_lines(text: str) -> list[list[int]]:
    out = []
    for raw in text.splitlines():
        s = raw.strip()
        if s and not s.startswith("#"):
            out.append([int(tok) for tok in s.split()])
    return out


def parse_code_text(text: str) -> dict:
    """Header and codeword bases of a covering-code file."""
    lines = _int_lines(text)
    n, k, delta, alpha, q, count = lines[0]
    body = lines[1:]
    if len(body) != k * count or any(len(row) != n for row in body):
        raise CheckError("code file body does not match its header")
    words = [body[i * k:(i + 1) * k] for i in range(count)]
    return {"n": n, "k": k, "delta": delta, "alpha": alpha, "q": q, "words": words}


def render_code_text(n, k, delta, alpha, q, words) -> str:
    lines = [f"{n} {k} {delta} {alpha} {q} {len(words)}"]
    for w in words:
        lines.extend(" ".join(map(str, row)) for row in w)
    return "\n".join(lines) + "\n"


def parse_solution_text(text: str) -> dict:
    """Header and coding matrices of a solution file."""
    lines = _int_lines(text)
    h, r, alpha, ell, eps, q, t = lines[0]
    pos = 1
    mats = []
    for _ in range(r):
        rows, cols, mq = lines[pos]
        block = lines[pos + 1:pos + 1 + rows]
        if mq != q or (rows, cols) != (ell * t, h * t) or any(len(x) != cols for x in block):
            raise CheckError("solution matrix block does not match the header")
        mats.append(block)
        pos += 1 + rows
    if pos != len(lines):
        raise CheckError("trailing content in solution file")
    return {"h": h, "r": r, "alpha": alpha, "ell": ell, "eps": eps, "q": q, "t": t,
            "mats": mats}


def render_solution_text(h, r, alpha, ell, eps, q, t, mats) -> str:
    lines = [f"{h} {r} {alpha} {ell} {eps} {q} {t}"]
    for m in mats:
        lines.append(f"{len(m)} {len(m[0])} {q}")
        lines.extend(" ".join(map(str, row)) for row in m)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Covering property and receiver rank condition.
# ---------------------------------------------------------------------------


def worst_code_witness(code: dict):
    """``(indices, dim)`` of the lowest-span alpha-subset, first in
    lexicographic order among ties, or None when the code covers."""
    q, k, need = code["q"], code["k"], code["delta"] + code["k"]
    for i, w in enumerate(code["words"]):
        if rank(w, q) != k:
            raise CheckError(f"codeword {i} does not have rank {k}")
    worst = None
    for sel in combinations(range(len(code["words"])), code["alpha"]):
        got = rank([row for i in sel for row in code["words"][i]], q)
        if got < need and (worst is None or got < worst[1]):
            worst = (sel, got)
    return worst


def first_bad_receiver(sol: dict):
    """The lexicographically first alpha-subset of middle nodes whose
    stacked coding matrix has rank below (h - eps) t, or None."""
    need = (sol["h"] - sol["eps"]) * sol["t"]
    for sel in combinations(range(sol["r"]), sol["alpha"]):
        if rank([row for i in sel for row in sol["mats"][i]], sol["q"]) < need:
            return sel
    return None


# ---------------------------------------------------------------------------
# Closed-form maxima and the alphabet sizes they imply.
# ---------------------------------------------------------------------------


def q_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of GF(q)^n, counted as ordered bases over
    ordered bases of a fixed k-space."""
    if not 0 <= k <= n:
        return 0
    bases = 1
    inner = 1
    for i in range(k):
        bases *= q**n - q**i
        inner *= q**k - q**i
    return bases // inner


def max_code_size(n: int, k: int, delta: int, alpha: int, q: int) -> int:
    """Largest covering code in G_q(n, k) at the points with a closed form.

    - delta = 1: alpha codewords fail only when all are equal, so every
      subspace may appear alpha - 1 times: (alpha - 1) [n, k]_q.
    - alpha = 2, delta = n - k, k | n: a spread, (q^n - 1) / (q^k - 1).
    - q = 2, k = 1, delta = 2, alpha = 3: no three points on a line, a
      cap of PG(n-1, 2), at most 2^(n-1) (the affine points); a repeated
      point allows only the pair itself.
    """
    if delta == 1:
        return (alpha - 1) * q_binomial(n, k, q)
    if alpha == 2 and delta == n - k and n % k == 0:
        return (q**n - 1) // (q**k - 1)
    if (q, k, delta, alpha) == (2, 1, 2, 3) and n >= 3:
        return max(2, 2 ** (n - 1))
    raise ValueError(f"no closed form for (n,k,delta,alpha,q)=({n},{k},{delta},{alpha},{q})")


def ref_qs(h: int, r: int, alpha: int, ell: int, eps: int, q_cap: int = 64) -> int:
    for q in prime_powers(q_cap):
        if max_code_size(h, ell, h - ell - eps, alpha, q) >= r:
            return q
    raise ValueError("no field size below the cap")


def ref_qv(h: int, r: int, alpha: int, ell: int, eps: int, qt_cap: int = 64) -> int:
    cands = []
    for q in prime_powers(qt_cap):
        t = 1
        while q**t <= qt_cap:
            cands.append((q**t, t, q))
            t += 1
    for value, t, q in sorted(cands):
        if max_code_size(h * t, ell * t, (h - ell - eps) * t, alpha, q) >= r:
            return value
    raise ValueError("no vector space size below the cap")


def parse_number(text: str):
    """A bound value as printed: integer, ``a/b`` fraction or decimal."""
    if "/" in text:
        return Fraction(text)
    if "." in text:
        return float(text)
    return int(text)
