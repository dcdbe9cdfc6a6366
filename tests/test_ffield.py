"""Finite field construction and arithmetic."""

import re

import numpy as np
import pytest

from gcnet.ffield import (
    ORDER_LIMIT,
    _poly_mod,
    _poly_trim,
    _smallest_irreducible,
    factor_prime_power,
    field_create,
    field_from_size,
    is_prime,
    is_prime_power,
    prime_powers,
)
from gcnet.rankmetric import gabidulin_code


def test_prime_predicates():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(81) == (3, 4)
    assert factor_prime_power(7) == (7, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_prime_powers_list():
    assert prime_powers(20) == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    assert all(is_prime_power(q) for q in prime_powers(100))
    assert not is_prime_power(6)
    assert not is_prime_power(1)


def test_smallest_moduli():
    # first monic irreducible in ascending coefficient order, constant first
    assert field_from_size(4).modulus == (1, 1, 1)      # x^2 + x + 1
    assert field_from_size(8).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert field_from_size(9).modulus == (1, 0, 1)      # x^2 + 1
    assert field_from_size(16).modulus == (1, 1, 0, 0, 1)
    assert field_from_size(7).modulus == (0, 1)


def test_gf4_multiplication_table():
    f = field_from_size(4)
    # element 2 is x; x*x = x+1 which is element 3
    assert f.mul_table[2, 2] == 3
    assert f.mul_table[2, 3] == 1
    assert f.mul_table[3, 3] == 2
    assert f.add_table[2, 3] == 1
    assert f.inv_table[2] == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    f = field_from_size(q)
    add, mul = f.add_table, f.mul_table
    els = np.arange(q)
    assert np.array_equal(add[els, 0], els) and np.array_equal(mul[els, 1], els)
    assert not add[els, f.neg_table].any()
    assert (mul[els[1:], f.inv_table[1:]] == 1).all()
    power = np.ones(q, dtype=np.int16)
    for _ in range(q):
        power = mul[power, els]
    assert np.array_equal(power, els)  # a^q = a
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    a, b, c = els[:, None, None], els[None, :, None], els[None, None, :]
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])


def coeffs(f, a):
    """Coefficient vector of element ``a``, ascending degree: its base-p digits."""
    return [a // f.p**i % f.p for i in range(f.m)]


def element(f, c):
    """The element whose coefficient vector is ``c`` (at most ``m`` entries)."""
    return sum(v % f.p * f.p**i for i, v in enumerate(c))


def test_coeff_round_trip():
    # the index whose base-p digits are c_i is the element sum(c_i * x**i),
    # x being the index p, when summed through the field's own tables
    f = field_from_size(27)
    for a in range(27):
        c = coeffs(f, a)
        assert len(c) == 3 and element(f, c) == a
        acc, power = 0, 1
        for ci in c:
            acc = int(f.add_table[acc, f.mul_table[ci, power]])
            power = int(f.mul_table[power, f.p])
        assert acc == a


def _poly_mul(a, b, add, mul):
    """Product of coefficient lists (ascending degree) under the given
    coefficient operations."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = add(out[i + j], mul(ai, bj))
    return _poly_trim(out)


def poly_mul_reference(f, a, b):
    """Product from coefficient vectors, reduced by the field's modulus,
    in plain mod-p arithmetic rather than the tables under test."""
    p, m = f.p, f.m
    prod = _poly_mul(coeffs(f, a), coeffs(f, b), lambda x, y: (x + y) % p, lambda x, y: x * y % p)
    for top in range(len(prod) - 1, m - 1, -1):  # the modulus is monic
        lead = prod[top]
        for i, c in enumerate(f.modulus):
            prod[top - m + i] = (prod[top - m + i] - lead * c) % p
    return element(f, prod[:m])


def add_reference(f, a, b):
    return element(f, [x + y for x, y in zip(coeffs(f, a), coeffs(f, b))])


@pytest.mark.parametrize("q", prime_powers(27))
def test_tables_match_polynomial_arithmetic_on_all_pairs(q):
    f = field_from_size(q)
    for a in range(q):
        for b in range(q):
            assert f.add_table[a, b] == add_reference(f, a, b)
            assert f.mul_table[a, b] == poly_mul_reference(f, a, b)


@pytest.mark.parametrize("q", [257, 512, 729, 1024])
def test_tables_match_polynomial_arithmetic_on_large_fields(q):
    f = field_from_size(q)
    rng = np.random.default_rng(q)
    for a, b in rng.integers(0, q, size=(300, 2)):
        a, b = int(a), int(b)
        assert f.add_table[a, b] == add_reference(f, a, b)
        assert f.mul_table[a, b] == poly_mul_reference(f, a, b)
    assert f.add_table.shape == f.mul_table.shape == (q, q)


def test_large_field_arithmetic():
    f = field_from_size(512)
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = int(rng.integers(1, 512))
        b = int(rng.integers(1, 512))
        assert mul[a, inv[a]] == 1
        assert add[add[a, b], neg[b]] == a
        assert mul[a, b] == mul[b, a]
    power = 1
    for _ in range(511):
        power = mul[power, 3]
    assert power == 1


def test_order_and_argument_errors():
    with pytest.raises(ValueError):
        field_from_size(6)
    with pytest.raises(ValueError):
        field_from_size(ORDER_LIMIT * 2)
    with pytest.raises(ValueError):
        field_create(4, 2)  # base must be prime
    with pytest.raises(ValueError):
        field_create(2, 0)


@pytest.mark.parametrize("make,order", [
    (lambda: field_from_size(10**30 + 57), "1000000000000000000000000000057"),
    (lambda: field_from_size(2000), "2000"),  # not a prime power either
    (lambda: field_create(10**30 + 57), "1000000000000000000000000000057"),
    (lambda: field_create(2, 10**9), "2^1000000000"),
], ids=["size-prime", "size-composite", "create-prime", "create-power"])
def test_orders_above_the_limit_are_refused_before_factoring(make, order):
    # neither trial division nor p**m runs on such an order
    message = f"field order {order} exceeds the supported limit 1024"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_kernel_views_are_zero_copy_flat_tables():
    f = field_from_size(9)
    inv, neg, add, mul = f.kernel_views
    assert [len(v) for v in f.kernel_views] == [9, 9, 81, 81]
    assert all(v.readonly and v.format == "h" for v in f.kernel_views)
    assert add[4 * 9 + 7] == f.add_table[4, 7] and mul[4 * 9 + 7] == f.mul_table[4, 7]
    assert inv[5] == f.inv_table[5] and neg[5] == f.neg_table[5]
    assert np.shares_memory(np.asarray(mul), f.mul_table)


def test_field_identity_is_cached():
    assert field_from_size(8) is field_from_size(8)
    assert field_create(2, 3) == field_from_size(8)
    assert field_from_size(4) != field_from_size(9)


def test_field_cache_is_bounded_and_equal_after_eviction():
    kept = field_from_size(2)
    orders = prime_powers(64)
    assert len(orders) == 27
    for q in orders:
        field_from_size(q)
    assert field_create.cache_info().currsize == 8
    rebuilt = field_from_size(2)
    assert rebuilt is not kept
    assert rebuilt == kept and hash(rebuilt) == hash(kept)


def gabidulin_reference(q, m, n, delta):
    """The codewords of ``gabidulin_code(q, m, n, delta)``, each evaluated
    as a linearized polynomial in the tower GF(q)[x]/(modulus), one
    extension-field product at a time."""
    base = field_from_size(q)
    rows, cols = max(m, n), min(m, n)
    kg = cols - delta + 1
    modulus = (0, 1) if rows == 1 else _smallest_irreducible(rows, base)

    def pad(c):
        return list(c) + [0] * (rows - len(c))

    def mul(a, b):
        prod = _poly_mul(_poly_trim(list(a)), _poly_trim(list(b)),
                         lambda x, y: int(base.add_table[x, y]), lambda x, y: int(base.mul_table[x, y]))
        return pad(_poly_mod(prod, modulus, base))

    def power(a, e):
        out = pad([1])
        for _ in range(e):
            out = mul(out, a)
        return out

    # frob[i][j] = x_j ** (q**i) for the evaluation points x_j = x**j
    frob = [[power(pad([0] * j + [1]), q**i) for j in range(cols)] for i in range(kg)]
    words = []
    for idx in range(q ** (rows * kg)):
        digits = [idx // q**e % q for e in range(rows * kg)]
        word = np.zeros((rows, cols), dtype=np.int16)
        for j in range(cols):
            acc = pad([])
            for i in range(kg):
                term = mul(digits[i * rows:(i + 1) * rows], frob[i][j])
                acc = [int(base.add_table[u, v]) for u, v in zip(acc, term)]
            word[:, j] = acc
        words.append(word.T if m < n else word)
    return words


@pytest.mark.parametrize("q,m,n,delta", [
    (2, 3, 3, 2),
    (2, 4, 2, 1),
    (3, 2, 3, 2),  # transposed
    (4, 2, 2, 1),  # a tower over GF(4)
    (9, 2, 1, 1),
    (5, 1, 2, 1),
])
def test_gabidulin_code_matches_polynomial_evaluation(q, m, n, delta):
    expected = gabidulin_reference(q, m, n, delta)
    assert np.array_equal(gabidulin_code(q, m, n, delta), np.array(expected))
