"""Finite field construction and arithmetic."""

import re
from types import SimpleNamespace

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
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    f = field_from_size(q)
    els = list(f.elements())
    assert len(els) == q
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, q) == a
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_coeff_round_trip():
    f = field_from_size(27)
    for a in f.elements():
        coeffs = f.to_coeffs(a)
        assert len(coeffs) == 3
        assert f.from_coeffs(coeffs) == a


def _poly_mul(a, b, base):
    """Product of coefficient lists (ascending degree) over ``base``."""
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


def poly_mul_reference(f, a, b):
    """Product from coefficient vectors, reduced by the field's modulus,
    in plain mod-p arithmetic rather than the tables under test."""
    p = f.p
    base = SimpleNamespace(q=p, add=lambda x, y: (x + y) % p, sub=lambda x, y: (x - y) % p,
                           mul=lambda x, y: (x * y) % p)
    prod = _poly_mul(f.to_coeffs(a), f.to_coeffs(b), base)
    return f.from_coeffs(_poly_mod(prod, f.modulus, base))


def add_reference(f, a, b):
    return f.from_coeffs([x + y for x, y in zip(f.to_coeffs(a), f.to_coeffs(b))])


@pytest.mark.parametrize("q", prime_powers(27))
def test_tables_match_polynomial_arithmetic_on_all_pairs(q):
    f = field_from_size(q)
    for a in f.elements():
        for b in f.elements():
            assert f.add(a, b) == add_reference(f, a, b)
            assert f.mul(a, b) == poly_mul_reference(f, a, b)


@pytest.mark.parametrize("q", [257, 512, 729, 1024])
def test_tables_match_polynomial_arithmetic_on_large_fields(q):
    f = field_from_size(q)
    rng = np.random.default_rng(q)
    for a, b in rng.integers(0, q, size=(300, 2)):
        a, b = int(a), int(b)
        assert f.add(a, b) == add_reference(f, a, b)
        assert f.mul(a, b) == poly_mul_reference(f, a, b)
    assert f.add_table.shape == f.mul_table.shape == (q, q)


def test_large_field_arithmetic():
    f = field_from_size(512)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = int(rng.integers(1, 512))
        b = int(rng.integers(1, 512))
        assert f.mul(a, f.inv(a)) == 1
        assert f.sub(f.add(a, b), b) == a
        assert f.mul(a, b) == f.mul(b, a)
    assert f.pow(3, 511) == 1


def test_order_and_argument_errors():
    with pytest.raises(ValueError):
        field_from_size(6)
    with pytest.raises(ValueError):
        field_from_size(ORDER_LIMIT * 2)
    with pytest.raises(ValueError):
        field_create(4, 2)  # base must be prime
    with pytest.raises(ValueError):
        field_create(2, 0)
    f = field_from_size(5)
    with pytest.raises(ValueError):
        f.check(5)
    with pytest.raises(ValueError):
        f.check(-1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


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
    assert add[4 * 9 + 7] == f.add(4, 7) and mul[4 * 9 + 7] == f.mul(4, 7)
    assert inv[5] == f.inv(5) and neg[5] == f.neg(5)
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
        return pad(_poly_mod(_poly_mul(_poly_trim(list(a)), _poly_trim(list(b)), base), modulus, base))

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
                acc = [base.add(u, v) for u, v in zip(acc, term)]
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
    code = gabidulin_code(q, m, n, delta)
    expected = gabidulin_reference(q, m, n, delta)
    assert np.array_equal(code.codewords, np.array(expected))
