"""Finite field construction and arithmetic."""

from types import SimpleNamespace

import numpy as np
import pytest

from gcnet.ffield import (
    ExtensionField,
    ORDER_LIMIT,
    FieldSpec,
    _poly_mod,
    _poly_mul,
    factor_prime_power,
    field_create,
    field_from_descriptor,
    field_from_size,
    is_prime,
    is_prime_power,
    prime_powers,
)


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


def test_descriptor_round_trip():
    assert field_from_descriptor("7").q == 7
    assert field_from_descriptor("2^4").q == 16
    f = field_from_size(9)
    assert field_from_descriptor(f.descriptor) == f
    with pytest.raises(ValueError):
        field_from_descriptor("abc")


def test_field_identity_is_cached():
    assert field_from_size(8) is field_from_size(8)
    assert field_create(2, 3) == field_from_size(8)
    assert field_from_size(4) != field_from_size(9)


def test_extension_field_round_trip():
    base = field_from_size(4)
    ext = ExtensionField(base, 3)
    assert ext.q == 64
    for a in (0, 1, 5, 17, 63):
        coeffs = ext.to_coeffs(a)
        assert len(coeffs) == 3
        assert ext.from_coeffs(coeffs) == a
    # power basis: basis_element(i) has a single coefficient at slot i
    for i in range(3):
        coeffs = ext.to_coeffs(ext.basis_element(i))
        assert coeffs[i] == 1
        assert sum(coeffs) == 1


def test_extension_field_axioms_sampled():
    base = field_from_size(3)
    ext = ExtensionField(base, 2)
    els = list(range(ext.q))
    for a in els:
        if a != 0:
            assert ext.mul(a, ext.inv(a)) == 1
        assert ext.add(a, ext.neg(a)) == 0
    for a in els:
        for b in els:
            assert ext.mul(a, b) == ext.mul(b, a)


def test_frobenius_is_additive_and_fixes_base():
    base = field_from_size(2)
    ext = ExtensionField(base, 4)
    for a in range(16):
        for b in range(16):
            assert ext.frobenius(ext.add(a, b)) == ext.add(ext.frobenius(a), ext.frobenius(b))
    # base subfield elements are exactly the fixed points counted over GF(q)
    fixed = [a for a in range(16) if ext.frobenius(a) == a]
    assert len(fixed) == 2


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
