import numpy as np
import pytest

from pcol.errors import NotPrimePowerError, OutOfRangeError, UnsupportedError
from pcol.gf import (FieldTable, check_axioms, factor_prime_power,
                     frobenius_fixed)
from scalar_oracle import field_tables_oracle, lowest_irreducible


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(243) == (3, 5)
    for bad in (1, 6, 10, 12, 100):
        with pytest.raises(NotPrimePowerError):
            factor_prime_power(bad)


def test_gf2_is_xor_and():
    F = FieldTable(2)
    assert F.add_table.tolist() == [[0, 1], [1, 0]]
    assert F.mul_table.tolist() == [[0, 0], [0, 1]]
    assert F.inv(1) == 1


def test_non_prime_power_rejected():
    with pytest.raises(NotPrimePowerError):
        FieldTable(6)


def test_order_guard():
    with pytest.raises(UnsupportedError):
        FieldTable(512)


def test_gf3_add():
    F = FieldTable(3)
    assert F.add(2, 2) == 1


def test_gf4_structure():
    # lowest-label monic irreducible of degree 2 over GF(2) is x^2 + x + 1
    F = FieldTable(4)
    assert F.irreducible_poly == (1, 1, 1)
    # 2 <-> x, 3 <-> x + 1: x * x = x + 1, x * (x + 1) = 1
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.inv(2) == 3
    assert check_axioms(F) == []


def test_inverse_of_zero_raises():
    F = FieldTable(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_label_range_checked():
    F = FieldTable(4)
    with pytest.raises(OutOfRangeError):
        F.add(4, 0)
    with pytest.raises(OutOfRangeError):
        F.mul(1, -1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_axioms_exhaustive(q):
    assert check_axioms(FieldTable(q)) == []


def test_identities_by_labeling():
    for q in (2, 3, 4, 8, 9, 25, 27):
        F = FieldTable(q)
        assert np.array_equal(F.add_table[0], np.arange(q))
        assert np.array_equal(F.mul_table[1], np.arange(q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256])
def test_frobenius_fixed_points(q):
    assert frobenius_fixed(FieldTable(q))


def test_tables_immutable():
    F = FieldTable(4)
    with pytest.raises(ValueError):
        F.add_table[0, 0] = 1


# The orders up to 256 with one prime factor.
PRIME_POWERS = [q for q in range(2, 257)
                if len({d for d in range(2, q + 1)
                        if q % d == 0 and all(d % e for e in range(2, d))}) == 1]


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 64])
def test_tables_match_scalar_oracle(q):
    F = FieldTable(q)
    for name, expected in field_tables_oracle(q).items():
        assert np.array_equal(getattr(F, name), expected), name


def test_irreducible_poly_matches_trial_division():
    assert len(PRIME_POWERS) == 70
    for q in PRIME_POWERS:
        p, k, m = lowest_irreducible(q)
        assert FieldTable(q).irreducible_poly == (() if k == 1 else m), q
    # x^8 + x^4 + x^3 + x + 1, the AES polynomial
    assert FieldTable(256).irreducible_poly == (1, 1, 0, 1, 1, 0, 0, 0, 1)
