"""Leading terms of homology operations, pairings, and the counterexample certificate."""

import pytest

from kverify.dyerlashof import (
    akita_counterexample,
    pair_primitive_s,
    q_on_bu,
)
from kverify.exact import num_denom


# -- leading terms ----------------------------------------------------------


def test_q_on_bu_frozen_values():
    for p in (3, 5, 7):
        assert q_on_bu(2, 1, p) == (2 * p - 1, 1), p
    # binom(0, 1) = 0: the first operation kills the bottom generator's top
    assert q_on_bu(1, 1, 3) == (3, 0)
    assert q_on_bu(3, 2, 3) == (8, 1)
    assert q_on_bu(3, 1, 3) == (7, (-2) % 3)


def test_q_on_bu_degree_bookkeeping():
    # Q^j raises the homological degree 2n of a_n by 2j(p - 1)
    for p in (3, 5):
        for j in (1, 2, 3):
            for n in (1, 2):
                index, coefficient = q_on_bu(j, n, p)
                assert 2 * index == 2 * n + 2 * j * (p - 1), (p, j, n)
                assert 0 <= coefficient < p, (p, j, n)


def test_q_on_bu_validation():
    with pytest.raises(ValueError):
        q_on_bu(2, 1, 2)
    with pytest.raises(ValueError):
        q_on_bu(0, 1, 3)
    with pytest.raises(ValueError):
        q_on_bu(2, 0, 3)


# -- pairings ---------------------------------------------------------------


def test_primitive_pairing_selects_matching_index():
    index, coefficient = q_on_bu(2, 1, 5)  # lands on a_9
    assert pair_primitive_s(9, 5, index, coefficient) == (1 * (-1) ** 9) % 5 == 4
    assert pair_primitive_s(8, 5, index, coefficient) == 0
    assert pair_primitive_s(10, 5, index, coefficient) == 0
    with pytest.raises(ValueError):
        pair_primitive_s(0, 5, index, coefficient)


def test_primitive_pairing_scales_with_coefficient():
    for coeff in range(5):
        assert pair_primitive_s(3, 5, 3, coeff) == (coeff * (-1) ** 3) % 5


# -- the certificate --------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_certificate_holds(p):
    s_pairing, num_residue, notes = akita_counterexample(p)
    assert s_pairing == p - 1  # that is -1 mod p
    assert num_residue == num_denom(p)[0] % p != 0
    assert len(notes) == 5
    assert f"leading term 1 * a_{2 * p - 1}" in notes[0]
    assert "suspension image" in notes[2]
    assert f"genus threshold {8 * p - 3}" in notes[4]


def test_certificate_rejects_bad_primes():
    with pytest.raises(ValueError):
        akita_counterexample(2)
    with pytest.raises(ValueError):
        akita_counterexample(9)
