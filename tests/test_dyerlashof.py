"""Leading terms of homology operations, pairings, and the counterexample certificate."""

import pytest

from kverify.dyerlashof import (
    Certificate,
    LeadingHomologyClass,
    akita_counterexample,
    pair_primitive_s,
    q_on_bu,
)
from kverify.exact import num_denom


# -- leading terms ----------------------------------------------------------


def test_leading_class_validation():
    c = LeadingHomologyClass(3, 5, 2)
    assert (c.generator_index, c.coefficient) == (5, 2)
    assert LeadingHomologyClass(3, 5, 0).coefficient == 0
    with pytest.raises(ValueError):
        LeadingHomologyClass(3, 5, 3)
    with pytest.raises(ValueError):
        LeadingHomologyClass(3, 5, -1)


def test_q_on_bu_frozen_values():
    for p in (3, 5, 7):
        c = q_on_bu(2, 1, p)
        assert (c.generator_index, c.coefficient) == (2 * p - 1, 1), p
    # binom(0, 1) = 0: the first operation kills the bottom generator's top
    assert q_on_bu(1, 1, 3).coefficient == 0
    assert q_on_bu(3, 2, 3).coefficient == 1
    c = q_on_bu(3, 1, 3)
    assert (c.generator_index, c.coefficient) == (7, (-2) % 3)


def test_q_on_bu_degree_bookkeeping():
    # Q^j raises the homological degree 2n of a_n by 2j(p - 1)
    for p in (3, 5):
        for j in (1, 2, 3):
            for n in (1, 2):
                c = q_on_bu(j, n, p)
                assert 2 * c.generator_index == 2 * n + 2 * j * (p - 1), (p, j, n)


def test_q_on_bu_validation():
    with pytest.raises(ValueError):
        q_on_bu(2, 1, 2)
    with pytest.raises(ValueError):
        q_on_bu(0, 1, 3)
    with pytest.raises(ValueError):
        q_on_bu(2, 0, 3)


# -- pairings ---------------------------------------------------------------


def test_primitive_pairing_selects_matching_index():
    c = q_on_bu(2, 1, 5)  # lands on a_9
    assert pair_primitive_s(9, c) == (1 * (-1) ** 9) % 5 == 4
    assert pair_primitive_s(8, c) == 0
    assert pair_primitive_s(10, c) == 0
    with pytest.raises(ValueError):
        pair_primitive_s(0, c)


def test_primitive_pairing_scales_with_coefficient():
    for coeff in range(5):
        c = LeadingHomologyClass(5, 3, coeff)
        assert pair_primitive_s(3, c) == (coeff * (-1) ** 3) % 5


# -- the certificate --------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_certificate_holds(p):
    cert = akita_counterexample(p)
    assert isinstance(cert, Certificate)
    assert cert.prime == p
    assert cert.refutes
    assert cert.s_pairing == p - 1  # that is -1 mod p
    assert cert.num_residue == num_denom(p)[0] % p != 0
    assert len(cert.notes) == 5
    assert "suspension image" in cert.notes[2]
    assert f"genus threshold {8 * p - 3}" in cert.notes[4]


def test_refutes_needs_both_computed_halves():
    cert = akita_counterexample(5)
    assert not cert._replace(s_pairing=0).refutes
    assert not cert._replace(num_residue=0).refutes


def test_certificate_rejects_bad_primes():
    with pytest.raises(ValueError):
        akita_counterexample(2)
    with pytest.raises(ValueError):
        akita_counterexample(9)
