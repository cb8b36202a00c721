"""Bernoulli numbers, valuations, and the generator-choosing rule.

The frozen tables below were computed by hand from the binomial recurrence
and double-checked against the classical denominators; the suite then pits
the series route against the recurrence route over a wider range.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from kverify import exact, series
from kverify.exact import (
    bernoulli,
    bernoulli_recursive,
    choose_k,
    denominator_valuation_check,
    frac_str,
    generating_series_roundtrip,
    is_prime,
    multiplicative_order,
    num_denom,
    vp,
)

FROZEN_BERNOULLI = {
    1: Fraction(1, 6),
    2: Fraction(1, 30),
    3: Fraction(1, 42),
    4: Fraction(1, 30),
    5: Fraction(5, 66),
    6: Fraction(691, 2730),
    7: Fraction(7, 6),
    8: Fraction(3617, 510),
    15: Fraction(8615841276005, 14322),
}

FROZEN_NUM_DENOM = {
    1: (1, 12),
    2: (1, 120),
    3: (1, 252),
    4: (1, 240),
    5: (1, 132),
    6: (691, 32760),
    7: (1, 12),
    10: (174611, 6600),
}


@pytest.mark.parametrize("n,value", sorted(FROZEN_BERNOULLI.items()))
def test_bernoulli_frozen_values(n, value):
    assert bernoulli(n) == value


def test_all_values_positive():
    assert all(bernoulli(n) > 0 for n in range(1, 21))


def test_series_route_matches_recursive_route():
    for n in range(1, 101):
        assert bernoulli(n) == bernoulli_recursive(n)


def _clear_tables():
    exact._series_coefficients.cache_clear()
    exact._recurrence.cache_clear()


def test_tables_do_not_depend_on_request_order():
    _clear_tables()
    ascending = [(bernoulli(n), bernoulli_recursive(n)) for n in range(1, 101)]
    _clear_tables()
    top = (bernoulli(100), bernoulli_recursive(100))
    rest = [(bernoulli(n), bernoulli_recursive(n)) for n in range(1, 100)]
    assert rest + [top] == ascending


def _plain_recurrence(max_index):
    """Positive B_1..B_max_index from the recurrence, one Fraction at a time."""
    b = [Fraction(1)]
    for j in range(1, 2 * max_index + 1):
        b.append(-sum(comb(j + 1, i) * b[i] for i in range(j)) / (j + 1))
    return {n: (-1) ** (n - 1) * b[2 * n] for n in range(1, max_index + 1)}


def test_recurrence_matches_a_plain_fraction_recurrence_in_any_order():
    expected = _plain_recurrence(200)
    shuffled = list(expected)
    random.Random(0).shuffle(shuffled)
    for order in (sorted(expected), sorted(expected, reverse=True), shuffled):
        _clear_tables()
        assert {n: bernoulli_recursive(n) for n in order} == expected


def test_recurrence_never_inverts_a_series(monkeypatch):
    expected = {n: bernoulli(n) for n in range(1, 41)}
    assert FROZEN_BERNOULLI.items() <= expected.items()

    def no_inversion(*args):
        raise RuntimeError("series inverted")

    _clear_tables()
    monkeypatch.setattr(series, "inv", no_inversion)
    with pytest.raises(RuntimeError):
        bernoulli(1)
    assert {n: bernoulli_recursive(n) for n in range(1, 41)} == expected


def test_generating_series_roundtrip():
    # also certifies that every odd series coefficient vanishes
    assert generating_series_roundtrip(15)


def test_roundtrip_sees_a_corrupted_recurrence():
    assert generating_series_roundtrip(10)
    nums, den = exact._recurrence()
    saved = nums[8]
    nums[8] += 1  # entry 8 moves by 1 / den[0]
    try:
        assert not generating_series_roundtrip(10)
    finally:
        nums[8] = saved
    assert generating_series_roundtrip(10)


@pytest.mark.parametrize("n,pair", sorted(FROZEN_NUM_DENOM.items()))
def test_num_denom_frozen(n, pair):
    assert num_denom(n) == pair


def test_num_denom_in_lowest_terms():
    from math import gcd

    for n in range(1, 21):
        num, denom = num_denom(n)
        assert gcd(num, denom) == 1 and denom > 0
        assert Fraction(num, denom) == bernoulli(n) / (2 * n)


def _primes_up_to(bound):
    return [q for q in range(2, bound + 1) if is_prime(q)]


def _int_val(n, q):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def test_denominator_structure():
    """Independent structural oracle for Denom(B_n/2n): the product over
    primes q with (q-1) | 2n of q^(1 + v_q(2n)).  Note the condition is on
    q - 1 dividing 2n, nothing else; at n = 5 the prime 5 divides 2n but
    4 does not divide 10, and indeed Denom(B_5/10) = 132 has no factor 5.
    """
    for n in range(1, 21):
        m = 2 * n
        predicted = 1
        for q in _primes_up_to(m + 1):
            if m % (q - 1) == 0:
                predicted *= q ** (1 + _int_val(m, q))
        assert num_denom(n)[1] == predicted, n


def test_von_staudt_clausen_denominators():
    """Integer-only oracle: Denom(B_n) is the product of the primes q with
    (q - 1) | 2n."""
    for n in range(1, 101):
        predicted = 1
        for q in _primes_up_to(2 * n + 1):
            if (2 * n) % (q - 1) == 0:
                predicted *= q
        assert bernoulli(n).denominator == predicted, n


def test_bad_indices_rejected():
    with pytest.raises(ValueError):
        bernoulli(0)
    with pytest.raises(ValueError):
        num_denom(0)


# -- valuations -------------------------------------------------------------


def test_vp_basics():
    assert vp(12, 2) == 2
    assert vp(Fraction(3, 4), 2) == -2
    assert vp(Fraction(9, 5), 3) == 2
    assert vp(Fraction(-8), 2) == 3


def test_vp_zero_raises():
    with pytest.raises(ValueError, match="valuation of zero"):
        vp(0, 7)
    with pytest.raises(ValueError, match="valuation of zero"):
        vp(Fraction(0, 5), 3)


def test_vp_needs_prime():
    with pytest.raises(ValueError):
        vp(Fraction(1, 2), 6)


def test_frac_str():
    assert frac_str(Fraction(-3, 7)) == "-3/7"
    assert frac_str(0) == "0/1"
    assert frac_str(5) == "5/1"


# -- generator choice -------------------------------------------------------


def test_choose_k_frozen():
    assert {p: choose_k(p) for p in (2, 3, 5, 7, 11, 13)} == {
        2: 3,
        3: 5,
        5: 3,
        7: 3,
        11: 7,
        13: 7,
    }


def test_choose_k_generates_unit_group():
    for p in (3, 5, 7, 11, 13):
        k = choose_k(p)
        assert k % 2 == 1 and k % p != 0
        assert multiplicative_order(k, p * p) == p * (p - 1)
        # no smaller odd candidate works
        for smaller in range(3, k, 2):
            assert (
                smaller % p == 0
                or multiplicative_order(smaller, p * p) != p * (p - 1)
            )


def test_choose_k_at_two_is_plus_minus_three_mod_eight():
    assert choose_k(2) % 8 in (3, 5)


def test_multiplicative_order_basics():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)


# -- the valuation identity behind the main coefficient theorem -------------


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_denominator_valuation_odd_primes(p):
    for n in range(1, 21):
        lhs, rhs, note = denominator_valuation_check(p, n)
        assert lhs == rhs, (p, n)
        assert note == ""


def test_denominator_valuation_two():
    assert choose_k(2) == 3
    for n in range(1, 21):
        lhs, rhs, note = denominator_valuation_check(2, n)
        assert lhs == _int_val(3 ** (2 * n) - 1, 2), n
        assert lhs == rhs, n
        assert "factor of 2" in note


def test_valuation_identity_directly():
    # v_p(k^(2n) - 1) against the structural denominator formula, spelled
    # out once without going through denominator_valuation_check
    p, n = 5, 3
    k = choose_k(p)
    assert _int_val(k ** (2 * n) - 1, p) == _int_val(num_denom(n)[1], p)
