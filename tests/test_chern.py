"""Chern character, s-numbers, and the Bernoulli eigenvalue computations."""

import sys
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kverify import chern, series
from kverify.chern import (
    bh,
    bh_log_identity_check,
    bh_psi_relation_check,
    ch,
    eigenvalue_closed_form,
    psi_H,
    rk_eigenvalue,
    s_eval,
)
from kverify.exact import choose_k, vp
from kverify.kops import l_double_loop, psi, rho_line
from kverify.polyring import KClass, line_power
from test_series import ref_compose


def test_ch_of_line_is_exponential():
    for a in (1, 2, -1, 3):
        c = ch(line_power(a, 6))
        for m in range(7):
            assert c.coeffs[m] == Fraction(a) ** m / factorial(m), (a, m)


def test_ch_is_multiplicative():
    f = KClass([1, 2, 0, 1], 5)
    g = KClass([0, 1, 1], 5)
    assert ch(f * g) == ch(f) * ch(g)
    assert ch(f + g) == ch(f) + ch(g)


def test_ch_order_capped_by_truncation():
    f = KClass([0, 1], 2)
    assert ch(f) == KClass([0, 1, Fraction(1, 2)], 2)
    assert ch(f).den == 2


def test_additive_adams_operation():
    c = KClass([1, 1, 1], 2)
    assert psi_H(3, c) == KClass([1, 3, 9], 2)
    assert psi_H(3, c).den == 1
    # compatibility with the K-theory operation through ch
    for k in (2, 3, 5):
        for f in (line_power(2, 6), KClass([0, 1, 1, 0, 2], 6)):
            assert ch(psi(k, f)) == psi_H(k, ch(f)), k


def test_s_numbers_of_line_powers():
    # ch(L^a - 1) = exp(ae) - 1, so the m-th s-number is a^m
    for a in (1, 2, -1, -3):
        for m in range(1, 6):
            assert s_eval(m, line_power(a, 8) - 1) == Fraction(a) ** m
    assert s_eval(0, line_power(1, 4)) == 1
    with pytest.raises(ValueError):
        s_eval(-1, line_power(1, 4))


def ch_by_horner(f, order):
    """ch(f) through e^order by a Fraction Horner loop with exp(e) - 1."""
    exp_minus_one = [Fraction(0)] + [Fraction(1, factorial(m)) for m in range(1, order + 1)]
    return ref_compose(f.coeffs, exp_minus_one, order)


@st.composite
def rational_classes_and_order(draw):
    truncation = draw(st.integers(min_value=0, max_value=20))
    coeffs = draw(
        st.lists(
            st.fractions(max_denominator=12, min_value=-20, max_value=20),
            min_size=truncation + 1,
            max_size=truncation + 1,
        )
    )
    m = draw(st.integers(min_value=0, max_value=truncation))
    return KClass(coeffs, truncation), m


@settings(max_examples=60, deadline=None)
@given(rational_classes_and_order())
def test_s_eval_matches_character_route(fm):
    # ch and s_eval read one table of surjection counts; both are checked
    # against a Fraction Horner composition with exp(e) - 1
    f, m = fm
    horner = ch_by_horner(f, m)
    assert s_eval(m, f) == factorial(m) * horner[m]
    assert ch(KClass(f.nums, m, den=f.den)).coeffs == horner


def test_ch_of_the_conjugate_line_at_order_128():
    # ch(L^-1) = exp(-e) at the largest truncation the CLI accepts
    c = ch(line_power(-1, 128))
    assert c.coeffs == tuple(Fraction((-1) ** m, factorial(m)) for m in range(129))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ch_of_the_averaged_line_matches_horner(k):
    # the classes behind the series-psi-average rows
    f = rho_line(k, 1, 30)
    assert ch(f).coeffs == ch_by_horner(f, 30)


def test_surjection_row_requested_first_at_399():
    # an empty cache and a recursion limit just above the caller's depth: a
    # row built by recursion on m would fail here
    chern._surjection_rows.cache_clear()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        row = chern._surjections(399)
    finally:
        sys.setrecursionlimit(limit)
    assert len(row) == 400 and row[0] == 0
    assert row[1] == 1 and row[2] == 2**399 - 2 and row[399] == factorial(399)
    prev = chern._surjections(398) + (0,)
    assert row == (0,) + tuple(j * (prev[j] + prev[j - 1]) for j in range(1, 400))
    # inclusion-exclusion: j! S(m, j) = sum_i (-1)^i C(j, i) (j - i)^m
    for j in (3, 17, 200):
        assert row[j] == sum((-1) ** i * comb(j, i) * (j - i) ** 399 for i in range(j + 1))


def test_s_eval_window_edges():
    f = KClass([Fraction(1, 3), -2, Fraction(5, 7), 4, Fraction(-1, 2)], 4)
    assert s_eval(0, f) == Fraction(1, 3) == factorial(0) * ch_by_horner(f, 0)[0]
    assert s_eval(4, f) == factorial(4) * ch_by_horner(f, 4)[4]
    with pytest.raises(ValueError, match="order 5 exceeds truncation 4"):
        s_eval(5, f)
    with pytest.raises(ValueError, match="order 1 exceeds truncation 0"):
        s_eval(1, KClass([3], 0))


def surjections_with_extra_one():
    """A fault in the table: chern._surjections with +1 at j = 1 in every
    row m >= 1."""
    row_of = chern._surjections

    def broken(m):
        row = row_of(m)
        return row[:1] + (row[1] + 1,) + row[2:] if m else row

    return broken


def test_conjugate_line_duality_sign(monkeypatch):
    # the sign is read at window m; s_m reads only c_0..c_m, so any wider
    # window gives the same number, up to weight 2p - 1 at the prime ceiling
    for m in [*range(1, 61), 2 * 199 - 1]:
        sign = chern.duality_sign(m)
        assert type(sign) is int and sign == (-1) ** m
        for window in (m + 1, m + 5):
            assert s_eval(m, line_power(-1, window) - 1) == sign, (m, window)
    with pytest.raises(ValueError):
        chern.duality_sign(0)
    monkeypatch.setattr(chern, "_surjections", surjections_with_extra_one())
    for m in (1, 2, 9, 397):
        with pytest.raises(ArithmeticError, match="normalizing s-number"):
            chern.duality_sign(m)


# -- multiplicative series identities ---------------------------------------


def test_bh_coefficients():
    c = bh(5)
    assert c.coeffs == tuple(Fraction(1, factorial(m + 1)) for m in range(6))
    assert c.den == factorial(6)


def test_bh_log_identity_through_order_thirty():
    for order in range(2, 31, 2):
        check = bh_log_identity_check(order)
        assert check.passed and check.first_mismatch is None, order
    with pytest.raises(ValueError):
        bh_log_identity_check(5)
    with pytest.raises(ValueError):
        bh_log_identity_check(0)


def test_bh_log_identity_frozen_coefficients():
    check = bh_log_identity_check(6)
    assert check.lhs[1] == Fraction(1, 2)
    assert check.lhs[2] == Fraction(1, 24)
    assert check.lhs[3] == 0
    assert check.lhs[4] == Fraction(-1, 2880)
    assert check.lhs == check.rhs


def test_bh_psi_relation():
    for k in (2, 3, 5):
        for order in (8, 30):
            check = bh_psi_relation_check(k, order)
            assert check.passed, (k, order)
            # both sides are (exp(kx) - 1)/(kx)
            assert check.lhs == tuple(
                Fraction(k) ** m / factorial(m + 1) for m in range(order + 1)
            )
    with pytest.raises(ValueError):
        bh_psi_relation_check(0, 4)
    with pytest.raises(ValueError):
        bh_psi_relation_check(2, 0)


# -- eigenvalues ------------------------------------------------------------


def test_eigenvalue_closed_form_frozen():
    assert eigenvalue_closed_form(5, 1) == 2
    assert eigenvalue_closed_form(3, 1) == Fraction(2, 3)
    assert eigenvalue_closed_form(5, 2) == Fraction(-26, 5)
    with pytest.raises(ValueError):
        eigenvalue_closed_form(3, 0)


def test_series_route_matches_closed_form():
    for p in (3, 5, 7):
        k = choose_k(p)
        for n in range(1, 5):
            value = rk_eigenvalue(k, n)
            assert value == eigenvalue_closed_form(k, n), (p, n)
            # p-local: the denominator never picks up the prime
            assert vp(value, p) >= 0, (p, n)


def test_eigenvalue_worked_examples():
    assert rk_eigenvalue(5, 1) == 2
    assert rk_eigenvalue(3, 1) == Fraction(2, 3)
    assert rk_eigenvalue(5, 2) == Fraction(-26, 5)


def test_eigenvalue_truncation_stable():
    for n in (1, 2, 3):
        tight = rk_eigenvalue(5, n)
        wide = rk_eigenvalue(5, n, truncation=2 * n + 5)
        assert tight == wide, n


def test_repeated_eigenvalue_is_a_lookup(monkeypatch):
    # one computation per (k, 2n - 1, exact truncation): asked again, the
    # eigenvalue costs no inversion and no s-number; a wider window is its
    # own inversion.  The class at window T reads the inverse of the
    # binomial row through u^(T+1), so it reads T + 2 coefficients.
    chern._conjugate_average.cache_clear()
    chern._eigenvalue.cache_clear()
    calls = []
    inv, evaluate = series.inv, chern.s_eval

    def counting_inv(a):
        i = len(calls)
        calls.append(("inv", 0))
        for read, c in enumerate(inv(a), 1):
            calls[i] = ("inv", read)
            yield c

    def counting_s_eval(m, f):
        calls.append(("s_eval", m))
        return evaluate(m, f)

    monkeypatch.setattr(series, "inv", counting_inv)
    monkeypatch.setattr(chern, "s_eval", counting_s_eval)
    n = 3
    first = rk_eigenvalue(5, n)
    assert calls == [("inv", 2 * n + 4), ("s_eval", 2 * n - 1), ("s_eval", 2 * n - 1)]
    calls.clear()
    assert rk_eigenvalue(5, n) == first == eigenvalue_closed_form(5, n)
    assert calls == []
    assert rk_eigenvalue(5, n, truncation=2 * n + 5) == first
    assert calls == [("inv", 2 * n + 7), ("s_eval", 2 * n - 1), ("s_eval", 2 * n - 1)]


def test_eigenvalue_input_validation():
    with pytest.raises(ValueError):
        rk_eigenvalue(5, 0)
    with pytest.raises(ValueError):
        rk_eigenvalue(5, 2, truncation=2)


# -- the double-loop logarithm seen through s-numbers -----------------------


def test_double_loop_log_weight_scalars():
    # on the weight-m piece the logarithm acts by 1 - p^m, a p-adic unit
    for p in (2, 3, 5):
        f = line_power(1, 8) - 1
        g = l_double_loop(p, f)
        for m in range(1, 7):
            scalar = 1 - p**m
            assert s_eval(m, g) == scalar * s_eval(m, f), (p, m)
            assert scalar % p == 1  # a unit mod p, so no p-local information lost
