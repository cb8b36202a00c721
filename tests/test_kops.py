"""Adams operations, transfer classes, theta operations, p-local logarithm.
The transfer classes and the conjugate average are built in polyring; their
tests sit here with psi, which their defining relations read.

The closed forms pinned here (the telescoped logarithm, the polynomial
identity behind the conjugate average) were derived by hand; the code under
test only ever evaluates defining sums, so agreement is a real check.
"""

from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kverify import chern, kops, series
from kverify.kops import (
    IntegralityViolation,
    artin_hasse_log,
    l_double_loop,
    log_one_minus,
    psi,
    theta,
)
from kverify.polyring import Claim, KClass, line_power, r_line_conjugate, rho_line
from test_series import ref_compose

small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def integral_classes(draw, count=1):
    truncation = draw(st.integers(min_value=0, max_value=5))
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(small_ints, min_size=1, max_size=truncation + 1))
        out.append(KClass(coeffs, truncation))
    return tuple(out)


# -- Adams operations -------------------------------------------------------


@settings(max_examples=50)
@given(integral_classes(count=2), st.integers(min_value=2, max_value=5))
def test_psi_is_a_ring_homomorphism(fg, k):
    f, g = fg
    assert psi(k, f + g) == psi(k, f) + psi(k, g)
    assert psi(k, f * g) == psi(k, f) * psi(k, g)
    assert psi(k, line_power(0, f.truncation)) == line_power(0, f.truncation)


@settings(max_examples=50)
@given(
    integral_classes(),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
)
def test_psi_composition_law(fs, k, l):
    (f,) = fs
    assert psi(k, psi(l, f)) == psi(k * l, f)


def test_psi_one_is_identity():
    f = KClass([1, 2, 3], 4)
    assert psi(1, f) == f


@settings(max_examples=40)
@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=6),
)
def test_psi_on_line_powers(a, k, truncation):
    assert psi(k, line_power(a, truncation)) == line_power(k * a, truncation)


def test_psi_preserves_claim():
    # psi of a 3-local class is 3-local, read off its denominator
    f = KClass([0, Fraction(1, 2)], 3)
    assert Claim(3).admits(psi(3, f).den)
    with pytest.raises(ValueError):
        psi(0, f)


def _psi_inputs(truncation):
    """Classes at one truncation: integral, 3-local, with 5 inverted, rational."""
    ramp = range(1, truncation + 2)
    return [
        KClass([(-1) ** i * i * i for i in ramp], truncation),
        KClass([Fraction(i, 2) for i in ramp], truncation),
        KClass([Fraction(1, 5**i) for i in range(truncation + 1)], truncation),
        KClass([Fraction(i, i + 3) for i in ramp], truncation),
    ]


@pytest.mark.parametrize("truncation", [0, 1, 8, 16])
@pytest.mark.parametrize("k", [-3, -1, 1, 2, 3, 5, 7])
def test_psi_matches_horner_substitution(k, truncation):
    # a Fraction Horner loop, independent of psi's matrix and series.compose
    shifted = (line_power(k, truncation) - 1).coeffs
    for f in _psi_inputs(truncation):
        horner = ref_compose(f.coeffs, shifted, truncation)
        result = psi(k, f)
        assert result.coeffs == horner
        assert result.truncation == truncation
        assert f.den % result.den == 0  # no new prime in the denominator



# -- transfer classes -------------------------------------------------------


def test_rho_line_defining_relation():
    # psi^k(1 - L^a) = k * rho * (1 - L^a), the cyclic-cover transfer law
    for k in (2, 3, 5):
        for a in (1, 2, 3):
            lam = line_power(0, 8) - line_power(a, 8)
            assert psi(k, lam) == k * rho_line(k, a, 8) * lam


def test_rho_sum_defining_relation():
    for k in (2, 3):
        for exponents in ((1,), (1, 2), (2, 3), (1, 1, 2)):
            # the transfer class of a sum of lines is the product of the line values
            product = line_power(0, 8)
            rho = line_power(0, 8)
            for a in exponents:
                product = product * (line_power(0, 8) - line_power(a, 8))
                rho = rho * rho_line(k, a, 8)
            lhs = psi(k, product)
            rhs = k ** len(exponents) * rho * product
            assert lhs == rhs, (k, exponents)


def test_rho_claims_and_errors():
    # rho_line has k inverted: its denominator divides k
    for k in (2, 3, 6):
        assert k % rho_line(k, 1, 4).den == 0
    assert rho_line(3, 1, 4).den == 3
    assert rho_line(1, 5, 4) == 1  # the trivial cover
    with pytest.raises(ValueError):
        rho_line(0, 1, 4)


def test_conjugate_average_frozen_values():
    assert r_line_conjugate(2, 2).coeffs == (
        Fraction(1, 2),
        Fraction(-1, 4),
        Fraction(1, 8),
    )
    assert r_line_conjugate(3, 2) == KClass([1, Fraction(-2, 3), Fraction(1, 3)], 2)


def test_conjugate_average_augmentation():
    for k in range(2, 8):
        assert r_line_conjugate(k, 5).augmentation == Fraction(k - 1, 2)


def test_conjugate_average_polynomial_identity():
    # (L - 1) * numerator = denominator - k, checked at the polynomial level
    # with numerator and denominator rebuilt here from scratch as sums of
    # line powers, and checked against the binomial rows that replace them
    for k in range(2, 16):
        for truncation in (4, 8, 12, 16):
            num = KClass.zero(truncation)
            for i in range(k - 1):
                num = num + (k - 1 - i) * line_power(i, truncation)
            den = KClass.zero(truncation)
            for i in range(k):
                den = den + line_power(i, truncation)
            rows = range(truncation + 1)
            assert num == KClass([comb(k, j + 2) for j in rows], truncation)
            assert den == KClass([comb(k, j + 1) for j in rows], truncation)
            u = line_power(1, truncation) - 1
            assert u * num == den - k, (k, truncation)
            assert r_line_conjugate(k, truncation) * den == num


def _long_division(a, b, truncation):
    """a / b through u^truncation, quotient term by term."""
    quotient = []
    for j in range(truncation + 1):
        rest = a[j] - sum(quotient[i] * b[j - i] for i in range(j))
        quotient.append(Fraction(rest, b[0]))
    return quotient


def test_conjugate_average_at_windows_shorter_than_its_rows():
    # the numerator row C(k, j+2) divided by the denominator row C(k, j+1),
    # long-hand, including windows far shorter than the k-term rows
    for k in (2, 3, 7, 999):
        for truncation in (0, 1, 2, 4):
            num = [comb(k, j + 2) for j in range(truncation + 1)]
            den = [comb(k, j + 1) for j in range(truncation + 1)]
            got = r_line_conjugate(k, truncation)
            assert got.coeffs == tuple(_long_division(num, den, truncation)), (k, truncation)
            assert got.truncation == truncation


def test_virtual_conjugate_reduced():
    # chern's reduced class: the average less its augmentation (k-1)/2
    for k in (3, 5, 7):
        f = chern._conjugate_average(k, 6)
        assert f.augmentation == 0
        assert f == r_line_conjugate(k, 6) - Fraction(k - 1, 2)
    with pytest.raises(ValueError):
        chern._conjugate_average(4, 6)
    with pytest.raises(ValueError):
        r_line_conjugate(1, 6)


# -- theta operations -------------------------------------------------------


def test_theta_frozen_values():
    u2 = line_power(1, 2) - 1
    assert theta(3, 1, u2) == KClass([0, -1, -1], 2)
    u8 = line_power(1, 8) - 1
    assert theta(2, 2, u8) == KClass([0, 0, -1, -1], 8)


def test_theta_t_zero_is_identity():
    f = KClass([0, 1, 2], 5)
    assert theta(5, 0, f) == f


def test_theta_integral_on_integral_input():
    # the divisibility lemma: no IntegralityViolation on reduced integral
    # classes, and the quotient is again integral
    for p in (2, 3, 5):
        for t in (1, 2, 3):
            for coeffs in ([0, 1], [0, 1, 1], [0, 2, 0, 1], [0, -1, 3]):
                f = KClass(coeffs, 10)
                g = theta(p, t, f)
                assert all(c.denominator == 1 for c in g.coeffs), (p, t, coeffs)


def test_theta_input_validation():
    u = line_power(1, 4) - 1
    with pytest.raises(ValueError):
        theta(4, 1, u)
    with pytest.raises(ValueError):
        theta(3, -1, u)
    with pytest.raises(ValueError):
        theta(3, 1, line_power(1, 4))  # augmentation 1
    with pytest.raises(ValueError, match="needs a 3-local input"):
        theta(3, 1, u * Fraction(1, 3))


def test_p_locality_is_read_off_the_values():
    # theta, the double-loop form and the logarithm refuse a 3 in the
    # input's denominator and accept any other prime there
    u = line_power(1, 4) - 1
    for x in (u * Fraction(1, 3), u * Fraction(2, 15)):
        for operation in (lambda x: theta(3, 1, x), lambda x: l_double_loop(3, x)):
            with pytest.raises(ValueError, match="needs a 3-local input"):
                operation(x)
        with pytest.raises(ValueError, match="needs a 3-local input"):
            artin_hasse_log(3, x)
    x = u * Fraction(1, 5)
    for t in (0, 1, 2):
        assert Claim(3).admits(theta(3, t, x).den)
    assert l_double_loop(3, x) == x - psi(3, x)
    assert Claim(3).admits(artin_hasse_log(3, x).den)


def test_integrality_violation_contract():
    # Unreachable through theta on inputs its p-locality check admits (that
    # is the lemma), so pin the exception payload on the divider itself.
    f = KClass([0, Fraction(1, 2)], 2)
    with pytest.raises(IntegralityViolation) as info:
        kops._divide_p_power(f, 3, 1)
    err = info.value
    assert (err.prime, err.t, err.index) == (3, 1, 1)
    assert err.coefficient == Fraction(1, 2)
    assert isinstance(err, ArithmeticError)


# -- logarithms -------------------------------------------------------------


def test_log_one_minus_basics():
    u = line_power(1, 4) - 1
    assert log_one_minus(u) == KClass(
        [0, -1, Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4)], 4
    )
    with pytest.raises(ValueError):
        log_one_minus(line_power(1, 4))


def _log1_over_common_denominator(a, order):
    """The series logarithm summed as (-1)^(m-1) w^m / m over one common
    denominator lcm(1..order) dw^order, for a = 1 + w and w = nw / dw."""
    w = [Fraction(c) for c in a[1 : order + 1]]
    dw = lcm(*(c.denominator for c in w))
    nw = [0] + [c.numerator * (dw // c.denominator) for c in w]
    d = lcm(*range(1, order + 1)) * dw**order
    out = [0] * (order + 1)
    wpow = (1,)
    for m in range(1, order + 1):
        wpow = series.mul(wpow, nw, order)
        term = (-1) ** (m - 1) * d // (m * dw**m)
        out = [x + term * y for x, y in zip(out, wpow)]
    return tuple(Fraction(x, d) for x in out)


def test_log_one_minus_matches_the_common_denominator_sum():
    u = line_power(1, 128) - 1
    for x in (u, u * u, u + u * u, Fraction(1, 3) * u + 2 * u**3):
        expected = _log1_over_common_denominator((1 - x).coeffs, 128)
        assert log_one_minus(x) == KClass(expected, 128)


def test_artin_hasse_log_frozen_value():
    u = line_power(1, 3) - 1
    assert artin_hasse_log(3, u * u) == KClass([0, 0, 2, 6], 3)


def test_artin_hasse_log_closed_form():
    # the theta sum telescopes to (1 - psi^p/p) log(1 - x)
    for p in (2, 3, 5):
        for truncation in (6, 8):
            u = line_power(1, truncation) - 1
            for x in (u, u * u, u + u * u, 2 * u + u**3):
                lhs = artin_hasse_log(p, x)
                logx = log_one_minus(x)
                rhs = logx - psi(p, logx) / p
                assert lhs == rhs, (p, truncation)


def _log_by_theta(p, x):
    """The defining double sum, every term a public theta call."""
    truncation = x.truncation
    total = KClass.zero(truncation)
    xn = x
    for n in range(1, truncation + 1):
        if xn.is_zero():
            break
        if n % p != 0:
            inner = KClass.zero(truncation)
            t = 0
            while t == 0 or n * p ** (t - 1) <= truncation:
                inner = inner + theta(p, t, xn)
                t += 1
            total = total + inner * Fraction(-1, n)
        xn = xn * x
    return total


def test_artin_hasse_log_is_the_theta_sum():
    # the logarithm carries its powers from one t to the next rather than
    # calling theta; it must still equal the sum of theta terms
    for p in (2, 3, 5):
        for truncation in range(1, 13):
            u = line_power(1, truncation) - 1
            for x in (u, u * u, u + u * u):
                got = artin_hasse_log(p, x)
                assert got == _log_by_theta(p, x), (p, truncation)
                assert Claim(p).admits(got.den)


def test_artin_hasse_log_of_a_3_local_class_is_the_theta_sum():
    # u/5 is not integral but is 3-local, so the logarithm takes it
    for truncation in (4, 9):
        x = (line_power(1, truncation) - 1) / 5
        got = artin_hasse_log(3, x)
        assert got == _log_by_theta(3, x), truncation
        assert all(c.denominator % 3 for c in got.coeffs), truncation


def test_artin_hasse_log_is_p_locally_integral():
    for p in (2, 3, 5, 7):
        u = line_power(1, 8) - 1
        f = artin_hasse_log(p, u)
        assert Claim(p).admits(f.den)
        assert all(c.denominator % p != 0 for c in f.coeffs)


def test_artin_hasse_log_input_validation():
    with pytest.raises(ValueError):
        artin_hasse_log(6, KClass([0, 1], 3))
    with pytest.raises(ValueError):
        artin_hasse_log(3, line_power(0, 3))
    with pytest.raises(ValueError, match="p = 9 is not prime"):
        l_double_loop(9, KClass([1], 3))


def test_double_loop_log_telescopes():
    # l(f) = f - psi^p(f) exactly, for any class, reduced or not
    for p in (2, 3, 5):
        for f in (
            line_power(1, 6),
            line_power(1, 6) - 1,
            KClass([1, 3, 0, 1], 6),
        ):
            assert l_double_loop(p, f) == f - psi(p, f)


def test_double_loop_log_zero_truncation():
    # degenerate base space: everything is scalar, psi^p fixes it
    f = KClass([5], 0)
    assert l_double_loop(3, f).is_zero()
