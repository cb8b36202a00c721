"""The series kernels against plain Fraction loops.

mul is an integer convolution, compose an integer sum over given powers,
log1 a recurrence on numerators over one denominator, integers in and out,
and inv sums integer numerators over common denominators; the reference
loops below add one Fraction product at a time, as the kernels once did,
and serve as the oracle.  inv is a stream, read here through inv_to, its
prefix through a given order, and log1 is read through log1_of, which
feeds it a rational series as numerators and reads its result back.
"""

from fractions import Fraction
from itertools import count, islice
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kverify import series

SERIES = settings(max_examples=100, deadline=None, derandomize=True)


def fit(coeffs, order):
    out = [Fraction(c) for c in coeffs][: order + 1]
    return tuple(out + [Fraction(0)] * (order + 1 - len(out)))


def inv_to(a, order):
    return tuple(islice(series.inv(a), order + 1))


def ref_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x == 0 or i > order:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            if y != 0:
                out[i + j] += x * y
    return tuple(out)


def ref_inv(a, order):
    a = [Fraction(c) for c in a]
    out = [Fraction(0)] * (order + 1)
    out[0] = 1 / a[0]
    for m in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, min(m, len(a) - 1) + 1):
            s += a[j] * out[m - j]
        out[m] = -s / a[0]
    return tuple(out)


def ref_compose(f, g, order):
    acc = fit([f[-1]], order)
    for i in range(len(f) - 2, -1, -1):
        acc = ref_mul(acc, g, order)
        acc = tuple(x + (f[i] if k == 0 else 0) for k, x in enumerate(acc))
    return acc


def ref_log1(a, order):
    w = fit([0, *a[1:]], order)
    out = [Fraction(0)] * (order + 1)
    wpow = fit([1], order)
    for m in range(1, order + 1):
        wpow = ref_mul(wpow, w, order)
        for i, c in enumerate(wpow):
            out[i] += Fraction((-1) ** (m - 1), m) * c
    return tuple(out)


def _numerators(a):
    d = lcm(*(Fraction(c).denominator for c in a))
    return [int(c * d) for c in a], d


def log1_of(a, order):
    nums, den = series.log1(*_numerators(a), order)
    assert all(type(x) is int for x in (*nums, den))
    return tuple(Fraction(x, den) for x in nums)


def _exact(result, expected):
    return all(type(c) is Fraction for c in result) and result == expected


# Coefficients mix ints and Fractions, with zeros common enough that runs
# of them (inside and at the end of a series) turn up often.
coefficient = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-40, 40),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
# the same without the Fraction branch, for the integer-only kernels
integer = st.one_of(st.just(0), st.just(0), st.integers(-40, 40))
coefficients = st.lists(coefficient, min_size=1, max_size=12)
nonzero = coefficient.filter(lambda c: c != 0)
orders = st.integers(0, 16)


@SERIES
@given(coefficients, coefficients, orders)
def test_mul_matches_fraction_loop(a, b, order):
    # integers in give integers out; rational series go in as numerators
    # over one denominator each, as KClass products do
    expected = ref_mul(a, b, order)
    na, da = _numerators(a)
    nb, db = _numerators(b)
    product = series.mul(na, nb, order)
    assert all(type(x) is int for x in product) and len(product) == order + 1
    assert tuple(Fraction(x, da * db) for x in product) == expected
    assert series.mul(a, b, order) == expected


@SERIES
@given(nonzero, st.lists(coefficient, max_size=12), orders)
def test_inv_matches_fraction_loop(c, rest, order):
    a = [c, *rest]
    assert _exact(inv_to(a, order), ref_inv(a, order))


@SERIES
@given(st.lists(integer, min_size=1, max_size=8), st.lists(integer, min_size=1, max_size=12), orders)
def test_compose_matches_fraction_loop(f, g, order):
    # integer f and the powers of an integer g with zero constant term, row j
    # from x^j on, as psi and ch pass their cached tables
    g = [0, *g]
    powers, power = [], fit([1], order)
    for j in range(order + 1):
        powers.append([int(x) for x in power[j:]])
        power = ref_mul(power, g, order)
    result = series.compose(f, powers)
    assert all(type(x) is int for x in result)
    assert tuple(result) == ref_compose(f, g, order)


@SERIES
@given(st.lists(coefficient, max_size=10), st.integers(0, 12))
def test_log1_matches_fraction_loop(rest, order):
    a = [1, *rest]
    assert log1_of(a, order) == ref_log1(a, order)


def test_log1_when_the_denominator_widens_at_every_step():
    # 1/(m+1)!, the series (exp(x) - 1)/x: the logarithm's coefficients
    # widen the recurrence's common denominator again and again
    a = [Fraction(1, factorial(m + 1)) for m in range(41)]
    full = log1_of(a, 40)
    assert full == ref_log1(a, 40)
    for order in range(40):
        assert log1_of(a, order) == full[: order + 1]


def test_order_zero():
    assert series.mul([Fraction(2, 3), 5], [Fraction(-3, 4), 1], 0) == (Fraction(-1, 2),)
    assert inv_to([Fraction(-2, 3), 1, 1], 0) == (Fraction(-3, 2),)


def test_inverse_of_the_bernoulli_denominators():
    # exp(z) - 1 over z: the coefficient denominators widen at almost
    # every step, so the stored numerators are rescaled again and again
    order = 64
    a = tuple(Fraction(1, factorial(m + 1)) for m in range(order + 1))
    inverse = inv_to(a, order)
    assert inverse == ref_inv(a, order)
    assert series.mul(a, inverse, order) == fit([1], order)


def test_inverse_of_an_infinite_series_matches_its_finite_prefix():
    order = 64
    finite = tuple(Fraction(1, factorial(m + 1)) for m in range(order + 1))
    infinite = (Fraction(1, factorial(m + 1)) for m in count())
    assert inv_to(infinite, order) == inv_to(finite, order) == ref_inv(finite, order)


@pytest.mark.parametrize("m", [0, 1, 5])
def test_inverse_reads_term_m_only_for_coefficient_m(m):
    head = (Fraction(2), Fraction(-1, 3), 0, Fraction(5, 7), 1, 0)[: m + 1]

    def terms():
        yield from head
        raise RuntimeError(f"term {m + 1} read")

    stream = series.inv(terms())
    assert tuple(islice(stream, m + 1)) == ref_inv(head, m)
    with pytest.raises(RuntimeError, match=f"term {m + 1} read"):
        next(stream)


@pytest.mark.parametrize(
    "a",
    [
        (Fraction(3, 2), 0, 0, Fraction(-1, 5), 0, 2),
        (1, 0, 0, 0, 0, 0, 0, 0),
        (Fraction(-1, 4), Fraction(1, 6), 0, 0, 0, 0, 0, 0, 0),
        (3, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ],
)
def test_inverse_with_zero_terms_inside_and_at_the_end(a):
    # zero terms inside are read like any other; a finite series reads as
    # zero-padded once it ends, as if its trailing zeros were given
    for order in (len(a) - 1, len(a) + 9):
        assert _exact(inv_to(a, order), ref_inv(a, order))
        assert inv_to(a, order) == inv_to(list(a) + [0] * 10, order)


@pytest.mark.parametrize("a", [(), (0,), (Fraction(0), 1), [0, 0, 3]])
def test_inverse_needs_a_nonzero_constant_term(a):
    stream = series.inv(a)
    with pytest.raises(ZeroDivisionError, match="zero constant term"):
        next(stream)


# each a is (numerators, denominator): no terms, constant term 0, and 2 = 4/2
@pytest.mark.parametrize("a", [((), 1), ((0, 1), 1), ((4, 1), 2)])
def test_log_needs_constant_term_one(a):
    with pytest.raises(ValueError, match="constant term 1"):
        series.log1(*a, 4)
