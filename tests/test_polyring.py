"""Ring axioms and the one-denominator representation of the truncated polynomial model."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kverify import series
from kverify.polyring import Claim, KClass, TruncationMismatch, line_power

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def kclass_tuples(draw, count=2, integral=False):
    """``count`` classes sharing one truncation, rational by default."""
    truncation = draw(st.integers(min_value=0, max_value=5))
    entry = small_ints if integral else small_fractions
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(entry, min_size=1, max_size=truncation + 1))
        out.append(KClass(coeffs, truncation))
    return tuple(out)


@settings(max_examples=60)
@given(kclass_tuples(count=3))
def test_ring_axioms(fgh):
    f, g, h = fgh
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    n = f.truncation
    assert f + KClass.zero(n) == f
    assert f * line_power(0, n) == f
    assert f + (-f) == KClass.zero(n)


@settings(max_examples=40)
@given(kclass_tuples(count=1), small_fractions, small_fractions)
def test_scalar_action(fs, a, b):
    (f,) = fs
    assert a * f == f * a
    assert (a + b) * f == a * f + b * f
    assert a * (b * f) == (a * b) * f
    if b != 0:
        assert (f / b) * b == f


@settings(max_examples=40)
@given(
    st.booleans().flatmap(lambda integral: kclass_tuples(count=1, integral=integral)),
    st.one_of(small_ints, small_fractions),
)
def test_scalar_minus_class_is_negated_class_minus_scalar(fs, q):
    # q - f reaches KClass.__rsub__, for an int and for a Fraction q
    (f,) = fs
    assert q - f == -(f - q)


def _repeated_products(f: KClass) -> list[KClass]:
    """f^0, ..., f^N as m-fold products, from the unit."""
    out = [line_power(0, f.truncation)]
    for _ in range(f.truncation):
        out.append(out[-1] * f)
    return out


@settings(max_examples=40)
@given(kclass_tuples(count=1))
def test_powers_are_repeated_products(fs):
    (f,) = fs
    assert list(f.powers()) == _repeated_products(f)


_POWER_SAMPLES = (
    line_power(3, 6),  # a unit
    KClass([0, 1, -2, 0, 3], 6),  # reduced
    KClass([0, Fraction(1, 2), 1], 6),  # reduced, 5-local
    KClass([Fraction(1, 3), 1, Fraction(2, 9)], 6),  # 3 inverted
)


def test_zeroth_power_is_the_unit():
    for f in _POWER_SAMPLES + (KClass.zero(4), KClass.zero(0)):
        one = f.powers()[0]
        assert (one, one.truncation, one.den) == (1, f.truncation, 1)
        assert len(f.powers()) == f.truncation + 1


def test_powers_match_repeated_products_on_samples():
    for f in _POWER_SAMPLES:
        assert list(f.powers()) == _repeated_products(f), f


def _counting_products(monkeypatch) -> list:
    """A list that grows by one on each series.mul call from here on."""
    products = []
    mul = series.mul

    def counting_mul(*args):
        products.append(1)
        return mul(*args)

    monkeypatch.setattr(series, "mul", counting_mul)
    return products


def test_powers_take_one_product_per_entry_and_are_kept(monkeypatch):
    # a fresh class (the samples above may hold their tables already): the
    # first call takes one product for each of f^2..f^N (f^1 is a copy of
    # f), and every later call returns the same table with no product
    f = KClass([Fraction(1, 3), 1, Fraction(2, 9)], 6)
    products = _counting_products(monkeypatch)
    table = f.powers()
    assert len(products) == f.truncation - 1
    assert table[1] == f and table[1] is not f
    products.clear()
    assert f.powers() is table and products == []


def test_vanished_powers_cost_no_product(monkeypatch):
    # f of u-adic valuation v >= 1 has f^m = 0 exactly when v m > N: the
    # entry that first vanishes takes its product (unless it is f^1, a
    # copy), and the entries after it take none; a class with a nonzero
    # constant term never vanishes, and the zero class vanishes at f^1.
    # Fresh classes, as the tables are kept.
    def fresh():
        u = line_power(1, 6) - 1
        return [
            (u, 1),
            (u * u, 2),
            (u + u * u, 1),
            (KClass([0, 0, 0, 5], 6), 3),
            (KClass([0, Fraction(1, 2), 1], 6), 1),
            (KClass([0, 0, 0, 0, 1], 6), 4),
            (line_power(3, 6), 0),
            (KClass.zero(4), None),
        ]

    expected = [_repeated_products(f) for f, _ in fresh()]
    cases = fresh()
    products = _counting_products(monkeypatch)
    for (f, v), repeated in zip(cases, expected):
        N = f.truncation
        first_zero = 1 if v is None else N // v + 1 if v else N + 1
        products.clear()
        table = f.powers()
        assert list(table) == repeated, f
        assert [m for m in range(N + 1) if table[m].is_zero()] == list(range(first_zero, N + 1))
        assert len(products) == max(0, min(N, first_zero) - 1), f


def test_truncation_mismatch_raises():
    with pytest.raises(TruncationMismatch):
        KClass([1, 2], 3) + KClass([1], 4)
    with pytest.raises(TruncationMismatch):
        KClass([1, 2], 3) * KClass([1], 4)


def test_truncation_discards_high_terms():
    f = KClass([0, 0, 0, 5], 2)
    assert f.is_zero()
    assert KClass([1, 2, 3, 4], 2) == KClass([1, 2, 3], 2)


def test_a_class_with_no_u_terms_equals_its_constant():
    assert KClass([7], 2) == 7
    assert KClass([0, 1], 2) != 0
    # equality is defined and hashing is not, so a class is unhashable
    with pytest.raises(TypeError):
        hash(KClass([7], 2))


def test_coefficient_accessors():
    f = KClass([1, Fraction(1, 2)], 4)
    assert f.augmentation == 1
    assert f.coeffs[1] == Fraction(1, 2)
    assert f.coeffs[4] == 0
    assert len(f.coeffs) == 5


def test_str_writes_each_coefficient_in_lowest_terms():
    # one denominator 6 for all five coefficients; each is reduced on its own
    f = KClass([Fraction(1, 2), 0, Fraction(-2, 3), 3, Fraction(-5, 6)], 4)
    assert f.den == 6
    assert str(f) == "[1/2, 0/1, -2/3, 3/1, -5/6]"
    assert str(KClass.zero(2)) == "[0/1, 0/1, 0/1]"
    assert repr(f) == "KClass([1/2, 0/1, -2/3, 3/1, -5/6], N=4)"


# -- p-locality ------------------------------------------------------------


def test_claim_admits():
    # admits reads a lowest-terms denominator: prime to p or not
    assert Claim(2).admits(3) and not Claim(3).admits(3)
    assert Claim(5).admits(1) and Claim(7).admits(12)
    assert not Claim(2).admits(12)


def test_coefficients_are_read_as_fractions_and_still_checked():
    # ints, bools and Fractions are stored as integer numerators over one
    # denominator; coeffs reads them back as Fractions of the same value, and
    # a Fraction coefficient still counts in the p-locality of that denominator
    half = Fraction(1, 2)
    f = KClass([1, True, half, False], 5)
    assert (f.nums, f.den) == ((2, 2, 1, 0, 0, 0), 2)
    assert all(type(c) is Fraction for c in f.coeffs)
    assert f.coeffs == (1, 1, half, 0, 0, 0)
    assert all(type(x) is int for x in f.nums)
    assert all(type(c) is Fraction for c in KClass.constant(3, 2).coeffs)
    assert all(type(c) is Fraction for c in (line_power(-1, 4) * 2).coeffs)
    assert KClass([4, 6], 1, den=4) == KClass([1, Fraction(3, 2)], 1)
    with pytest.raises(ValueError):
        KClass([1], 1, den=0)
    assert not Claim(2).admits(KClass([1, True, half], 3).den)
    assert not Claim(3).admits(KClass([2, 0, Fraction(1, 3), 5], 3).den)
    assert not Claim(2).admits((KClass([1, 2], 2) * half).den)


# -- one denominator --------------------------------------------------------

coefficient_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=30)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(coefficient_fractions, min_size=1, max_size=7),
    st.sampled_from([2, 3, 5, 7]),
)
def test_denominator_check_matches_coefficient_check(coeffs, p):
    # the p-locality test of the one denominator holds exactly when every
    # coefficient's denominator is prime to p
    f = KClass(coeffs, len(coeffs) - 1)
    assert f.coeffs == tuple(coeffs)
    assert Claim(p).admits(f.den) == all(c.denominator % p for c in coeffs)


def _lowest_terms(f: KClass) -> bool:
    return f.den >= 1 and gcd(f.den, *f.nums) == 1 and len(f.nums) == f.truncation + 1


@settings(max_examples=60, deadline=None)
@given(kclass_tuples(count=2), small_fractions)
def test_every_class_is_in_lowest_terms(fg, q):
    f, g = fg
    results = [f, g, f + g, f - g, -f, f * g, f * q, f - q, f * f * f]
    if q != 0:
        results.append(f / q)
    for h in results:
        assert _lowest_terms(h), h


def test_routes_to_one_value_compare_equal():
    for n in (0, 1, 4, 9):
        one = line_power(0, n)
        for other in (
            line_power(-1, n) * line_power(1, n),
            line_power(2, n) * line_power(-2, n),
            KClass([Fraction(3, 7)], n) * Fraction(7, 3),
            (KClass([2, 4], n) * Fraction(1, 4) - KClass([0, 1], n) / 1) * 2,
            KClass([6], n, den=6),
        ):
            assert other == one, (n, other)
    u = line_power(1, 6) - 1
    assert u * Fraction(1, 3) + u * Fraction(2, 3) == u


# -- powers of the line class -----------------------------------------------


def test_line_power_small_cases():
    assert line_power(0, 3) == KClass([1], 3)
    assert line_power(1, 3) == KClass([1, 1], 3)
    assert line_power(2, 3) == KClass([1, 2, 1], 3)
    # geometric series for the inverse line
    assert line_power(-1, 4) == KClass([1, -1, 1, -1, 1], 4)


@settings(max_examples=40)
@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=0, max_value=6),
)
def test_line_power_is_multiplicative(a, b, truncation):
    lhs = line_power(a, truncation) * line_power(b, truncation)
    assert lhs == line_power(a + b, truncation)
    assert line_power(a, truncation).den == 1


def test_line_power_inverse_route():
    # the binomial formula for negative exponents gives the inverse line power
    for a in (1, 2, 3):
        assert line_power(-a, 5) * line_power(a, 5) == 1
