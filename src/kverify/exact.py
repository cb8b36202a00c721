"""Exact Bernoulli numbers, p-adic valuations and multiplicative generators.

Sign convention used throughout the package:

    z / (exp(z) - 1) + z / 2  =  1 + sum_{n >= 1} (-1)^(n-1) B_n z^(2n) / (2n)!

so every B_n here is positive: B_1 = 1/6, B_2 = 1/30, B_3 = 1/42, B_7 = 7/6.
This is the classical topologist's indexing.  Readers used to the signed
convention indexed by 2n should map B_n here to |B_{2n}| there; the odd
coefficients of the series above all vanish.

The primary algorithm expands the generating series with exact rational
arithmetic.  ``bernoulli_recursive`` reaches the same numbers through the
binomial recurrence and exists so that callers (``bernoulli_rows`` and the
acceptance suite) can cross-check the two routes against each other.

Each route computes its table once per process and serves every smaller
index as a prefix of it.  The series route keeps one expansion: the
coefficients found so far and the ``series.inv`` stream that continues
them.  Coefficient m of an inverse series depends only on the terms up to
m, so ``bernoulli(n)`` extends that expansion to exactly order 2n, whatever
order the indices are asked in, and a run up to n computes 2n + 1
coefficients once.  ``bernoulli_recursive(n)`` extends one record of the
signed B_j with the recurrence as far as index 2n.  The two routes
share no arithmetic: the recurrence never touches ``series``, and the
module imports ``series`` only when the first expansion starts, so a
caller of the recurrence or the valuations alone never loads it.

Both routes sum integers.  The series route gets this from ``series.inv``;
the recurrence writes the same idiom out on its own: its record is the
numerators of B_0, B_1, ... over one common denominator, it sums each new
entry's binomial terms as one integer, makes one Fraction of it, and
rescales the numerators when that entry widens the common denominator.
The recurrence steps over even indices only: the signed B_j vanish at odd
j from j = 3 on, so the record takes a 0 there without a sum.  A Fraction
of the record is built only for the index asked for.  Each route builds the
B_n it returns, and the roundtrip each coefficient it rebuilds, as one
Fraction, normalized once.

The rows of the `bernoulli` command are built here, by ``bernoulli_rows``:
each of its checks is one ``report.rows`` call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, islice, repeat
from math import comb, factorial, gcd
from operator import add
from typing import Iterator

from . import report


def frac_str(q: Fraction | int) -> str:
    """Serialize a rational as "num/denom" in lowest terms; zero is "0/1"."""
    return "%d/%d" % q.as_integer_ratio()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _int_valuation(n: int, p: int) -> int:
    # n must be nonzero
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational; zero raises ValueError."""
    _require_prime(p)
    q = Fraction(q)
    if q == 0:
        raise ValueError("the valuation of zero is not an integer")
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


@lru_cache(maxsize=None)
def _series_coefficients() -> tuple[list[Fraction], Iterator[Fraction]]:
    """The process's one expansion of z/(exp(z) - 1) + z/2: the coefficients
    found so far, and the stream that continues them."""
    from . import series

    inverse = series.inv(Fraction(1, factorial(m + 1)) for m in count())
    return [], map(add, inverse, chain((0, Fraction(1, 2)), repeat(0)))


def _expansion(order: int) -> list[Fraction]:
    """The expansion, extended to order at least."""
    found, stream = _series_coefficients()
    if len(found) <= order:
        found.extend(islice(stream, order + 1 - len(found)))
    return found


def bernoulli(n: int) -> Fraction:
    """B_n in the positive convention, read off the generating series."""
    if n < 1:
        raise ValueError("Bernoulli index starts at 1")
    c = _expansion(2 * n)[2 * n]
    return Fraction((-1) ** (n - 1) * c.numerator * factorial(2 * n), c.denominator)


@lru_cache(maxsize=None)
def _recurrence() -> tuple[list[int], list[int]]:
    """The recurrence's record: the numerators of the signed B_0, B_1, ...
    (B_1 = -1/2) found so far, and a one-item list holding their common
    denominator."""
    return [1], [1]


def bernoulli_recursive(n: int) -> Fraction:
    """Independent route: the binomial recurrence in the signed convention,
    resigned to match the positive convention above."""
    if n < 1:
        raise ValueError("Bernoulli index starts at 1")
    m = 2 * n
    nums, den = _recurrence()
    for j in range(len(nums), m + 1):
        if j % 2 and j > 1:
            nums.append(0)
            continue
        s = sum(comb(j + 1, i) * x for i, x in enumerate(nums) if x)
        q = Fraction(-s, den[0] * (j + 1))
        widen = q.denominator // gcd(den[0], q.denominator)
        if widen != 1:
            nums[:] = [x * widen for x in nums]
            den[0] *= widen
        nums.append(q.numerator * (den[0] // q.denominator))
    return Fraction((-1) ** (n - 1) * nums[m], den[0])


def generating_series_roundtrip(max_index: int) -> bool:
    """Rebuild the series from the recurrence's B_1..B_max_index and compare
    it coefficientwise with the expansion.

    Checks the even coefficients and that every odd coefficient vanishes.
    """
    order = 2 * max_index
    direct = _expansion(order)[: order + 1]
    rebuilt = [Fraction(0)] * (order + 1)
    rebuilt[0] = Fraction(1)
    for n in range(1, max_index + 1):
        b = bernoulli_recursive(n)
        rebuilt[2 * n] = Fraction((-1) ** (n - 1) * b.numerator, b.denominator * factorial(2 * n))
    return rebuilt == direct


def num_denom(n: int) -> tuple[int, int]:
    """(Num, Denom) of B_n / 2n in lowest terms."""
    q = bernoulli(n) / (2 * n)
    return (q.numerator, q.denominator)


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)*; a must be a unit."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit modulo {modulus}")
    x = a % modulus
    order = 1
    while x != 1:
        x = (x * a) % modulus
        order += 1
    return order


@lru_cache(maxsize=None)
def choose_k(p: int) -> int:
    """Smallest odd k >= 3 generating (Z/p^2)* for odd p; k = 3 at p = 2.

    The group (Z/p^2)* is cyclic of order p(p-1); odd k hit every residue
    class modulo the odd number p^2, so the search terminates.  Each prime's
    search runs once per process.
    """
    _require_prime(p)
    if p == 2:
        return 3
    target = p * (p - 1)
    k = 3
    while True:
        if k % p != 0 and multiplicative_order(k, p * p) == target:
            return k
        k += 2


def denominator_valuation_check(p: int, n: int) -> tuple[int, int, str]:
    """(v_p(k^(2n) - 1), v_p(Denom(B_n/2n)), note) for k = choose_k(p).

    At p = 2 the right side carries an extra factor of 2, and the note
    records that this route was taken; at odd p the note is empty.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("index starts at 1")
    lhs = _int_valuation(choose_k(p) ** (2 * n) - 1, p)
    _, denom = num_denom(n)
    if p == 2:
        return lhs, _int_valuation(2 * denom, 2), "extra factor of 2 applied on the denominator side"
    return lhs, _int_valuation(denom, p), ""


def bernoulli_rows(n_max: int) -> list[report.CheckReport]:
    indices = range(1, n_max + 1)
    return (
        report.rows(
            "bernoulli-value",
            [{"n": n} for n in indices],
            lambda n: (frac_str(bernoulli(n)), frac_str(bernoulli_recursive(n)), ()),
            notes=("series expansion vs binomial recurrence",),
        )
        + report.rows(
            "bernoulli-num-denom",
            [{"n": n} for n in indices],
            lambda n: ("%d/%d" % num_denom(n), frac_str(bernoulli_recursive(n) / (2 * n)), ()),
        )
        + report.rows(
            "bernoulli-series-roundtrip",
            [{"n_max": n_max}],
            lambda n_max: (
                "consistent" if generating_series_roundtrip(n_max) else "inconsistent",
                "consistent",
                (),
            ),
        )
    )
