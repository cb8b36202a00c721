"""Truncated power series kernels over exact rationals.

A series of order d is a tuple of d + 1 coefficients, constant term first.
Nothing here knows about K-theory; these are the shared arithmetic kernels
for the Bernoulli expansion, the truncated polynomial ring, the Adams
operations and the Chern character.

mul is the one convolution kernel: integers in, integers out, as KClass
products call it on their numerators.  compose is the substitution
kernel, integers in and integers out the same way: given the powers of a
series g, cached by the caller, it sums f_j g^j for the integer numerators
f_j; psi substitutes (1+u)^k - 1 through it (ch is built from chern's
s-numbers and needs no substitution).  log1 is integer in and out as well:
it takes numerators over one denominator, as a KClass holds them, and runs
the recurrence of (log a)' a = a' over them, keeping the logarithm's
coefficients as numerators over one running denominator, which it returns.

inv is a stream: it yields the inverse's coefficients one at a time, and
coefficient m depends only on input terms 0..m, so one expansion grown on
demand serves every order and a caller takes the prefix it needs with
itertools.islice.  It keeps the input terms it has read and the
coefficients it has found as integer numerators over one running
denominator each.  The input list stops growing where a finite input
ends, so a polynomial costs its terms per coefficient.  A running
denominator grows in one place, _append, which inv calls for its input
terms and coefficients and log1 for its coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice, repeat
from math import gcd
from operator import add, mul as _times
from typing import Iterable, Iterator, Sequence


def _append(nums: list[int], den: int, q: Fraction | int) -> int:
    """Append q to nums, integer numerators over den, and return their
    denominator: den itself, or den widened, with nums rescaled in place,
    when q's denominator does not divide it."""
    d = q.denominator
    widen = d // gcd(den, d)
    if widen != 1:
        nums[:] = [x * widen for x in nums]
        den *= widen
    nums.append(q.numerator * (den // d))
    return den


def mul(a: Sequence, b: Sequence, order: int) -> tuple:
    """Product mod x^(order+1) by convolution, skipping zero terms; integer
    inputs give integer outputs."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for k, y in enumerate(b[: order + 1 - i], i):
                if y:
                    out[k] += x * y
    return tuple(out)


def inv(a: Iterable[Fraction | int]) -> Iterator[Fraction]:
    """Coefficients of the multiplicative inverse, constant term first, without
    end.  a is a finite series, read as zero-padded, or an infinite iterable;
    its term m is read only to produce coefficient m.  A zero (or missing)
    constant term raises ZeroDivisionError when the first coefficient is
    asked for."""
    terms = iter(a)
    c = next(terms, 0)
    if c == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    # out[m] = -(1/a0) sum_{j>=1} a[j] out[m-j] = -(sum na[j] nout[m-j]) / (na[0] e)
    # for a[j] = na[j] / da and out[i] = nout[i] / e.  na holds the terms
    # read, so it stops growing where a finite input ends, and the sum runs
    # over those terms, each against nout[m-j] from reversed(nout).
    na, da = [c.numerator], c.denominator
    q = Fraction(da, na[0])
    yield q
    nout, e = [q.numerator], q.denominator
    while True:
        c = next(terms, None)
        if c is not None:
            da = _append(na, da, c)
        s = sum(map(_times, islice(na, 1, None), reversed(nout)))
        q = Fraction(-s, na[0] * e)
        yield q
        e = _append(nout, e, q)


def compose(f: Sequence[int], powers: Sequence[Sequence[int]]) -> list[int]:
    """f(g(x)) as sum_j f_j g^j, for integer f and the powers of g: row j of
    powers holds g^j from x^j on (g has zero constant term, so the lower
    terms vanish), and row 0, which is all of g^0, sets the order.  Zero
    terms of f cost nothing."""
    out = [0] * len(powers[0])
    for j, (c, row) in enumerate(zip(f, powers)):
        if c:
            out[j:] = map(add, out[j:], map(c.__mul__, row))
    return out


def log1(a: Sequence[int], den: int, order: int) -> tuple[list[int], int]:
    """log of the series a / den, which has constant term 1 (a[0] == den),
    as integer numerators over one denominator, by (log a)' a = a': its
    coefficients b_m satisfy m b_m = m a_m - sum_{0<j<m} j b_j a_(m-j)."""
    if not a or a[0] != den:
        raise ValueError("log needs constant term 1")
    # for b_j = nb[j] / e, b_m is (m a[m] e - sum_{0<j<m} j nb[j] a[m-j]) / (m den e)
    a = list(a[: order + 1])
    a.extend(repeat(0, order + 1 - len(a)))
    nb, e = [0], 1
    for m in range(1, order + 1):
        s = sum(map(_times, map(_times, count(1), nb[1:]), a[m - 1 : 0 : -1]))
        e = _append(nb, e, Fraction(m * a[m] * e - s, m * den * e))
    return nb, e
