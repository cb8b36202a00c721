"""Truncated power series kernels over exact rationals.

A series of order d is a tuple of d + 1 coefficients, constant term first.
Nothing here knows about K-theory; these are the shared arithmetic kernels
for the Bernoulli expansion, the truncated polynomial ring, the Adams
operations and the Chern character.

mul is the one convolution kernel: integers in, integers out, as KClass
products call it on their numerators.  compose is the one substitution
kernel, integers in and integers out the same way: given the powers of a
series g, each caller's own and cached there, it sums f_j g^j for the
integer numerators f_j, so psi substitutes (1+u)^k - 1 and ch substitutes
exp(e) - 1 through the same loop.  log1 scales its input once to integer
numerators over one denominator and runs the recurrence of (log a)' a = a'
over them, keeping what it has found over one running denominator, as inv
does.

inv is a stream: it yields the inverse's coefficients one at a time, and
coefficient m depends only on input terms 0..m, so one expansion grown on
demand serves every order and a caller takes the prefix it needs with
itertools.islice.  It keeps the input terms it has read and the
coefficients it has found as integer numerators over one running
denominator each, rescaled when a new term widens it, and it skips zero
input terms, so a polynomial costs its nonzero terms per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import add, mul as _times
from typing import Iterable, Iterator, Sequence

Coeffs = tuple[Fraction, ...]


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
    # out[m] = -(1/a0) sum_{j>=1} a[j] out[m-j] = -(sum na[j] nout[m-j]) / (n0 e)
    # for a[j] = na[j] / da, a0 = n0 / da and out[i] = nout[i] / e.  na holds
    # the nonzero na[j], j >= 1, in order, and nonzero[j - 1] whether a[j] is
    # one of them, so compress pairs each with nout[m-j] from reversed(nout).
    n0, da = c.numerator, c.denominator
    na, nonzero = [], []
    q = Fraction(da, n0)
    yield q
    nout, e = [q.numerator], q.denominator
    for m in count(1):
        c = next(terms, 0)
        if c:
            den = c.denominator
            widen = den // gcd(da, den)
            if widen != 1:
                na = [x * widen for x in na]
                n0 *= widen
                da *= widen
            na.append(c.numerator * (da // den))
            nonzero.extend(repeat(False, m - 1 - len(nonzero)))
            nonzero.append(True)
        q = Fraction(-sum(map(_times, na, compress(reversed(nout), nonzero))), n0 * e)
        yield q
        widen = q.denominator // gcd(e, q.denominator)
        if widen != 1:
            nout = [x * widen for x in nout]
            e *= widen
        nout.append(q.numerator * (e // q.denominator))


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


def log1(a: Sequence[Fraction], order: int) -> Coeffs:
    """log of a series with constant term 1, by (log a)' a = a': the
    coefficient c_m = m b_m of (log a)' x satisfies
    c_m = m a_m - sum_{0<j<m} c_j a_(m-j), since a_0 = 1."""
    if not a or a[0] != 1:
        raise ValueError("log needs constant term 1")
    # for a[j] = na[j] / da and c_j = nc[j] / e, c_m is
    # (m na[m] e - sum_{0<j<m} nc[j] na[m-j]) / (da e)
    a = a[: order + 1]
    da = lcm(*(q.denominator for q in a))
    na = [q.numerator * (da // q.denominator) for q in a]
    na.extend(repeat(0, order + 1 - len(na)))
    out = [Fraction(0)]
    nc, e = [0], 1
    for m in range(1, order + 1):
        q = Fraction(m * na[m] * e - sum(map(_times, nc[1:], na[m - 1 : 0 : -1])), da * e)
        out.append(q / m)
        widen = q.denominator // gcd(e, q.denominator)
        if widen != 1:
            nc = [x * widen for x in nc]
            e *= widen
        nc.append(q.numerator * (e // q.denominator))
    return tuple(out)
