"""Truncated power series kernels over exact rationals.

A series of order d is a tuple of d + 1 Fractions, constant term first.
Nothing here knows about K-theory; these are the shared arithmetic kernels
for the Bernoulli expansion, the truncated polynomial ring and the Chern
character module.

mul is the one convolution kernel: integers in, integers out, as KClass
products call it on their numerators.  compose scales its Fraction inputs
once to integer numerators over one denominator and builds one Fraction
per output coefficient, so every coefficient is normalised once instead of
once per product.  log1 scales its input once the same way and runs the
recurrence of (log a)' a = a' over integer numerators, keeping what it has
found over one running denominator, as inv does.

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
from math import factorial, gcd, lcm
from operator import mul as _times
from typing import Iterable, Iterator, Sequence

Coeffs = tuple[Fraction, ...]

def _over_lcm(coeffs: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """(numerators, d): integers whose quotients by d are the coefficients,
    d the lcm of their denominators, with trailing zeros dropped."""
    qs = list(coeffs)
    while qs and qs[-1] == 0:
        qs.pop()
    d = lcm(*(q.denominator for q in qs))
    return [q.numerator * (d // q.denominator) for q in qs], d


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


def compose(f: Sequence[Fraction], g: Sequence[Fraction], order: int) -> Coeffs:
    """f(g(x)) by Horner; g must have zero constant term.  For f = nf/df and
    g = ng/dg the partial sum is acc/(df dg^t), and a step takes acc to
    acc ng + c dg^(t+1) for the next numerator c of f."""
    if g and g[0] != 0:
        raise ValueError("composition needs a series with zero constant term")
    nf, df = _over_lcm(f)
    ng, dg = _over_lcm(g[: order + 1])
    acc, scale = [0] * (order + 1), 1
    for c in reversed(nf):
        acc = list(mul(acc, ng, order))
        scale *= dg
        acc[0] += c * scale
    return tuple(Fraction(x, df * scale) for x in acc)


def log1(a: Sequence[Fraction], order: int) -> Coeffs:
    """log of a series with constant term 1, by (log a)' a = a': the
    coefficient c_m = m b_m of (log a)' x satisfies
    c_m = m a_m - sum_{0<j<m} c_j a_(m-j), since a_0 = 1."""
    if not a or a[0] != 1:
        raise ValueError("log needs constant term 1")
    # for a[j] = na[j] / da and c_j = nc[j] / e, c_m is
    # (m na[m] e - sum_{0<j<m} nc[j] na[m-j]) / (da e)
    na, da = _over_lcm(a[: order + 1])
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


def exp_minus_one(order: int) -> Coeffs:
    """exp(x) - 1 through the given order."""
    return tuple(Fraction(1, factorial(m)) if m >= 1 else Fraction(0) for m in range(order + 1))
