"""Truncated power series kernels over exact rationals.

A series of order d is a tuple of d + 1 Fractions, constant term first.
Nothing here knows about K-theory; these are the shared arithmetic kernels
for the Bernoulli expansion, the truncated polynomial ring and the Chern
character module.

fit is where other numbers become Fractions.  It passes a value that is a
Fraction already through untouched, so each coefficient is coerced once.

mul and inv never add two Fractions.  Each scales its inputs once to integer
numerators over the lcm of their denominators, sums integer products, and
builds one Fraction per output coefficient, so every coefficient is
normalised once instead of once per product.  inv also keeps the
coefficients it has found as integers over one running denominator, and
rescales them once whenever a new coefficient widens it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul as _times
from typing import Iterable, Sequence

Coeffs = tuple[Fraction, ...]

_ZERO = Fraction(0)


def fit(coeffs: Iterable[Fraction | int], order: int) -> Coeffs:
    """Pad with zeros, or drop terms above the order (reduction mod x^(order+1))."""
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs][: order + 1]
    out.extend([_ZERO] * (order + 1 - len(out)))
    return tuple(out)


def add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    if len(a) != len(b):
        raise ValueError("series order mismatch: %d vs %d" % (len(a) - 1, len(b) - 1))
    return tuple(x + y for x, y in zip(a, b))


def neg(a: Sequence[Fraction]) -> Coeffs:
    return tuple(-x for x in a)


def scale(a: Sequence[Fraction], q: Fraction | int) -> Coeffs:
    q = Fraction(q)
    return tuple(q * x for x in a)


def _over_lcm(coeffs: Coeffs) -> tuple[list[int], int]:
    """(numerators, d): integers whose quotients by d are the coefficients,
    d the lcm of their denominators, with trailing zeros dropped."""
    qs = list(coeffs)
    while qs and qs[-1] == 0:
        qs.pop()
    d = lcm(*(q.denominator for q in qs))
    return [q.numerator * (d // q.denominator) for q in qs], d


def mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> Coeffs:
    na, da = _over_lcm(fit(a, order))
    nb, db = _over_lcm(fit(b, order))
    out = [0] * (order + 1)
    for i, x in enumerate(na):
        if x:
            for k, y in enumerate(nb[: order + 1 - i], i):
                if y:
                    out[k] += x * y
    d = da * db
    return tuple(Fraction(c, d) if c else _ZERO for c in out)


def inv(a: Sequence[Fraction], order: int) -> Coeffs:
    """Multiplicative inverse; the constant term must be nonzero."""
    if not a or a[0] == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    na, da = _over_lcm(fit(a, order))
    # out[m] = -(1/a0) sum_{j>=1} a[j] out[m-j] = -(sum na[j] nout[m-j]) / (na[0] e)
    # for out[i] = nout[i] / e; rna holds na[1:] reversed.
    rna = na[:0:-1]
    first = Fraction(da, na[0])
    out = [first]
    nout, e = [first.numerator], first.denominator
    for m in range(1, order + 1):
        j = min(m, len(rna))
        q = Fraction(-sum(map(_times, rna[len(rna) - j :], nout[m - j :])), na[0] * e)
        out.append(q)
        widen = q.denominator // gcd(e, q.denominator)
        if widen != 1:
            nout = [x * widen for x in nout]
            e *= widen
        nout.append(q.numerator * (e // q.denominator))
    return tuple(out)


def compose(f: Sequence[Fraction], g: Sequence[Fraction], order: int) -> Coeffs:
    """f(g(x)) by Horner; g must have zero constant term."""
    if g and g[0] != 0:
        raise ValueError("composition needs a series with zero constant term")
    acc = fit([f[-1]] if f else [0], order)
    for i in range(len(f) - 2, -1, -1):
        acc = mul(acc, g, order)
        acc = add(acc, fit([f[i]], order))
    return acc


def log1(a: Sequence[Fraction], order: int) -> Coeffs:
    """log of a series with constant term 1."""
    if not a or a[0] != 1:
        raise ValueError("log needs constant term 1")
    w = fit([0, *a[1:]], order)
    out = [_ZERO] * (order + 1)
    wpow = fit([1], order)
    for m in range(1, order + 1):
        wpow = mul(wpow, w, order)
        term = Fraction((-1) ** (m - 1), m)
        for i, c in enumerate(wpow):
            if c != 0:
                out[i] += term * c
    return tuple(out)


def exp_minus_one(order: int) -> Coeffs:
    """exp(x) - 1 through the given order."""
    return tuple(Fraction(1, factorial(m)) if m >= 1 else _ZERO for m in range(order + 1))
