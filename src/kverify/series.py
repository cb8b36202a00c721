"""Truncated power series kernels over exact rationals.

A series of order d is a tuple of d + 1 Fractions, constant term first.
Nothing here knows about K-theory; these are the shared arithmetic kernels
for the Bernoulli expansion, the truncated polynomial ring and the Chern
character module.

fit is where other numbers become Fractions.  It passes a value that is a
Fraction already through untouched, so each coefficient is coerced once.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
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


def mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> Coeffs:
    out = [_ZERO] * (order + 1)
    for i, x in enumerate(a):
        if x == 0 or i > order:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            if y != 0:
                out[i + j] += x * y
    return tuple(out)


def inv(a: Sequence[Fraction], order: int) -> Coeffs:
    """Multiplicative inverse; the constant term must be nonzero."""
    a = fit(a, len(a) - 1)
    c = a[0]
    if c == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    out = [_ZERO] * (order + 1)
    out[0] = 1 / c
    for m in range(1, order + 1):
        s = _ZERO
        for j in range(1, min(m, len(a) - 1) + 1):
            s += a[j] * out[m - j]
        out[m] = -s / c
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
    if a[0] != 1:
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
