"""Truncated polynomial model of the K-theory of a complex projective space.

K(CP^N) is Z[u]/(u^(N+1)) for u = L - 1, with L the tautological line class.
A KClass stores its coefficients (c_0, ..., c_N) in the u basis as integer
numerators over one positive denominator, in lowest terms, so ring
operations are integer operations and a Fraction is built only when a
coefficient is read.  Where the coefficients live is read off that one
denominator: in lowest terms it is the lcm of the coefficients'
denominators, so the class is integral when it is 1 and p-local when p does
not divide it.  Claim(p) is that p-locality test; the operations that need
a p-local input (theta and the logarithms in kops) apply it to the values
they are given.  A class's powers are one table, f.powers() = (f^0, ...,
f^N), built on the first call by one product per entry from f^2 on and kept
on the class, so each power is multiplied once per class: a class of u-adic
valuation v >= 1 (its first nonzero coefficient is at u^v) has f^m = 0 once
v m > N, and the entries after that one cost no product.  str(f) is the
text the report rows compare: the coefficients as "[x/d, ...]", each in
lowest terms, read off the integer numerators.

KClass serves both sides of the Chern character.  Cohomology of the same
space is Q[e]/(e^(N+1)), the same truncated ring in another generator, so
chern hands back rational KClass values whose coefficients are read in e.
The model's named classes (L^a, the transfer class rho and the
conjugate-average class r) are built here from line powers and binomial
rows; the operations on classes are in kops.  Of the package, the module
imports only series, for the convolution and r's one inversion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, gcd, lcm
from typing import NamedTuple

from . import series


class TruncationMismatch(ValueError):
    """Arithmetic between classes at different truncations."""


class Claim(NamedTuple):
    """p-locality at the prime p: coefficients whose denominators are prime to p."""

    p: int

    def admits(self, den: int) -> bool:
        """Whether a denominator den >= 1 in lowest terms is prime to p."""
        return den % self.p != 0


class KClass:
    """Element of Q[u]/(u^(N+1)): integer numerators over one denominator.

    ``KClass(coeffs, N)`` takes int or Fraction coefficients, and
    ``KClass(nums, N, den=d)`` integer numerators over d >= 1.

    Instances are immutable by convention.  Equality compares truncation
    and coefficients, and a class with no u-terms equals its constant term.
    Defining equality leaves the class unhashable.
    """

    __slots__ = ("truncation", "nums", "den", "_powers")

    def __init__(self, coeffs, truncation: int, *, den=None):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        if den is None:
            qs = coeffs[: truncation + 1]
            den = lcm(*(q.denominator for q in qs))
            nums = [q.numerator * (den // q.denominator) for q in qs]
        elif den < 1:
            raise ValueError("the denominator must be positive")
        else:
            nums = list(coeffs[: truncation + 1])
        nums.extend([0] * (truncation + 1 - len(nums)))
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
        self.truncation = truncation
        self.nums = tuple(nums)
        self.den = den
        self._powers = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "KClass":
        return cls((), truncation, den=1)

    @classmethod
    def constant(cls, q, truncation: int) -> "KClass":
        q = Fraction(q)
        return cls((q.numerator,), truncation, den=q.denominator)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def augmentation(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- ring structure ----------------------------------------------------

    def _match(self, other: "KClass") -> None:
        if self.truncation != other.truncation:
            raise TruncationMismatch(
                f"truncation {self.truncation} vs {other.truncation}"
            )

    def _plus(self, other, sign: int):
        """self + sign * other, for sign 1 or -1, with no negated copy."""
        if isinstance(other, (int, Fraction)):
            other = KClass.constant(other, self.truncation)
        elif not isinstance(other, KClass):
            return NotImplemented
        self._match(other)
        d = lcm(self.den, other.den)
        sa, sb = d // self.den, sign * (d // other.den)
        return KClass(
            [x * sa + y * sb for x, y in zip(self.nums, other.nums)],
            self.truncation,
            den=d,
        )

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return KClass([-x for x in self.nums], self.truncation, den=self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, KClass):
            self._match(other)
            return KClass(
                series.mul(self.nums, other.nums, self.truncation),
                self.truncation,
                den=self.den * other.den,
            )
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return KClass(
                [x * q.numerator for x in self.nums],
                self.truncation,
                den=self.den * q.denominator,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def powers(self) -> tuple["KClass", ...]:
        """(f^0, f^1, ..., f^N): the unit, a copy of f (f itself would make
        the kept table a reference cycle), then entry m - 1 times f, one
        product per entry and none once an entry has vanished (the later
        ones are that zero class).  Built on the first call and kept, as a
        class never changes, so every later call is a read."""
        if self._powers is None:
            N = self.truncation
            table = [KClass((1,), N, den=1), KClass(self.nums, N, den=self.den)][: N + 1]
            for _ in range(N - 1):
                last = table[-1]
                table.append(last if last.is_zero() else last * self)
            self._powers = tuple(table)
        return self._powers

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KClass.constant(other, self.truncation)
        if isinstance(other, KClass):
            key = (other.truncation, other.den, other.nums)
            return (self.truncation, self.den, self.nums) == key
        return NotImplemented

    def __str__(self):
        """The coefficients as "[x/d, ...]", each in lowest terms; zero is 0/1."""
        den = self.den
        parts = []
        for x in self.nums:
            g = gcd(x, den)  # x/den in lowest terms is (x/g)/(den/g)
            parts.append(f"{x // g}/{den // g}")
        return "[" + ", ".join(parts) + "]"

    def __repr__(self):
        return f"KClass({self}, N={self.truncation})"


def line_power(a: int, truncation: int) -> KClass:
    """L^a = (1 + u)^a for any integer a; integral for negative a as well."""
    if a >= 0:
        coeffs = [comb(a, i) for i in range(min(a, truncation) + 1)]
    else:
        coeffs = [(-1) ** i * comb(-a + i - 1, i) for i in range(truncation + 1)]
    return KClass(coeffs, truncation, den=1)


def rho_line(k: int, a: int, truncation: int) -> KClass:
    """(1/k) * (1 + L^a + L^(2a) + ... + L^((k-1)a)), with k inverted."""
    if k < 1:
        raise ValueError("k must be positive")
    total = sum((line_power(a * j, truncation) for j in range(k)), KClass.zero(truncation))
    return KClass(total.nums, truncation, den=k)


def r_line_conjugate(k: int, truncation: int) -> KClass:
    """The weighted average sum((k-1-i) L^i, i<k-1) / sum(L^i, i<k).

    Both sums are binomial rows by the hockey-stick identity: C(k, j+2) and
    C(k, j+1) at u^j.  Augmentation is (k-1)/2.  The numerator satisfies the
    exact polynomial identity (L - 1) * numerator = denominator - k, which
    the tests use as an algebra-level check independent of any series
    expansion, with both sums rebuilt there from line powers.

    With u = L - 1 the identity reads numerator = (denominator - k) / u, so
    the average is r = (1 - k/denominator) / u.  The inverse of the
    denominator row starts at 1/k, so 1 - k/denominator has no constant
    term and r_j = -k [u^(j+1)] denominator^(-1).  The class at truncation
    N is therefore coefficients 1..N+1 of one inversion stream, scaled by -k;
    they need the row's terms only through u^(N+1), and C(k, j+1) vanishes
    from j = k on, so the row stops there.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    row = [comb(k, j + 1) for j in range(min(k, truncation + 2))]
    inverse = islice(series.inv(row), 1, truncation + 2)
    return KClass(list(inverse), truncation) * -k
