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
they are given.  A power f**n costs bit_length(n) - 1 squarings and
popcount(n) - 1 further products, and no product with one, unless it has
vanished: a class of u-adic valuation v >= 1 (its first nonzero coefficient
is at u^v) has f**n = 0 once v n > N, and that power is the zero class, with
no product.  f**0 is the unit; the model takes no inverse, so a negative n
is refused.  str(f) is the text the report rows compare: the coefficients
as "[x/d, ...]", each in lowest terms, read off the integer numerators.

KClass serves both sides of the Chern character.  Cohomology of the same
space is Q[e]/(e^(N+1)), the same truncated ring in another generator, so
chern hands back rational KClass values whose coefficients are read in e.
Of the package, the module imports only series, for the convolution.
"""

from __future__ import annotations

from fractions import Fraction
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

    __slots__ = ("truncation", "nums", "den")

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

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("the truncated model takes no inverse")
        if n == 0:
            return KClass((1,), self.truncation, den=1)
        if not self.nums[0]:
            v = next((i for i, x in enumerate(self.nums) if x), self.truncation + 1)
            if v * n > self.truncation:
                return KClass.zero(self.truncation)
        # square up to the lowest set bit, then fold in each higher one:
        # bit_length(n) - 1 squarings and popcount(n) - 1 further products
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

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
