"""Truncated polynomial model of the K-theory of a complex projective space.

K(CP^N) is Z[u]/(u^(N+1)) for u = L - 1, with L the tautological line class.
A KClass stores its coefficients (c_0, ..., c_N) in the u basis as integer
numerators over one positive denominator, in lowest terms, so ring
operations are integer operations and a Fraction is built only when a
coefficient is read.  Each class carries a domain claim: a validated
statement about where the coefficients live (integers, p-local integers,
integers with k inverted, or plain rationals), bookkeeping, never a change
of representation.  The claim is checked on every construction, by one test
of the integer denominator, with no Fraction built: in lowest terms it is
the lcm of the coefficients' denominators, and each claim is a condition on
the primes of a denominator that holds for all of them exactly when it
holds for their lcm (integral: the lcm is 1; p-local: p does not divide it;
k-inverted: each of its primes divides k).  Only a failed test walks the
coefficients, to name the first offender.  A power f**n costs
bit_length(n) - 1 squarings and popcount(n) - 1 further products, and no
product with one, unless it has vanished: a class of u-adic valuation
v >= 1 (its first nonzero coefficient is at u^v) has f**n = 0 once
v n > N, and that power is the zero class under f's claim, with no product.
f**0 is the unit; the model takes no inverse, so a negative n is refused.

KClass serves both sides of the Chern character.  Cohomology of the same
space is Q[e]/(e^(N+1)), the same truncated ring in another generator, so
chern hands back rational KClass values whose coefficients are read in e.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import NamedTuple

from . import series
from .exact import frac_str, is_prime


class TruncationMismatch(ValueError):
    """Arithmetic between classes at different truncations."""


class DomainClaimError(ValueError):
    """A coefficient violates the claim."""


def _only_primes_of(n: int, k: int) -> bool:
    # every prime of n divides k exactly when n divides k^e for k^e >= n
    n = abs(n)
    return n <= 1 or pow(k, n.bit_length(), n) == 0


class _ClaimFields(NamedTuple):
    kind: str
    param: int | None = None


class Claim(_ClaimFields):
    """Domain claim for coefficients: integral, p-local, k-inverted, rational.

    p-local(p) means denominators prime to p; k-inverted(k) means
    denominators divisible only by primes of k.  ``join`` returns the
    smallest of the four coefficient rings containing both operands, which
    is the claim propagated through ring operations.  Claims compare and
    hash as (kind, param) tuples.
    """

    __slots__ = ()

    def __new__(cls, kind: str, param: int | None = None):
        if kind in ("integral", "rational"):
            if param is not None:
                raise ValueError(f"claim {kind} takes no parameter")
        elif kind == "p-local":
            if param is None or not is_prime(param):
                raise ValueError("p-local claim needs a prime parameter")
        elif kind == "k-inverted":
            if param is None or param < 2:
                raise ValueError("k-inverted claim needs k >= 2")
        else:
            raise ValueError(f"unknown claim kind {kind!r}")
        return super().__new__(cls, kind, param)

    def admits(self, den: int) -> bool:
        """Whether a denominator den >= 1 in lowest terms meets the claim."""
        if self.kind == "integral":
            return den == 1
        if self.kind == "p-local":
            return den % self.param != 0
        if self.kind == "k-inverted":
            return _only_primes_of(den, self.param)
        return True

    def join(self, other: "Claim") -> "Claim":
        if self == other:
            return self
        if self.kind == "integral":
            return other
        if other.kind == "integral":
            return self
        if self.kind == "rational" or other.kind == "rational":
            return RATIONAL
        kinds = {self.kind, other.kind}
        if kinds == {"k-inverted", "p-local"}:
            inverted, local = (self, other) if self.kind == "k-inverted" else (other, self)
            # Z[1/k] sits inside Z_(p) exactly when p does not divide k
            if inverted.param % local.param != 0:
                return local
        return RATIONAL

    def label(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}({self.param})"


INTEGRAL = Claim("integral")
RATIONAL = Claim("rational")


def p_local(p: int) -> Claim:
    return Claim("p-local", p)


def k_inverted(k: int) -> Claim:
    return Claim("k-inverted", k)


def _scalar_claim(q: Fraction) -> Claim:
    return INTEGRAL if q.denominator == 1 else RATIONAL


class KClass:
    """Element of Q[u]/(u^(N+1)) carrying a validated domain claim.

    ``KClass(coeffs, N, claim)`` takes int or Fraction coefficients, and
    ``KClass(nums, N, claim, den=d)`` integer numerators over d >= 1.

    Instances are immutable by convention.  Equality and hashing compare
    truncation and coefficients only; the claim is metadata about where the
    coefficients live, not part of the ring value.  A class with no u-terms
    equals its constant term and hashes like it.
    """

    __slots__ = ("truncation", "nums", "den", "claim")

    def __init__(self, coeffs, truncation: int | None = None, claim: Claim = RATIONAL, *, den=None):
        if truncation is None:
            truncation = max(len(coeffs) - 1, 0)
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
        if not claim.admits(den):
            for i, x in enumerate(nums):
                c = Fraction(x, den)
                if not claim.admits(c.denominator):
                    raise DomainClaimError(
                        f"coefficient {frac_str(c)} of u^{i} violates claim {claim.label()}"
                    )
        self.truncation = truncation
        self.nums = tuple(nums)
        self.den = den
        self.claim = claim

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int, claim: Claim = INTEGRAL) -> "KClass":
        return cls((), truncation, claim, den=1)

    @classmethod
    def constant(cls, q, truncation: int, claim: Claim | None = None) -> "KClass":
        q = Fraction(q)
        return cls((q.numerator,), truncation, claim or _scalar_claim(q), den=q.denominator)

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

    def with_claim(self, claim: Claim) -> "KClass":
        """Re-house the same element under another (validated) claim."""
        return KClass(self.nums, self.truncation, claim, den=self.den)

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
            self.claim.join(other.claim),
            den=d,
        )

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return KClass([-x for x in self.nums], self.truncation, self.claim, den=self.den)

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
                self.claim.join(other.claim),
                den=self.den * other.den,
            )
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return KClass(
                [x * q.numerator for x in self.nums],
                self.truncation,
                self.claim.join(_scalar_claim(q)),
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
            return KClass((1,), self.truncation, INTEGRAL, den=1)
        if not self.nums[0]:
            v = next((i for i, x in enumerate(self.nums) if x), self.truncation + 1)
            if v * n > self.truncation:
                return KClass.zero(self.truncation, self.claim)
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

    def __hash__(self):
        if any(self.nums[1:]):
            return hash((self.truncation, self.den, self.nums))
        return hash(Fraction(self.nums[0], self.den))  # a constant hashes like its value

    def __repr__(self):
        body = ", ".join(frac_str(c) for c in self.coeffs)
        return f"KClass([{body}], N={self.truncation}, claim={self.claim.label()})"


def line_power(a: int, truncation: int, claim: Claim = INTEGRAL) -> KClass:
    """L^a = (1 + u)^a for any integer a; integral for negative a as well."""
    if a >= 0:
        coeffs = [comb(a, i) for i in range(min(a, truncation) + 1)]
    else:
        coeffs = [(-1) ** i * comb(-a + i - 1, i) for i in range(truncation + 1)]
    return KClass(coeffs, truncation, claim, den=1)
