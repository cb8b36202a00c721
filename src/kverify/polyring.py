"""Truncated polynomial model of the K-theory of a complex projective space.

K(CP^N) is Z[u]/(u^(N+1)) for u = L - 1, with L the tautological line class.
A KClass stores exact rational coefficients (c_0, ..., c_N) in the u basis
together with a domain claim: a validated statement about where those
coefficients live (integers, p-local integers, integers with k inverted, or
plain rationals).  Claims are predicates re-checked against the actual
coefficients on every construction; they are bookkeeping, never a change of
representation.  Each coefficient is coerced to Fraction once, in
series.fit, which passes a Fraction through untouched, so the results of
the series kernels are not coerced again.  The claim check is never
skipped: it runs on every coefficient of every construction.

KClass serves both sides of the Chern character.  Cohomology of the same
space is Q[e]/(e^(N+1)), the same truncated ring in another generator, so
chern hands back rational KClass values whose coefficients are read in e.

Suspension classes model the reduced K-theory of a double suspension, where
the product of any two reduced classes vanishes.  That square-zero law lives
in SuspensionClass.__pow__, the only product the logarithm takes of them;
the operations that act on them (Adams operations, theta operations) live
in kops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from . import series
from .exact import frac_str, is_prime


class TruncationMismatch(ValueError):
    """Arithmetic between classes at different truncations."""


class SingularInversion(ZeroDivisionError):
    """Inversion of a class whose augmentation is zero."""


class DomainClaimError(ValueError):
    """A coefficient (or an augmentation unit check) violates the claim."""


def _only_primes_of(n: int, k: int) -> bool:
    # every prime factor of n divides k
    n = abs(n)
    while n > 1:
        g = gcd(n, k)
        if g == 1:
            return False
        n //= g
    return True


@dataclass(frozen=True)
class Claim:
    """Domain claim for coefficients: integral, p-local, k-inverted, rational.

    p-local(p) means denominators prime to p; k-inverted(k) means
    denominators divisible only by primes of k.  ``join`` returns the
    smallest of the four coefficient rings containing both operands, which
    is the claim propagated through ring operations.
    """

    kind: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.kind in ("integral", "rational"):
            if self.param is not None:
                raise ValueError(f"claim {self.kind} takes no parameter")
        elif self.kind == "p-local":
            if self.param is None or not is_prime(self.param):
                raise ValueError("p-local claim needs a prime parameter")
        elif self.kind == "k-inverted":
            if self.param is None or self.param < 2:
                raise ValueError("k-inverted claim needs k >= 2")
        else:
            raise ValueError(f"unknown claim kind {self.kind!r}")

    def admits(self, q: Fraction) -> bool:
        if type(q) is not Fraction:
            q = Fraction(q)
        if self.kind == "integral":
            return q.denominator == 1
        if self.kind == "p-local":
            return q.denominator % self.param != 0
        if self.kind == "k-inverted":
            return _only_primes_of(q.denominator, self.param)
        return True

    def admits_unit(self, q: Fraction) -> bool:
        """Whether q is invertible inside the claimed coefficient ring."""
        q = Fraction(q)
        if q == 0:
            return False
        if self.kind == "integral":
            return abs(q) == 1
        if self.kind == "p-local":
            return q.numerator % self.param != 0 and q.denominator % self.param != 0
        if self.kind == "k-inverted":
            return _only_primes_of(q.numerator, self.param) and _only_primes_of(
                q.denominator, self.param
            )
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

    Instances are immutable by convention.  Equality and hashing compare
    truncation and coefficients only; the claim is metadata about where the
    coefficients live, not part of the ring value.
    """

    __slots__ = ("truncation", "coeffs", "claim")

    def __init__(self, coeffs, truncation: int | None = None, claim: Claim = RATIONAL):
        if truncation is None:
            truncation = max(len(coeffs) - 1, 0)
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        fitted = series.fit(coeffs, truncation)
        for i, c in enumerate(fitted):
            if not claim.admits(c):
                raise DomainClaimError(
                    f"coefficient {frac_str(c)} of u^{i} violates claim {claim.label()}"
                )
        self.truncation = truncation
        self.coeffs = fitted
        self.claim = claim

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int, claim: Claim = INTEGRAL) -> "KClass":
        return cls([0], truncation, claim)

    @classmethod
    def one(cls, truncation: int, claim: Claim = INTEGRAL) -> "KClass":
        return cls([1], truncation, claim)

    @classmethod
    def constant(cls, q, truncation: int, claim: Claim | None = None) -> "KClass":
        q = Fraction(q)
        return cls([q], truncation, claim if claim is not None else _scalar_claim(q))

    # -- inspection --------------------------------------------------------

    @property
    def augmentation(self) -> Fraction:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def with_claim(self, claim: Claim) -> "KClass":
        """Re-house the same element under another (validated) claim."""
        return KClass(self.coeffs, self.truncation, claim)

    # -- ring structure ----------------------------------------------------

    def _match(self, other: "KClass") -> None:
        if self.truncation != other.truncation:
            raise TruncationMismatch(
                f"truncation {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other):
        if isinstance(other, KClass):
            self._match(other)
            return KClass(
                series.add(self.coeffs, other.coeffs),
                self.truncation,
                self.claim.join(other.claim),
            )
        if isinstance(other, (int, Fraction)):
            return self + KClass.constant(other, self.truncation)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return KClass(series.neg(self.coeffs), self.truncation, self.claim)

    def __sub__(self, other):
        if isinstance(other, (KClass, int, Fraction)):
            return self + (-other if isinstance(other, KClass) else -Fraction(other))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, KClass):
            self._match(other)
            return KClass(
                series.mul(self.coeffs, other.coeffs, self.truncation),
                self.truncation,
                self.claim.join(other.claim),
            )
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return KClass(
                series.scale(self.coeffs, q),
                self.truncation,
                self.claim.join(_scalar_claim(q)),
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
            return self.invert() ** (-n)
        result = KClass.one(self.truncation, INTEGRAL)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def invert(self) -> "KClass":
        """Inverse in the truncated ring; the augmentation must be a unit of
        the claimed coefficient ring (widen the claim to k-inverted or
        rational when it is not)."""
        if self.augmentation == 0:
            raise SingularInversion("augmentation is zero")
        if not self.claim.admits_unit(self.augmentation):
            raise DomainClaimError(
                f"augmentation {frac_str(self.augmentation)} is not a unit under claim "
                f"{self.claim.label()}; widen the claim to invert"
            )
        return KClass(series.inv(self.coeffs, self.truncation), self.truncation, self.claim)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, KClass):
            return self.truncation == other.truncation and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == series.fit([Fraction(other)], self.truncation)
        return NotImplemented

    def __hash__(self):
        return hash((self.truncation, self.coeffs))

    def __repr__(self):
        body = ", ".join(frac_str(c) for c in self.coeffs)
        return f"KClass([{body}], N={self.truncation}, claim={self.claim.label()})"


def line_power(a: int, truncation: int, claim: Claim = INTEGRAL) -> KClass:
    """L^a = (1 + u)^a for any integer a; integral for negative a as well."""
    if a >= 0:
        coeffs = [comb(a, i) for i in range(min(a, truncation) + 1)]
    else:
        coeffs = [(-1) ** i * comb(-a + i - 1, i) for i in range(truncation + 1)]
    return KClass(coeffs, truncation, claim)


class SuspensionClass:
    """base * w for the reduced generator w of a double suspension.

    Products of two reduced classes vanish (square-zero), so every power
    above the first is zero; sums and negation act through the base.
    """

    __slots__ = ("base",)

    def __init__(self, base: KClass):
        self.base = base

    @classmethod
    def zero(cls, truncation: int, claim: Claim = INTEGRAL) -> "SuspensionClass":
        return cls(KClass.zero(truncation, claim))

    @property
    def truncation(self) -> int:
        return self.base.truncation

    def __add__(self, other):
        if isinstance(other, SuspensionClass):
            return SuspensionClass(self.base + other.base)
        return NotImplemented

    def __neg__(self):
        return SuspensionClass(-self.base)

    def __sub__(self, other):
        if isinstance(other, SuspensionClass):
            return self + (-other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 1:
            raise ValueError("suspension classes have no degree-zero power")
        if n == 1:
            return self
        return SuspensionClass.zero(self.truncation, self.base.claim)

    def __repr__(self):
        return f"SuspensionClass({self.base!r})"


def suspend(f: KClass) -> SuspensionClass:
    """The double-suspension image of f (an isomorphism onto reduced classes)."""
    return SuspensionClass(f)
