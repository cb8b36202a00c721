"""Mod-p homology operations at the level needed for one disproof.

The homology of BU mod an odd prime carries operations Q^j whose leading
behaviour on the standard polynomial generators a_n is a signed binomial
coefficient times a higher generator, plus decomposables that nobody here
ever needs to know: the primitive classes s_m kill decomposables, so the
leading term is enough to evaluate every pairing this package computes.

The payoff is akita_counterexample: an exact certificate that the cleared
integral form of the classical odd s-number relation cannot hold.  The
conjugate-side class detects the double operation on the bottom generator
(pairing -1 mod p, computed); the direct-side class is a suspension image
and so pairs to zero, which is the classical suspension argument, stated in
a certificate note and not computed.  Since the numerator of B_p/2p is a
unit mod p (computed), the cleared identity would force those two pairings
to agree.  akita_rows reports the certificate as the `akita` row.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from . import chern, exact, report


class _LeadingFields(NamedTuple):
    prime: int
    generator_index: int
    coefficient: int


class LeadingHomologyClass(_LeadingFields):
    """c * a_m plus unspecified decomposables, mod p.

    Pairings with primitive cohomology classes depend only on (m, c): the
    primitives annihilate products, so the unknown tail never contributes.
    """

    __slots__ = ()

    def __new__(cls, prime: int, generator_index: int, coefficient: int):
        if not 0 <= coefficient < prime:
            raise ValueError("coefficient must be a reduced residue")
        return super().__new__(cls, prime, generator_index, coefficient)


def q_on_bu(j: int, n: int, p: int) -> LeadingHomologyClass:
    """Leading term of Q^j on the n-th standard generator:
    (-1)^(j+n-1) binom(j-1, n) a_{n + j(p-1)} mod p."""
    if not exact.is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if j < 1 or n < 1:
        raise ValueError("j and n must be positive")
    coefficient = ((-1) ** (j + n - 1) * comb(j - 1, n)) % p
    return LeadingHomologyClass(p, n + j * (p - 1), coefficient)


def pair_primitive_s(m: int, c: LeadingHomologyClass) -> int:
    """<s_m, c> mod p: zero unless the generator index is m, and then the
    coefficient times the duality sign.

    The sign is not an assumption: chern.duality_sign computes s_m of the
    reduced conjugate line through the character route and checks that it
    is the weight-m number (-1)^m the generator convention pairs against,
    raising ArithmeticError otherwise.  Decomposables die on the primitive
    class, so the leading term decides the value.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if c.generator_index != m:
        return 0
    return (c.coefficient * chern.duality_sign(m)) % c.prime


class Certificate(NamedTuple):
    """Exact record of the disproof at one odd prime.

    s_pairing is the pairing mod p of the conjugate-side class of weight
    2p-1 with the double operation on the bottom generator; num_residue is
    the numerator of B_p/(2p) mod p.  The direct-side pairing is zero by
    the suspension argument (a note, not a computation), so the two
    pairings differ exactly when s_pairing is nonzero, and a unit numerator
    turns that difference into a refutation of the cleared identity.
    """

    prime: int
    s_pairing: int
    num_residue: int
    notes: tuple[str, ...]

    @property
    def refutes(self) -> bool:
        return self.s_pairing != 0 and self.num_residue != 0


def akita_counterexample(p: int) -> Certificate:
    """Assemble the refutation certificate at an odd prime p.

    The weight is m = 2p - 1 and the test class is Q^2(a_1), whose leading
    term is +1 * a_{2p-1}.  The conjugate-side pairing is (-1)^(2p-1) = -1
    mod p; the direct side pairs to zero by the suspension argument, which
    the third note states.  If the cleared identity held, reducing mod p
    and cancelling the unit numerator of B_p/(2p) would force the two
    sides to agree on this class; they do not.
    """
    if p == 2:
        raise ValueError("the comparison machinery needs an odd prime")
    if not exact.is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    m = 2 * p - 1
    test_class = q_on_bu(2, 1, p)
    s_pairing = pair_primitive_s(m, test_class)
    num = exact.num_denom(p)[0]
    num_residue = num % p
    if num_residue:
        numerator_note = (
            f"numerator {num} of the weight-{p} Bernoulli ratio is a unit "
            f"mod {p} (residue {num_residue}), so the cleared identity would "
            f"force the two pairings to agree mod {p}"
        )
    else:
        numerator_note = (
            f"numerator {num} of the weight-{p} Bernoulli ratio is not a unit "
            f"mod {p} (residue 0), so the cleared identity does not force the "
            f"two pairings to agree"
        )
    notes = (
        f"test class: double operation on the bottom generator, leading "
        f"term {test_class.coefficient} * a_{test_class.generator_index}",
        f"conjugate-side pairing at weight {m}: {s_pairing} mod {p}",
        "direct-side class is a suspension image, so it annihilates "
        "operation words: pairing 0",
        numerator_note,
        f"genus threshold {8 * p - 3} is reported, not derived here",
    )
    return Certificate(p, s_pairing, num_residue, notes)


def akita_rows(p: int) -> list[report.CheckReport]:
    def thunk():
        certificate = akita_counterexample(p)
        refuted = "conjecture fails mod p"
        return (
            refuted if certificate.refutes else "certificate incomplete",
            refuted,
            certificate.notes
            + (
                # the kappa side is the suspension argument of the third note
                f"s-side pairing {certificate.s_pairing}, kappa side 0, "
                f"numerator residue {certificate.num_residue} mod {p}",
            ),
        )

    return [report.run_check("akita-counterexample", {"p": p}, thunk)]
