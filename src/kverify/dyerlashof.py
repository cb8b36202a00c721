"""Mod-p homology operations at the level needed for one disproof.

The homology of BU mod an odd prime carries operations Q^j whose leading
behaviour on the standard polynomial generators a_n is a signed binomial
coefficient times a higher generator, plus decomposables that nobody here
ever needs to know: the primitive classes s_m kill decomposables, so the
leading term is enough to evaluate every pairing this package computes.
q_on_bu returns that term as the plain pair (index, coefficient), and
pair_primitive_s reads it.

The payoff is akita_counterexample: an exact certificate that the cleared
integral form of the classical odd s-number relation cannot hold, returned
as (s_pairing, num_residue, notes).  The conjugate-side class detects the
double operation on the bottom generator (pairing -1 mod p, computed); the
direct-side class is a suspension image and so pairs to zero, which is the
classical suspension argument, stated in a certificate note and not
computed.  Since the numerator of B_p/2p is a unit mod p (computed), the
cleared identity would force those two pairings to agree.  akita_rows
reports the certificate as the `akita` row, which refutes only when both
computed halves are nonzero.
"""

from __future__ import annotations

from math import comb

from . import chern, exact, report


def q_on_bu(j: int, n: int, p: int) -> tuple[int, int]:
    """(index, coefficient) of the leading term of Q^j on the n-th standard
    generator: (-1)^(j+n-1) binom(j-1, n) a_{n + j(p-1)}, the coefficient
    reduced mod p.  The rest of Q^j(a_n) is decomposable, and
    pair_primitive_s shows why no pairing here needs it."""
    if not exact.is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if j < 1 or n < 1:
        raise ValueError("j and n must be positive")
    return n + j * (p - 1), ((-1) ** (j + n - 1) * comb(j - 1, n)) % p


def pair_primitive_s(m: int, p: int, index: int, coefficient: int) -> int:
    """<s_m, coefficient * a_index + decomposables> mod p: zero unless the
    index is m, and then the coefficient times the duality sign.

    The primitive class s_m annihilates products, so the decomposable tail
    never reaches the pairing and the leading term decides the value.  The
    sign is not an assumption: chern.duality_sign computes s_m of the
    reduced conjugate line through the character route and checks that it
    is the weight-m number (-1)^m the generator convention pairs against,
    raising ArithmeticError otherwise.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if index != m:
        return 0
    return (coefficient * chern.duality_sign(m)) % p


def akita_counterexample(p: int) -> tuple[int, int, tuple[str, ...]]:
    """(s_pairing, num_residue, notes): the refutation certificate at an
    odd prime p.

    The weight is m = 2p - 1 and the test class is Q^2(a_1), whose leading
    term is +1 * a_{2p-1}.  s_pairing is its pairing mod p with the
    conjugate-side class of weight m, (-1)^(2p-1) = -1 mod p; the direct
    side pairs to zero by the suspension argument, which the third note
    states.  num_residue is the numerator of B_p/(2p) mod p.  If the cleared
    identity held, reducing it mod p and cancelling a unit numerator would
    force the two pairings to agree on this class.  So the certificate
    refutes the identity exactly when both computed halves are nonzero:
    the pairings differ, and the numerator is a unit.
    """
    if p == 2:
        raise ValueError("the comparison machinery needs an odd prime")
    if not exact.is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    m = 2 * p - 1
    index, coefficient = q_on_bu(2, 1, p)
    s_pairing = pair_primitive_s(m, p, index, coefficient)
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
        f"term {coefficient} * a_{index}",
        f"conjugate-side pairing at weight {m}: {s_pairing} mod {p}",
        "direct-side class is a suspension image, so it annihilates "
        "operation words: pairing 0",
        numerator_note,
        f"genus threshold {8 * p - 3} is reported, not derived here",
    )
    return s_pairing, num_residue, notes


def akita_rows(p: int) -> list[report.CheckReport]:
    return report.rows("akita-counterexample", [{"p": p}], _akita)


def _akita(p: int):
    s_pairing, num_residue, notes = akita_counterexample(p)
    refuted = "conjecture fails mod p"
    lhs = refuted if s_pairing and num_residue else "certificate incomplete"
    # the kappa side is the suspension argument of the third note
    return lhs, refuted, notes + (
        f"s-side pairing {s_pairing}, kappa side 0, numerator residue {num_residue} mod {p}",
    )
