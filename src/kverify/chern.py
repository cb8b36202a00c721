"""Chern character bridge between the K-theory model and cohomology.

Cohomology of the projective space model is Q[e]/(e^(M+1)) with e of degree
two, the same truncated ring as K-theory read in another generator, so a
cohomology class is a rational KClass whose coefficients are read in e
rather than u.  The Chern character substitutes u -> exp(e) - 1, the
additive Adams operation scales e^n by k^n, and the s-numbers are the
rescaled coefficients m! [e^m] ch.

The s-numbers read one table.  Since
(exp(e) - 1)^j = j! sum_m S(m, j) e^m/m! with S the Stirling numbers of the
second kind, u^j contributes j! S(m, j) to m! [e^m] ch, and that integer
counts the surjections from an m-set onto a j-set.  It vanishes for j > m,
so s_m(f) is the dot product of c_0..c_m with one cached row of integers.
ch is built from them, [e^m] ch = s_m / m! for each m <= N, so the two
share one route; ch itself serves the series identities.  duality_sign
computes s_m(L^-1 - 1) = (-1)^m through the same rows and checks it; the
eigenvalue rows and the mod-p certificate both read their sign there.

The eigenvalue rows read s_(2n-1) off the reduced conjugate-average class
r^k(conjugate line - 1): polyring.r_line_conjugate reads its coefficients
off one series.inv stream of a binomial row, and _conjugate_average
subtracts the augmentation (k-1)/2.  That class does not depend on the
prime, so it is built once per (k, truncation) and kept for the life of
the process.  The key is the exact truncation, never a
shared prefix: eigenvalue-truncation-stable compares the default window
2n + 2 against a wider one (at least 2n + 3), and keyed this way the two
sides are always two separate inversions, so the row can still fail.
The eigenvalue itself is kept too, once per (k, 2n - 1, truncation), the
same exact-truncation key: `all` asks theorem-a and eigenvalue for every
default window at each prime, and the primes share k, so each window's
s-numbers are evaluated once and a repeated request costs a lookup.

The series checks at the bottom pin the two classical identities tying the
multiplicative series (exp(x) - 1)/x to the positive even Bernoulli numbers
and to the Adams-averaged line class.  Both are verified coefficient by
coefficient to a requested order, never assumed: each check returns the
first order at which its two sides differ, or None, and that order is all
its row reads.

The rows of `theorem-a` and `eigenvalue`, and the series rows of `all`, are
built here: theorem_a_rows, eigenvalue_rows and series_rows.  Each check is
one report.rows call, eigenvalue-closed-form too: both commands emit it
through _closed_form_rows, theorem-a with its note and eigenvalue without.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from . import exact, polyring, report, series
from .polyring import KClass


def ch(f: KClass) -> KClass:
    """Chern character: substitute u -> exp(e) - 1; the coefficient of e^m
    is the s-number s_eval(m, f) over m!.

    The order is the K-theory truncation: only the orders up to it are
    geometrically determined, and to cut lower, cut f.
    """
    order = f.truncation
    return KClass([s_eval(m, f) / factorial(m) for m in range(order + 1)], order)


def psi_H(k: int, c: KClass) -> KClass:
    """Adams operation on cohomology: e^n is scaled by k^n."""
    return KClass([x * k**n for n, x in enumerate(c.nums)], c.truncation, den=c.den)


@lru_cache(maxsize=None)
def _surjection_rows() -> list[tuple[int, ...]]:
    """The rows of _surjections built so far, from m = 0."""
    return [(1,)]


def _surjections(m: int) -> tuple[int, ...]:
    """(j! S(m, j) for j = 0..m): the surjections from an m-set onto a j-set.

    In a surjection the last element shares one of j targets with the rest,
    which already cover all j, or is alone on it while the rest cover the
    other j - 1: a(m, j) = j (a(m-1, j) + a(m-1, j-1)).  Each row is built
    from the cached row before it, in a loop rather than by recursion, so a
    first request for a large m cannot hit the recursion limit.
    """
    rows = _surjection_rows()
    while len(rows) <= m:
        prev = rows[-1] + (0,)
        rows.append((0,) + tuple(j * (prev[j] + prev[j - 1]) for j in range(1, len(prev))))
    return rows[m]


def s_eval(m: int, f: KClass) -> Fraction:
    """The m-th additive characteristic number m! [e^m] ch(f).

    Computed as sum_{j<=m} c_j j! S(m, j): u^j = (exp(e) - 1)^j starts at e^j
    and its e^m coefficient times m! is the surjection count j! S(m, j), so
    only c_0..c_m contribute.  That is one integer dot product of the
    numerators with the surjection row, over the class's denominator.  An
    m above the truncation is an error.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > f.truncation:
        raise ValueError(
            f"order {m} exceeds truncation {f.truncation}; the discarded "
            f"u-powers would contribute"
        )
    return Fraction(sum(map(mul, f.nums, _surjections(m))), f.den)


def duality_sign(m: int) -> int:
    """s_m(L^-1 - 1), the weight-m number of the reduced conjugate line.

    ch(L^-1 - 1) = exp(-e) - 1, so it must be (-1)^m; it is computed at
    window m (s_m reads only c_0..c_m) and anything else raises
    ArithmeticError.
    """
    if m < 1:
        raise ValueError("m must be positive")
    expected = (-1) ** m
    sign = s_eval(m, polyring.line_power(-1, m) - 1)
    if sign != expected:
        raise ArithmeticError(f"normalizing s-number came out {sign}, expected {expected}")
    return expected


def bh(order: int) -> KClass:
    """The multiplicative series (exp(x) - 1)/x through x^order: its
    coefficients 1/(m+1)! as the numerators (order+1)!/(m+1)! over (order+1)!."""
    top = factorial(order + 1)
    return KClass([top // factorial(m + 1) for m in range(order + 1)], order, den=top)


def _first_mismatch(lhs, rhs) -> int | None:
    return next((i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)


def bh_log_identity_check(order: int) -> int | None:
    """The first order at which log((exp(x)-1)/x) and
    x/2 + sum of (-1)^(n-1) B_n/(2n) x^(2n)/(2n)! differ, or None.

    Order must be even and at least two so the comparison window closes on
    a complete Bernoulli term.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError("order must be an even integer >= 2")
    f = bh(order)
    nums, den = series.log1(f.nums, f.den, order)
    lhs = [Fraction(x, den) for x in nums]
    rhs = [Fraction(0)] * (order + 1)
    rhs[1] = Fraction(1, 2)
    for n in range(1, order // 2 + 1):
        rhs[2 * n] = (
            Fraction((-1) ** (n - 1))
            * exact.bernoulli(n)
            / (2 * n)
            / factorial(2 * n)
        )
    return _first_mismatch(lhs, rhs)


def bh_psi_relation_check(k: int, order: int) -> int | None:
    """The first order at which psi^k on the multiplicative series and ch
    of the averaged line class times the series differ, or None; both sides
    land on (exp(kx)-1)/(kx)."""
    if k < 1:
        raise ValueError("k must be positive")
    if order < 1:
        raise ValueError("order must be positive")
    lhs = psi_H(k, bh(order))
    rhs = ch(polyring.rho_line(k, 1, order)) * bh(order)
    return _first_mismatch(lhs.coeffs, rhs.coeffs)


def eigenvalue_closed_form(k: int, n: int) -> Fraction:
    """(-1)^(n-1) (k^(2n) - 1) B_n / (2n), exactly, normalized once."""
    if n < 1:
        raise ValueError("n must be positive")
    num, den = exact.bernoulli(n).as_integer_ratio()
    return Fraction((-1) ** (n - 1) * (k ** (2 * n) - 1) * num, 2 * n * den)


@lru_cache(maxsize=None)
def _conjugate_average(k: int, truncation: int) -> KClass:
    """r^k(conjugate line - 1) at exactly this truncation, built once: odd
    k keeps the subtracted augmentation (k-1)/2 out of the 2-adic picture."""
    if k % 2 == 0:
        raise ValueError("k must be odd")
    return polyring.r_line_conjugate(k, truncation) - Fraction(k - 1, 2)


def rk_eigenvalue(k: int, n: int, truncation: int | None = None) -> Fraction:
    """Eigenvalue of the conjugate-average class on the (2n-1)-st s-number,
    computed through the series route only.

    Ratio of s(2n-1) of the reduced average class to s(2n-1) of the reduced
    conjugate line, duality_sign(2n - 1), which must come out as
    (-1)^(2n-1); that is a sanity check on the normalization, not on the
    theorem.  Comparison with the closed form is the caller's job.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if truncation is None:
        truncation = 2 * n + 2
    m = 2 * n - 1
    if truncation < m:
        raise ValueError(f"truncation {truncation} too small for s_{m}")
    return _eigenvalue(k, m, truncation)


@lru_cache(maxsize=None)
def _eigenvalue(k: int, m: int, truncation: int) -> Fraction:
    """rk_eigenvalue on s_m at exactly this truncation, computed once."""
    return s_eval(m, _conjugate_average(k, truncation)) / duality_sign(m)


def _fractions(lhs: Fraction, rhs: Fraction):
    return exact.frac_str(lhs), exact.frac_str(rhs), ()


def _closed_form_rows(p: int, k: int, n_max: int, notes: tuple = ()) -> list[report.CheckReport]:
    return report.rows(
        "eigenvalue-closed-form",
        [{"p": p, "k": k, "n": n} for n in range(1, n_max + 1)],
        lambda p, k, n: _fractions(rk_eigenvalue(k, n), eigenvalue_closed_form(k, n)),
        notes,
    )


def theorem_a_rows(p: int, k: int | None, n_max: int) -> list[report.CheckReport]:
    valuation_k = exact.choose_k(p)  # the valuation identity always uses the generator
    k = k or valuation_k
    indices = range(1, n_max + 1)
    return (
        _closed_form_rows(p, k, n_max, notes=("series route vs (-1)^(n-1) (k^(2n)-1) B_n/2n",))
        + report.rows("eigenvalue-p-local", [{"p": p, "k": k, "n": n} for n in indices], _p_local)
        + report.rows(
            "denominator-valuation",
            [{"p": p, "k": valuation_k, "n": n} for n in indices],
            _valuation,
        )
        + report.rows(
            "cleared-ratio-identity",
            [{"n": n} for n in indices],
            lambda n: _fractions(
                exact.num_denom(n)[1] * (exact.bernoulli(n) / (2 * n)), exact.num_denom(n)[0]
            ),
            notes=("denominator times the ratio recovers the numerator exactly",),
        )
    )


def _p_local(p: int, k: int, n: int):
    valuation = exact.vp(rk_eigenvalue(k, n), p)
    return "p-local" if valuation >= 0 else f"valuation {valuation}", "p-local", ()


def _valuation(p: int, k: int, n: int):
    lhs, rhs, note = exact.denominator_valuation_check(p, n)
    return f"v={lhs}", f"v={rhs}", (note,) if note else ()


def eigenvalue_rows(p: int, k: int | None, n_max: int, truncation: int) -> list[report.CheckReport]:
    k = k or exact.choose_k(p)
    indices = range(1, n_max + 1)
    return _closed_form_rows(p, k, n_max) + report.rows(
        "eigenvalue-truncation-stable",
        [{"p": p, "k": k, "n": n, "truncation": max(truncation, 2 * n + 3)} for n in indices],
        lambda p, k, n, truncation: _fractions(
            rk_eigenvalue(k, n), rk_eigenvalue(k, n, truncation=truncation)
        ),
        notes=("default window against a wider truncation",),
    )


def series_rows(order: int) -> list[report.CheckReport]:
    """The two series identities behind the eigenvalue computation."""
    return report.rows(
        "series-log-bernoulli",
        [{"order": order}],
        lambda order: _agreement(bh_log_identity_check(order)),
    ) + report.rows(
        "series-psi-average",
        [{"k": k, "order": order} for k in (2, 3, 5)],
        lambda k, order: _agreement(bh_psi_relation_check(k, order)),
    )


def _agreement(mismatch: int | None):
    agree = "coefficients agree"
    return agree if mismatch is None else f"first mismatch at order {mismatch}", agree, ()
