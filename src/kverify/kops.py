"""Operations on truncated K-theory classes.

Adams operations act on the line class by L -> L^k, hence on u = L - 1 by
substitution u -> (1+u)^k - 1.  On top of them sit the p-typical
difference operations theta and the p-local logarithm built from them; the
classes they act on are built in polyring.  The logarithm telescopes to
(1 - psi^p/p) log(1-x); tests pin that closed form, the code here only ever
evaluates the defining sums.
Each power is taken once: theta and the logarithm read f^m off the class's
table of powers (KClass.powers), or past its end one cached zero class,
and psi^k's substitution rows are the table of (1+u)^k - 1.  The
double-loop form is the same sum for a class times the reduced generator w
of a double suspension; there w^2 = 0 and psi^k scales w by k, so two terms
survive, and l_double_loop computes those two on the base class directly.

Everything is exact.  Division by p^t is checked coefficient by coefficient
and raises IntegralityViolation, carrying the offending coefficient, rather
than silently producing a fraction: the divisibility IS the theorem in most
of the places these operations are used.

The module holds the operations, and the artin-hasse rows that check them
(artin_hasse_rows), each check one report.rows call whose rows build their
classes from their own key (N and the label): a raise there is an ERROR row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import chern, exact, polyring, report, series
from .polyring import Claim, KClass


class IntegralityViolation(ArithmeticError):
    """A class expected to be divisible by p^t is not."""

    def __init__(self, prime: int, t: int, index: int, coefficient: Fraction):
        self.prime = prime
        self.t = t
        self.index = index
        self.coefficient = coefficient
        super().__init__(
            f"coefficient {coefficient} of u^{index} is not divisible by "
            f"{prime}^{t}"
        )


@lru_cache(maxsize=None)
def _substitution_matrix(k: int, truncation: int) -> tuple[tuple[int, ...], ...]:
    """Row j: ((1+u)^k - 1)^j mod u^(N+1) from u^j on (the lower terms vanish),
    the numerators of entry j of that integral class's table of powers."""
    shifted = polyring.line_power(k, truncation) - 1
    return tuple(row.nums[j:] for j, row in enumerate(shifted.powers()))


def psi(k: int, f: KClass) -> KClass:
    """Adams operation psi^k: substitute u -> (1+u)^k - 1.

    Defined for any nonzero integer k (negative k through the integral
    expansion of (1+u)^k that line_power uses).  The substitution is a fixed
    integer matrix, cached per (k, N), whose row j is ((1+u)^k - 1)^j;
    series.compose sums the class's numerators against its rows, and the
    result sits over the class's denominator.  Coefficients of the result
    are integer combinations of the input coefficients, so the result is
    integral or p-local wherever the input is.
    """
    if k == 0:
        raise ValueError("psi^0 is not an operation on these classes")
    out = series.compose(f.nums, _substitution_matrix(k, f.truncation))
    return KClass(out, f.truncation, den=f.den)


def _divide_p_power(f: KClass, p: int, t: int) -> KClass:
    """f / p^t, raising IntegralityViolation unless every coefficient x/d
    allows it: v_p(x) - v_p(d) >= t, that is p^(t + v_p(d)) divides x."""
    step = p ** (t + exact.vp(f.den, p))
    for i, x in enumerate(f.nums):
        if x % step:
            raise IntegralityViolation(p, t, i, Fraction(x, f.den))
    return KClass(f.nums, f.truncation, den=f.den * p**t)


def _check_theta_input(p: int, t: int, f: KClass) -> None:
    if not exact.is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not Claim(p).admits(f.den):
        raise ValueError(f"theta at p = {p} needs a {p}-local input, got denominator {f.den}")


def _check_reduced(f: KClass, name: str) -> None:
    """Refuse f unless it is reduced (augmentation zero), as _power needs: then
    f^m lies in u^m and above, so past f^N, its table's end, it is zero."""
    if f.augmentation != 0:
        raise ValueError(f"{name} is defined on classes with augmentation zero")


_zero = lru_cache(maxsize=None)(KClass.zero)  # one zero class per truncation


def _power(f: KClass, m: int) -> KClass:
    """f^m, for m >= 0 and a reduced f, off f's table of powers."""
    table = f.powers()
    return table[m] if m < len(table) else _zero(f.truncation)


def theta(p: int, t: int, f: KClass) -> KClass:
    """The p-typical difference operation (x^(p^t) - psi^p(x^(p^(t-1)))) / p^t.

    t = 0 is the identity.  The division is checked; for p-locally integral
    reduced input it always succeeds, and that success is exactly the
    integrality lemma the tests exercise.
    """
    _check_theta_input(p, t, f)
    _check_reduced(f, "theta")
    if t == 0:
        return f
    return _divide_p_power(_power(f, p**t) - psi(p, _power(f, p ** (t - 1))), p, t)


def log_one_minus(x: KClass) -> KClass:
    """log(1 - x) = -sum x^m / m, truncated, by the series logarithm on the
    numerators of 1 - x over its denominator.

    x must be reduced: otherwise 1 - x has a constant term other than 1 and
    series.log1 raises ValueError.
    """
    y = 1 - x
    nums, den = series.log1(y.nums, y.den, x.truncation)
    return KClass(nums, x.truncation, den=den)


def artin_hasse_log(p: int, x: KClass) -> KClass:
    """The p-local logarithm of 1 - x: minus sum over n prime to p of
    (1/n) * sum over t of theta^(p^t)(x^n).

    x must be reduced (augmentation zero) so the powers climb the u-adic
    filtration and the sum is finite at each truncation.  Each theta term is
    theta's own expression, (x^(m p) - psi^p(x^m)) / p^t for m = n p^(t-1),
    with both powers read off x's table, so every power is taken once.
    theta's input check runs once, on x: its powers are p-local with it.
    The result is p-locally integral, and an ArithmeticError is raised if
    its denominator says otherwise.
    """
    _check_theta_input(p, 0, x)
    _check_reduced(x, "the p-local logarithm")
    truncation = x.truncation
    total = KClass.zero(truncation)
    for n in range(1, truncation + 1):
        inner = _power(x, n)  # the t = 0 term is x^n itself
        if inner.is_zero():
            break
        if n % p != 0:
            m, t = n, 1
            while m <= truncation:
                inner = inner + _divide_p_power(_power(x, m * p) - psi(p, _power(x, m)), p, t)
                m, t = m * p, t + 1
            total = total + inner * Fraction(-1, n)
    if not Claim(p).admits(total.den):
        raise ArithmeticError(f"the logarithm at p = {p} has denominator {total.den}")
    return total


def l_double_loop(p: int, f: KClass) -> KClass:
    """The double-loop form of the logarithm: the p-local log of 1 - x for
    x = -f w, read off as the coefficient of w.

    w is the reduced generator of a double suspension, and two laws hold
    there: w^2 = 0, and psi^k(g w) = k psi^k(g) w (psi^k scales the Bott
    class by k).  So every power x^n with n >= 2 vanishes and only the n = 1
    layer of the sum survives; in theta^(p^t)(x) = (g^p - psi^p(g)) / p^t
    with g = x^(p^(t-1)), g vanishes from t = 2 on.  With s = -f the two
    surviving terms are s itself (t = 0) and, at t = 1, (s^p - psi^p(s)) / p
    on the w-coordinates: s^p w^p = 0 and psi^p(s w) = p psi^p(s) w, so the
    numerator is -p psi^p(s), divided by p with the check theta makes.

    The telescoping of the theta sum makes this f - psi^p(f); the tests
    freeze that identity rather than this function assuming it.
    """
    _check_theta_input(p, 1, f)
    s = -f
    return -(s + _divide_p_power(-(psi(p, s) * p), p, 1))


_SIGN_NOTE = (
    "computed double-loop logarithm is x - psi^p(x), with multiplier "
    "1 - p^n on weight-n numbers; the stated + variant (x + psi^p(x), "
    "multiplier 1 + p^n) does not match the defining sum as evaluated "
    "here; both multipliers are congruent to 1 mod p"
)


@lru_cache(maxsize=None)
def _samples(truncation: int) -> dict[str, KClass]:
    """The classes the artin-hasse rows name by label, built once per
    truncation: the line L, u = L - 1, u^2 and u + u^2."""
    line = polyring.line_power(1, truncation)
    u = line - 1
    u2 = _power(u, 2)
    return {"L": line, "u": u, "u^2": u2, "u+u^2": u + u2}


def _theta_integrality(p: int, t: int, N: int, x: str):
    try:
        result = theta(p, t, _samples(N)[x])
    except IntegralityViolation as err:
        lhs = f"coefficient {err.coefficient} of u^{err.index} not divisible by {p}^{t}"
        return lhs, "p-integral", ()
    if not Claim(p).admits(result.den):
        return f"denominator {result.den}", "p-integral", ()
    return "p-integral", "p-integral", ()


def _log_closed_form(p: int, N: int, x: str):
    sample = _samples(N)[x]
    lhs = artin_hasse_log(p, sample)
    logarithm = log_one_minus(sample)
    return str(lhs), str(logarithm - psi(p, logarithm) / p), ()


def _double_loop_log_form(p: int, N: int, f: str):
    sample = _samples(N)[f]
    return str(l_double_loop(p, sample)), str(sample - psi(p, sample)), ()


# The double-loop-weight-scalar rows run n up to this weight and evaluate their
# class at it as the truncation: s_n reads u^0..u^n alone, as at any N >= n.
_MAX_WEIGHT = 6


def _weight_scalar(p: int, n: int):
    return (
        exact.frac_str(chern.s_eval(n, l_double_loop(p, _samples(_MAX_WEIGHT)["u"]))),
        exact.frac_str(Fraction(1 - p**n)),
        (f"1 - {p}^{n} = {1 - p ** n} is congruent to 1 mod {p}",),
    )


def artin_hasse_rows(p: int, truncation: int) -> list[report.CheckReport]:
    labels = ("u", "u^2", "u+u^2")
    return (
        report.rows(
            "theta-integrality",
            [{"p": p, "t": t, "N": truncation, "x": x} for x in labels for t in range(4)],
            _theta_integrality,
        )
        + report.rows(
            "p-local-log-closed-form",
            [{"p": p, "N": truncation, "x": x} for x in labels],
            _log_closed_form,
            notes=("defining double sum vs (1 - psi^p/p) log(1-x); global sign +1",),
        )
        + report.rows(
            "double-loop-log-form",
            [{"p": p, "N": truncation, "f": f} for f in ("L", "u")],
            _double_loop_log_form,
            notes=(_SIGN_NOTE,),
        )
        + report.rows(
            "double-loop-weight-scalar",
            [{"p": p, "n": n} for n in range(1, min(_MAX_WEIGHT, truncation) + 1)],
            _weight_scalar,
        )
    )
