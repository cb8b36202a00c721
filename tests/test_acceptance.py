"""Acceptance gate: the eight headline checks, exact, one line each.

Every comparison below is an equality of Fractions or integers; there are
no tolerances anywhere.  Each test prints a single pass/fail line (visible
under ``pytest -s``) and asserts the same condition, so the gate reads the
same whether a human or the runner is looking.
"""

from fractions import Fraction
from math import factorial

from kverify.bockstein import (
    ModelKind,
    Run,
    build_model,
    compute_page,
    verify_closed_form_pages,
)
from kverify.chern import (
    bh_log_identity_check,
    bh_psi_relation_check,
    ch,
    eigenvalue_closed_form,
    psi_H,
    rk_eigenvalue,
    s_eval,
)
from kverify.dyerlashof import akita_counterexample
from kverify.exact import bernoulli, bernoulli_recursive, choose_k, num_denom, vp
from kverify.kops import (
    _SIGN_NOTE,
    IntegralityViolation,
    artin_hasse_log,
    l_double_loop,
    log_one_minus,
    psi,
    theta,
)
from kverify.polyring import KClass, line_power, rho_line


def _gate(label: str, ok: bool) -> None:
    print(f"acceptance [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_1_bernoulli_series_and_ratio_oracle():
    # rebuild z/(exp(z)-1) + z/2 through z^60 with nothing but Fractions
    order = 60
    forward = [Fraction(1, factorial(m + 1)) for m in range(order + 1)]
    inverse = [Fraction(1)]
    for m in range(1, order + 1):
        inverse.append(-sum(forward[j] * inverse[m - j] for j in range(1, m + 1)))
    inverse[1] += Fraction(1, 2)
    ok = all(
        inverse[2 * n] == Fraction((-1) ** (n - 1)) * bernoulli(n) / factorial(2 * n)
        for n in range(1, 31)
    )
    ok = ok and all(inverse[m] == 0 for m in range(3, order + 1, 2))
    ok = ok and all(
        num_denom(n) == (q.numerator, q.denominator)
        for n in range(1, 21)
        for q in [bernoulli_recursive(n) / (2 * n)]
    )
    _gate("1/8 Bernoulli series through z^60 + ratio table vs recurrence", ok)


def test_2_eigenvalue_closed_form_and_p_locality():
    ok = rk_eigenvalue(5, 1) == 2
    for p in (3, 5, 7):
        k = choose_k(p)
        for n in range(1, 7):
            value = rk_eigenvalue(k, n)
            ok = ok and value == eigenvalue_closed_form(k, n)
            ok = ok and vp(value, p) >= 0
    _gate("2/8 eigenvalue series route == closed form, p-local, p in {3,5,7}", ok)


def test_3_denominator_valuation_identity():
    ok = True
    for p in (3, 5, 7, 11):
        k = choose_k(p)
        for n in range(1, 21):
            lhs = vp(k ** (2 * n) - 1, p)
            rhs = vp(num_denom(n)[1], p)
            ok = ok and lhs == rhs
    for n in range(1, 21):
        lhs = vp(3 ** (2 * n) - 1, 2)
        rhs = vp(2 * num_denom(n)[1], 2)
        ok = ok and lhs == rhs
    _gate("3/8 v_p(k^2n - 1) == v_p(denominator), with the extra 2 at p=2", ok)


def test_4_transfer_polynomial_identities():
    ok = True
    for k in range(2, 8):
        for truncation in range(1, 13):
            num = KClass.zero(truncation)
            for i in range(k - 1):
                num = num + (k - 1 - i) * line_power(i, truncation)
            den = KClass.zero(truncation)
            for i in range(k):
                den = den + line_power(i, truncation)
            u = line_power(1, truncation) - 1
            ok = ok and u * num == den - k
    for k in (2, 3, 5, 7):
        for exponents in ((1,), (2,), (1, 2), (1, 1), (2, 3), (1, 2, 3)):
            # the Euler class of a sum of lines is the product of the 1 - L^a,
            # and its transfer class the product of the line values
            product = line_power(0, 10)
            rho = line_power(0, 10)
            for a in exponents:
                product = product * (line_power(0, 10) - line_power(a, 10))
                rho = rho * rho_line(k, a, 10)
            lhs = psi(k, product)
            rhs = k ** len(exponents) * rho * product
            ok = ok and lhs == rhs
    _gate("4/8 conjugate-average polynomial identity + transfer relation", ok)


def test_5_theta_integrality_and_log_forms():
    violations = 0
    for p in (2, 3, 5):
        for truncation in range(0, 11):
            u = line_power(1, truncation) - 1
            for x in (u, u * u, u + u * u, 2 * u + u**3):
                for t in range(0, 4):
                    try:
                        result = theta(p, t, x)
                    except IntegralityViolation:
                        violations += 1
                        continue
                    if any(c.denominator != 1 for c in result.coeffs):
                        violations += 1
    ok = violations == 0
    # one global sign: +1 makes the defining sum equal the closed form for
    # every input at every prime, so no per-input sign juggling is needed
    for p in (2, 3, 5):
        u = line_power(1, 8) - 1
        for x in (u, u * u, u + u * u):
            logarithm = log_one_minus(x)
            closed = logarithm - psi(p, logarithm) / p
            ok = ok and artin_hasse_log(p, x) == 1 * closed
    for p in (2, 3, 5):
        f = line_power(1, 8) - 1
        g = l_double_loop(p, f)
        for n in range(1, 7):
            scalar = 1 - p**n
            ok = ok and s_eval(n, g) == scalar * s_eval(n, f)
            ok = ok and scalar % p == 1
    # the discrepancy with the other stated sign is reported, never silenced
    ok = ok and "does not match" in _SIGN_NOTE and "+ psi^p(x)" in _SIGN_NOTE
    _gate("5/8 theta integrality (0 violations) + logarithm forms + sign report", ok)


def test_6_counterexample_certificates():
    ok = True
    for p in (3, 5, 7, 11, 13):
        cert = akita_counterexample(p)
        ok = ok and cert.s_pairing == (-1) ** (2 * p - 1) % p != 0
        ok = ok and cert.num_residue == num_denom(p)[0] % p != 0
        ok = ok and cert.refutes
    _gate("6/8 odd s-number pairing certificate at p in {3,5,7,11,13}", ok)


def test_7_torsion_page_dimensions():
    ok = True
    for p in (3, 5, 7):
        for deg in (2, 4):
            bound = 2 * deg * p**3
            report = verify_closed_form_pages(
                build_model(ModelKind.TYPE1, p, deg, bound), 3
            )
            ok = ok and report.mismatches == {2: 0, 3: 0}
            model2 = build_model(ModelKind.TYPE2, p, deg, bound)
            ok = ok and verify_closed_form_pages(model2, 3).mismatches == {2: 0, 3: 0}
            for page in compute_page(model2, 3)[1:]:
                ok = ok and page.runs == (Run(range(1), range(1), False, None),)
    _gate("7/8 torsion page dimensions match the closed form, TYPE2 collapses", ok)


def test_8_algebraic_property_suites():
    f = KClass([1, 2, 0, 3], 8)
    g = KClass([0, 1, 1], 8)
    h = KClass([2, 0, 0, 0, 1], 8)
    ok = (f * g) * h == f * (g * h)
    ok = ok and f * (g + h) == f * g + f * h
    ok = ok and f * g == g * f
    for k, l in ((2, 3), (3, 5), (5, 2)):
        ok = ok and psi(k, psi(l, f)) == psi(k * l, f)
        ok = ok and psi(k, f * g) == psi(k, f) * psi(k, g)
        ok = ok and ch(psi(k, f)) == psi_H(k, ch(f))
    ok = ok and bh_log_identity_check(30).passed
    ok = ok and all(bh_psi_relation_check(k, 30).passed for k in (2, 3, 5))
    # compute_page raises if any differential fails to square to zero
    for kind in (ModelKind.TYPE1, ModelKind.TYPE2):
        compute_page(build_model(kind, 3, 2, 60), 3)
        compute_page(build_model(kind, 5, 4, 100), 3)
    _gate("8/8 ring axioms, operation laws, series identities, d*d = 0", ok)
