"""The mutation matrix: a fault in one kernel turns named checks of `all`
away from PASS.

Each case plants one fault in the default `kverify all` run and pins
exactly which check names leave PASS, and how (FAIL, ERROR or both among
that name's rows).  A report row that no fault can move passes vacuously,
so every check name `all` emits has a fault here, or in another committed
test, that turns it FAIL, or is listed below with the change that will
give it one.

Committed elsewhere, in tests/test_cli.py:
- bockstein-page-dimension and bockstein-page-summary FAIL when
  bockstein.rank_mod_p returns 0
  (test_rank_zero_fails_the_dimension_and_summary_rows);
- double-loop-log-form FAILs on a wrong sign, and on one p too many, from
  kops._divide_p_power
  (test_wrong_sign_from_the_p_division_fails_the_double_loop_rows,
  test_quotient_left_over_one_p_too_many_fails_the_theta_rows).

No fault turns these FAIL yet (ROADMAP items):
- cleared-ratio-identity compares Denom * (B_n/2n) with Num for the pair
  (Num, Denom) of that same fraction in lowest terms, so it cannot fail;
  item 10 replaces it with Adams' m(2n) by integer gcds.
- akita-counterexample leaves PASS only as ERROR here (a fault in the
  surjection rows, tests/test_cli.py); item 6 makes its lhs and rhs
  computed residues.
- eigenvalue-truncation-stable leaves PASS only as ERROR; item 11 pins
  every s-number of each conjugate-average window.

A fault replaces the function in every kverify module that binds it (cli
binds exact.bernoulli for the benchmark; every other module reads its
siblings' functions through their modules), and the package's lru_caches
are cleared before and after each case, so no faulted value outlives it.
"""

import importlib
import json

import pytest

from conftest import MODULES, clear_caches
from kverify import exact, kops, polyring, series
from kverify.cli import main
from kverify.report import ERROR, FAIL, PASS
from kverify.polyring import KClass



def _mul_top_plus_one(mul):
    def fault(a, b, order):
        out = list(mul(a, b, order))
        out[-1] += 1
        return tuple(out)

    return fault


def _inv_plus_one_at_5(inv):
    def fault(a):
        for m, q in enumerate(inv(a)):
            yield q + 1 if m == 5 else q

    return fault


def _log1_plus_one_at_3(log1):
    def fault(a, den, order):
        nums, e = log1(a, den, order)
        if order >= 3:
            nums = [*nums[:3], nums[3] + e, *nums[4:]]
        return nums, e

    return fault


def _compose_without_top_term(compose):
    def fault(f, powers):
        f = list(f)
        top = max((j for j, c in enumerate(f) if c), default=None)
        if top is not None:
            f[top] = 0
        return compose(f, powers)

    return fault


def _plus_one_at_3(bernoulli):
    return lambda n: bernoulli(n) + (n == 3)


def _psi_next_k(psi):
    return lambda k, f: psi(k + 1, f)


def _choose_k_plus_two(choose_k):
    return lambda p: choose_k(p) + 2


def _conjugate_plus_u(r_line_conjugate):
    return lambda k, truncation: r_line_conjugate(k, truncation) + KClass([0, 1], truncation)


# (home module, name, fault of the original, {check name: its non-PASS statuses})
CASES = {
    "series.mul-top-plus-one": (
        series,
        "mul",
        _mul_top_plus_one,
        {
            "p-local-log-closed-form": {ERROR},
            "series-psi-average": {FAIL},
            "theta-integrality": {FAIL},
        },
    ),
    "series.inv-plus-one-at-5": (
        series,
        "inv",
        _inv_plus_one_at_5,
        {"bernoulli-series-roundtrip": {FAIL}, "eigenvalue-closed-form": {FAIL}},
    ),
    "series.log1-plus-one-at-3": (
        series,
        "log1",
        _log1_plus_one_at_3,
        {"p-local-log-closed-form": {FAIL}, "series-log-bernoulli": {FAIL}},
    ),
    "series.compose-without-top-term": (
        series,
        "compose",
        _compose_without_top_term,
        {
            "double-loop-weight-scalar": {FAIL},
            "p-local-log-closed-form": {FAIL, ERROR},
            "theta-integrality": {FAIL},
        },
    ),
    "exact.bernoulli_recursive-plus-one-at-3": (
        exact,
        "bernoulli_recursive",
        _plus_one_at_3,
        {
            "bernoulli-num-denom": {FAIL},
            "bernoulli-series-roundtrip": {FAIL},
            "bernoulli-value": {FAIL},
        },
    ),
    "exact.bernoulli-plus-one-at-3": (
        exact,
        "bernoulli",
        _plus_one_at_3,
        {
            "bernoulli-num-denom": {FAIL},
            "bernoulli-value": {FAIL},
            "eigenvalue-closed-form": {FAIL},
            "series-log-bernoulli": {FAIL},
        },
    ),
    "kops.psi-next-k": (
        kops,
        "psi",
        _psi_next_k,
        {
            "double-loop-weight-scalar": {FAIL},
            "p-local-log-closed-form": {ERROR},
            "theta-integrality": {FAIL},
        },
    ),
    "exact.choose_k-plus-two": (
        exact,
        "choose_k",
        _choose_k_plus_two,
        {"denominator-valuation": {FAIL}, "eigenvalue-p-local": {FAIL}},
    ),
    "polyring.r_line_conjugate-plus-u": (
        polyring,
        "r_line_conjugate",
        _conjugate_plus_u,
        {"eigenvalue-closed-form": {FAIL}},
    ),
}


def _modules():
    return [importlib.import_module(f"kverify.{name}") for name in MODULES]


def _left_pass(capsys) -> dict:
    """{check name: set of statuses} of the rows of default `all` that are
    not PASS."""
    assert main(["all", "--json"]) == 1
    moved = {}
    for row in json.loads(capsys.readouterr().out):
        if row["status"] != PASS:
            moved.setdefault(row["check_name"], set()).add(row["status"])
    return moved


@pytest.mark.parametrize("case", CASES)
def test_fault_moves_exactly_its_check_names(monkeypatch, capsys, case):
    home, name, make_fault, expected = CASES[case]
    original = getattr(home, name)
    fault = make_fault(original)
    clear_caches()
    try:
        for module in _modules():
            for attr, value in vars(module).items():
                if value is original:
                    monkeypatch.setattr(module, attr, fault)
        moved = _left_pass(capsys)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert moved == expected


# Names that leave PASS only through a committed test of tests/test_cli.py,
# and names that no committed fault turns FAIL yet (see the docstring).
FAILED_ELSEWHERE = {"bockstein-page-dimension", "bockstein-page-summary", "double-loop-log-form"}
NO_FAIL_FAULT = {"cleared-ratio-identity", "akita-counterexample", "eigenvalue-truncation-stable"}


def test_every_check_name_of_all_has_a_fault_or_a_reason(capsys):
    assert main(["all", "--json"]) == 0
    names = {row["check_name"] for row in json.loads(capsys.readouterr().out)}
    failed_here = {
        check for *_, expected in CASES.values() for check, statuses in expected.items() if FAIL in statuses
    }
    assert names == failed_here | FAILED_ELSEWHERE | NO_FAIL_FAULT
    assert not NO_FAIL_FAULT & (failed_here | FAILED_ELSEWHERE)
