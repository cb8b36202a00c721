"""Command-line verification suites with exact-fraction JSON reports.

Every suite emits CheckReport rows.  A row's status is PASS exactly when
its lhs and rhs strings agree; FAIL means the comparison ran and came out
unequal; ERROR means the computation itself raised.  All numeric payloads
are fraction or residue strings, never floats.

JSON mode prints a single top-level array of row objects with sorted keys,
so output is byte-stable for fixed inputs apart from the elapsed_ms timing
field.  Rows are ordered by (check_name, parameters).  Exit status: 0 when
every row is PASS, 1 when any row is FAIL or ERROR, 2 for usage or config
problems.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .bockstein import ModelKind, build_model, verify_closed_form_pages
from .chern import (
    bh_log_identity_check,
    bh_psi_relation_check,
    eigenvalue_closed_form,
    rk_eigenvalue,
    s_eval,
)
from .dyerlashof import akita_counterexample
from .exact import (
    bernoulli,
    bernoulli_recursive,
    choose_k,
    denominator_valuation_check,
    frac_str,
    generating_series_roundtrip,
    is_prime,
    num_denom,
    vp,
)
from .kops import (
    IntegralityViolation,
    artin_hasse_log,
    l_double_loop,
    log_one_minus,
    psi,
    theta,
)
from .polyring import KClass, line_power

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"

DEFAULTS = {
    "primes": (2, 3, 5, 7),
    "n_max": 6,
    "truncation": 8,
    "deg": 2,
    "pages": 3,
}


# Ceilings on the inputs whose cost grows without bound, checked before any
# primality test or suite runs: is_prime is trial division, the akita
# certificate needs B_p (about 3 s at p = 199), r_line_conjugate sums k line
# powers, and the page engine visits every degree up to its bound.  Each
# sits above every documented use (prime 31 and degree bound 119,164 in
# `bockstein --prime 31`).
MAX_PRIME = 200
MAX_K = 1000
MAX_DEGREE_BOUND = 250_000


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def _check_prime_ceiling(p: int) -> None:
    if p > MAX_PRIME:
        raise UsageError(f"p = {p} is above the prime ceiling {MAX_PRIME}")


def _degree_bound(p: int, deg: int, max_deg: int | None) -> int:
    """The page engine's degree bound, 2 deg p^3 unless given, checked
    against its ceiling."""
    bound = 2 * deg * p**3 if max_deg is None else max_deg
    if bound > MAX_DEGREE_BOUND:
        raise UsageError(f"degree bound {bound} is above the ceiling {MAX_DEGREE_BOUND}")
    return bound


@dataclass
class CheckReport:
    check_name: str
    parameters: dict
    status: str
    lhs: str
    rhs: str
    notes: tuple[str, ...]
    elapsed_ms: int

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "parameters": self.parameters,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "notes": list(self.notes),
            "elapsed_ms": self.elapsed_ms,
        }


def run_check(name: str, parameters: dict, thunk, notes: tuple = ()) -> CheckReport:
    """Evaluate one check; the thunk returns (lhs, rhs, extra_notes)."""
    start = time.perf_counter()
    try:
        lhs, rhs, extra = thunk()
    except Exception as err:
        elapsed = int((time.perf_counter() - start) * 1000)
        failure_note = f"{type(err).__name__}: {err}"
        return CheckReport(name, parameters, ERROR, "", "", notes + (failure_note,), elapsed)
    elapsed = int((time.perf_counter() - start) * 1000)
    status = PASS if lhs == rhs else FAIL
    return CheckReport(name, parameters, status, lhs, rhs, notes + tuple(extra), elapsed)


def _param_sort_key(value):
    if isinstance(value, bool):
        return (1, str(value))
    if isinstance(value, int):
        return (0, value)
    return (1, str(value))


def sort_reports(rows: list[CheckReport]) -> list[CheckReport]:
    return sorted(
        rows,
        key=lambda r: (
            r.check_name,
            tuple(sorted((k, _param_sort_key(v)) for k, v in r.parameters.items())),
        ),
    )


def _coeff_string(f: KClass) -> str:
    return "[" + ", ".join(frac_str(c) for c in f.coeffs) + "]"


# ---------------------------------------------------------------------------
# suites


def cmd_bernoulli(n_max: int) -> list[CheckReport]:
    if n_max < 1:
        raise UsageError("n-max must be at least 1")
    rows = []
    for n in range(1, n_max + 1):
        rows.append(
            run_check(
                "bernoulli-value",
                {"n": n},
                lambda n=n: (frac_str(bernoulli(n)), frac_str(bernoulli_recursive(n)), ()),
                notes=("series expansion vs binomial recurrence",),
            )
        )
        rows.append(
            run_check(
                "bernoulli-num-denom",
                {"n": n},
                lambda n=n: (
                    "{}/{}".format(*num_denom(n)),
                    frac_str(bernoulli_recursive(n) / (2 * n)),
                    (),
                ),
            )
        )
    rows.append(
        run_check(
            "bernoulli-series-roundtrip",
            {"n_max": n_max},
            lambda: (
                "consistent" if generating_series_roundtrip(n_max) else "inconsistent",
                "consistent",
                (),
            ),
        )
    )
    return rows


def _eigenvalue_k(p: int, n_max: int, k: int | None) -> int:
    """Check the arguments theorem-a and eigenvalue share and return k,
    chosen by choose_k(p) when not given."""
    _check_prime_ceiling(p)
    if k is not None and k > MAX_K:
        raise UsageError(f"k = {k} is above the ceiling {MAX_K}")
    if not is_prime(p):
        raise UsageError(f"p = {p} is not prime")
    if n_max < 1:
        raise UsageError("n-max must be at least 1")
    if k is None:
        k = choose_k(p)
    if k < 3 or k % 2 == 0 or gcd(k, p) != 1:
        # the conjugate-average class subtracts (k - 1)/2, so k must be odd
        raise UsageError(f"k = {k} must be odd, at least 3 and coprime to p = {p}")
    return k


def cmd_theorem_a(p: int, n_max: int, k: int | None = None) -> list[CheckReport]:
    k = _eigenvalue_k(p, n_max, k)
    valuation_k = choose_k(p)  # the valuation identity always uses the generator
    rows = []
    for n in range(1, n_max + 1):
        rows.append(
            run_check(
                "eigenvalue-closed-form",
                {"p": p, "k": k, "n": n},
                lambda n=n: (
                    frac_str(rk_eigenvalue(p, k, n)),
                    frac_str(eigenvalue_closed_form(k, n)),
                    (),
                ),
                notes=("series route vs (-1)^(n-1) (k^(2n)-1) B_n/2n",),
            )
        )
        rows.append(
            run_check(
                "eigenvalue-p-local",
                {"p": p, "k": k, "n": n},
                lambda n=n: _p_local_thunk(p, k, n),
            )
        )
        rows.append(
            run_check(
                "denominator-valuation",
                {"p": p, "k": valuation_k, "n": n},
                lambda n=n: _valuation_thunk(p, n),
            )
        )
        rows.append(
            run_check(
                "cleared-ratio-identity",
                {"n": n},
                lambda n=n: (
                    frac_str(num_denom(n)[1] * (bernoulli(n) / (2 * n))),
                    frac_str(Fraction(num_denom(n)[0])),
                    (),
                ),
                notes=("denominator times the ratio recovers the numerator exactly",),
            )
        )
    return rows


def _valuation_thunk(p: int, n: int):
    vc = denominator_valuation_check(p, n)
    return f"v={vc.lhs_valuation}", f"v={vc.rhs_valuation}", (vc.note,) if vc.note else ()


def _p_local_thunk(p: int, k: int, n: int):
    valuation = vp(rk_eigenvalue(p, k, n), p).value
    lhs = "p-local" if valuation >= 0 else f"valuation {valuation}"
    return lhs, "p-local", ()


def cmd_eigenvalue(p: int, n_max: int, k: int | None, truncation: int) -> list[CheckReport]:
    k = _eigenvalue_k(p, n_max, k)
    rows = []
    for n in range(1, n_max + 1):
        rows.append(
            run_check(
                "eigenvalue-closed-form",
                {"p": p, "k": k, "n": n},
                lambda n=n: (
                    frac_str(rk_eigenvalue(p, k, n)),
                    frac_str(eigenvalue_closed_form(k, n)),
                    (),
                ),
            )
        )
        wide = max(truncation, 2 * n + 3)
        rows.append(
            run_check(
                "eigenvalue-truncation-stable",
                {"p": p, "k": k, "n": n, "truncation": wide},
                lambda n=n, wide=wide: (
                    frac_str(rk_eigenvalue(p, k, n)),
                    frac_str(rk_eigenvalue(p, k, n, truncation=wide)),
                    (),
                ),
                notes=("default window against a wider truncation",),
            )
        )
    return rows


def cmd_akita(p: int) -> list[CheckReport]:
    _check_prime_ceiling(p)
    if p == 2 or not is_prime(p):
        raise UsageError("the counterexample certificate needs an odd prime")

    def thunk():
        certificate = akita_counterexample(p)
        verdict = certificate.verdict if certificate.passed else "certificate incomplete"
        return (
            verdict,
            "conjecture fails mod p",
            certificate.notes
            + (
                f"s-side pairing {certificate.s_pairing}, kappa side "
                f"{certificate.kappa_side}, numerator residue "
                f"{certificate.num_residue} mod {p}",
            ),
        )

    return [run_check("akita-counterexample", {"p": p}, thunk)]


_SIGN_NOTE = (
    "computed double-loop logarithm is x - psi^p(x), with multiplier "
    "1 - p^n on weight-n numbers; the stated + variant (x + psi^p(x), "
    "multiplier 1 + p^n) does not match the defining sum as evaluated "
    "here; both multipliers are congruent to 1 mod p"
)


def _artin_hasse_samples(truncation: int) -> list[tuple[str, KClass]]:
    u = line_power(1, truncation) - 1
    return [("u", u), ("u^2", u * u), ("u+u^2", u + u * u)]


def cmd_artin_hasse(p: int, truncation: int) -> list[CheckReport]:
    _check_prime_ceiling(p)
    if not is_prime(p):
        raise UsageError(f"p = {p} is not prime")
    if truncation < 2:
        # below 2 the samples u^2 and u+u^2 are zero or equal to u
        raise UsageError("truncation must be at least 2")
    rows = []
    samples = _artin_hasse_samples(truncation)
    for label, x in samples:
        for t in range(0, 4):
            rows.append(
                run_check(
                    "theta-integrality",
                    {"p": p, "t": t, "N": truncation, "x": label},
                    lambda t=t, x=x: _theta_thunk(p, t, x),
                )
            )
    for label, x in samples:
        rows.append(
            run_check(
                "p-local-log-closed-form",
                {"p": p, "N": truncation, "x": label},
                lambda x=x: _log_closed_form_thunk(p, x),
                notes=(
                    "defining double sum vs (1 - psi^p/p) log(1-x); "
                    "global sign +1",
                ),
            )
        )
    for label, f in (("L", line_power(1, truncation)), ("u", line_power(1, truncation) - 1)):
        rows.append(
            run_check(
                "double-loop-log-form",
                {"p": p, "N": truncation, "f": label},
                lambda f=f: (
                    _coeff_string(l_double_loop(p, f)),
                    _coeff_string(f - psi(p, f)),
                    (),
                ),
                notes=(_SIGN_NOTE,),
            )
        )
    u = line_power(1, truncation) - 1
    for n in range(1, min(6, truncation) + 1):
        rows.append(
            run_check(
                "double-loop-weight-scalar",
                {"p": p, "n": n},
                lambda n=n: (
                    frac_str(s_eval(n, l_double_loop(p, u))),
                    frac_str(Fraction(1 - p**n)),
                    (f"1 - {p}^{n} = {1 - p ** n} is congruent to 1 mod {p}",),
                ),
            )
        )
    return rows


def _theta_thunk(p: int, t: int, x: KClass):
    try:
        theta(p, t, x)
    except IntegralityViolation as err:
        return (
            f"coefficient {err.coefficient} of u^{err.index} not divisible by {p}^{t}",
            "p-integral",
            (),
        )
    return "p-integral", "p-integral", ()


def _log_closed_form_thunk(p: int, x: KClass):
    lhs = artin_hasse_log(p, x)
    logarithm = log_one_minus(x)
    rhs = logarithm - psi(p, logarithm) / p
    return _coeff_string(lhs), _coeff_string(rhs), ()


def cmd_bockstein(p: int, deg: int, pages: int, max_deg: int | None) -> list[CheckReport]:
    _check_prime_ceiling(p)
    max_deg = _degree_bound(p, deg, max_deg)
    if p == 2 or not is_prime(p):
        raise UsageError("the page engine needs an odd prime")
    if deg <= 0 or deg % 2 != 0:
        raise UsageError(f"deg = {deg} must be a positive even integer")
    if pages < 2:
        raise UsageError("pages must be at least 2")
    if max_deg < deg:
        raise UsageError("max-deg must be at least deg")
    rows = []
    for kind, kind_label in ((ModelKind.TYPE1, "type1"), (ModelKind.TYPE2, "type2")):
        rows += _bockstein_kind_rows(kind, kind_label, p, deg, pages, max_deg)
    return rows


def _bockstein_kind_rows(
    kind: ModelKind, kind_label: str, p: int, deg: int, pages: int, max_deg: int
) -> list[CheckReport]:
    """Summary and dimension rows of one model.  The first summary row
    builds and verifies the model, so the page engine is timed inside it and
    a raise is an ERROR row; the other rows read its report."""
    params = {"p": p, "deg": deg, "kind": kind_label}
    found = []

    def summary(page):
        if not found:
            found.append(verify_closed_form_pages(build_model(kind, p, deg, max_deg), pages))
        report = found[0]
        notes = report.notes if page == 2 else ()
        return f"{report.mismatches[page]} mismatches", "0 mismatches", notes

    first = run_check("bockstein-page-summary", {**params, "page": 2}, lambda: summary(2))
    if not found:
        # the page engine raised: every summary row carries its error
        return [replace(first, parameters={**params, "page": page}) for page in range(2, pages + 1)]
    rows = [first] + [
        run_check("bockstein-page-summary", {**params, "page": page}, lambda page=page: summary(page))
        for page in range(3, pages + 1)
    ]
    for page, degree, computed, predicted in found[0].rows:
        rows.append(
            run_check(
                "bockstein-page-dimension",
                {**params, "page": page, "degree": degree},
                lambda computed=computed, predicted=predicted: (str(computed), str(predicted), ()),
            )
        )
    return rows


def cmd_series(order: int) -> list[CheckReport]:
    """The two series identities behind the eigenvalue computation."""
    if order < 2 or order % 2 != 0:
        raise UsageError("order must be an even integer >= 2")
    rows = [
        run_check(
            "series-log-bernoulli",
            {"order": order},
            lambda: _series_thunk(bh_log_identity_check(order)),
        )
    ]
    for k in (2, 3, 5):
        rows.append(
            run_check(
                "series-psi-average",
                {"k": k, "order": order},
                lambda k=k: _series_thunk(bh_psi_relation_check(k, order)),
            )
        )
    return rows


def _series_thunk(check):
    if check.passed:
        return "coefficients agree", "coefficients agree", ()
    return (
        f"first mismatch at order {check.first_mismatch}",
        "coefficients agree",
        (),
    )


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def cmd_all(config: dict) -> list[CheckReport]:
    if "prime" in config and "primes" in config:
        raise UsageError("configuration keys 'prime' and 'primes' are exclusive")
    settings = dict(DEFAULTS)
    for key, value in config.items():
        if key == "prime":
            key, value = "primes", [value]
        if key not in settings:
            raise UsageError(f"unknown configuration key {key!r}")
        settings[key] = value
    for key in ("n_max", "truncation", "deg", "pages"):
        if not _is_int(settings[key]):
            raise UsageError(f"configuration key {key!r} must be an integer")
    primes = settings["primes"]
    if not isinstance(primes, (list, tuple)) or not primes or not all(map(_is_int, primes)):
        raise UsageError("configuration key 'primes' must be a non-empty list of integers")
    if len(set(primes)) != len(primes):
        raise UsageError("configuration key 'primes' must not repeat a prime")
    for p in primes:
        _check_prime_ceiling(p)
        if not is_prime(p):
            raise UsageError(f"configured prime {p} is not prime")
        if p != 2:
            _degree_bound(p, settings["deg"], None)
    n_max = settings["n_max"]
    truncation = settings["truncation"]
    deg = settings["deg"]
    pages = settings["pages"]
    rows = cmd_bernoulli(n_max)
    rows += cmd_series(30)
    for p in primes:
        rows += cmd_theorem_a(p, n_max)
        rows += cmd_eigenvalue(p, n_max, None, truncation)
        rows += cmd_artin_hasse(p, truncation)
        if p != 2:
            rows += cmd_akita(p)
            rows += cmd_bockstein(p, deg, pages, None)
    return rows


# ---------------------------------------------------------------------------
# wiring


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from err
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kverify",
        description="Exact desk-scale checks for K-theory operation identities, "
        "Bernoulli valuations, and mod-p homology pairings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON array of report rows")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bernoulli = sub.add_parser("bernoulli", parents=[common])
    p_bernoulli.add_argument("--n-max", type=_positive_int, default=DEFAULTS["n_max"])

    p_theorem = sub.add_parser("theorem-a", parents=[common])
    p_theorem.add_argument("--prime", type=_positive_int, default=3)
    p_theorem.add_argument("--k", type=_positive_int, default=None)
    p_theorem.add_argument("--n-max", type=_positive_int, default=DEFAULTS["n_max"])

    p_eigen = sub.add_parser("eigenvalue", parents=[common])
    p_eigen.add_argument("--prime", type=_positive_int, default=3)
    p_eigen.add_argument("--k", type=_positive_int, default=None)
    p_eigen.add_argument("--n-max", type=_positive_int, default=DEFAULTS["n_max"])
    p_eigen.add_argument("--truncation", type=_positive_int, default=DEFAULTS["truncation"])

    p_akita = sub.add_parser("akita", parents=[common])
    p_akita.add_argument("--prime", type=_positive_int, default=3)

    p_artin = sub.add_parser("artin-hasse", parents=[common])
    p_artin.add_argument("--prime", type=_positive_int, default=3)
    p_artin.add_argument("--truncation", type=_positive_int, default=DEFAULTS["truncation"])

    p_bock = sub.add_parser("bockstein", parents=[common])
    p_bock.add_argument("--prime", type=_positive_int, default=3)
    p_bock.add_argument("--deg", type=_positive_int, default=DEFAULTS["deg"])
    p_bock.add_argument("--pages", type=_positive_int, default=DEFAULTS["pages"])
    p_bock.add_argument("--max-deg", type=_positive_int, default=None)

    p_all = sub.add_parser("all", parents=[common])
    p_all.add_argument("--config", default=None, help="flat JSON object of option overrides")

    return parser


def _rows_for(args) -> list[CheckReport]:
    if args.command == "bernoulli":
        return cmd_bernoulli(args.n_max)
    if args.command == "theorem-a":
        return cmd_theorem_a(args.prime, args.n_max, args.k)
    if args.command == "eigenvalue":
        return cmd_eigenvalue(args.prime, args.n_max, args.k, args.truncation)
    if args.command == "akita":
        return cmd_akita(args.prime)
    if args.command == "artin-hasse":
        return cmd_artin_hasse(args.prime, args.truncation)
    if args.command == "bockstein":
        return cmd_bockstein(args.prime, args.deg, args.pages, args.max_deg)
    if args.command == "all":
        config = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    config = json.load(handle)
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
                raise UsageError(f"cannot read config {args.config}: {err}") from err
            if not isinstance(config, dict):
                raise UsageError("config must be a flat JSON object")
        return cmd_all(config)
    raise UsageError(f"unknown command {args.command!r}")


def _print_table(rows: list[CheckReport]) -> None:
    for row in rows:
        params = " ".join(f"{k}={v}" for k, v in sorted(row.parameters.items()))
        line = f"{row.status:5}  {row.check_name:28} {params}"
        if row.status != PASS:
            line += f"  lhs={row.lhs} rhs={row.rhs}"
        print(line)
        for note in row.notes:
            print(f"       note: {note}")
    failed = sum(r.status != PASS for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = sort_reports(_rows_for(args))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([row.to_dict() for row in rows], sort_keys=True, indent=2))
    else:
        _print_table(rows)
    return 0 if all(row.status == PASS for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
