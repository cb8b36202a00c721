"""Command-line verification suites with exact-fraction JSON reports.

Every suite emits CheckReport rows.  A row's status is PASS exactly when
its lhs and rhs strings agree; FAIL means the comparison ran and came out
unequal; ERROR means the computation itself raised.  All numeric payloads
are fraction or residue strings, never floats.

The argv is a command of COMMANDS, then its options in any order: --json,
-h or --help, and --NAME VALUE or --NAME=VALUE for each setting the
command takes (`all` takes --config PATH instead).  Names are spelled out
in full and a repeated option keeps its last value.  parse_argv reads it
straight from the table, and every bad argv is a UsageError.

Every row of one check name has the same parameter names, each always an
int or always a str.  So rows are ordered by check_name, then by their
parameter values in report order (sorted by name), integers numerically,
and each check name gets one parameter order and one JSON layout per status.

JSON mode prints a single top-level array of row objects in the layout of
json.dumps(rows, sort_keys=True, indent=2), written in pieces of about 64
KB, so output is byte-stable for fixed inputs apart from the elapsed_ms
timing field.  Exit status: 0 when every row is PASS, 1 when any row is
FAIL or ERROR, 2 for usage or config problems, and 141 (128 + SIGPIPE) when
the program's reader closes stdout early; main returns it and never raises
SystemExit.

Every command shares the exact module; each suite imports the other modules
it runs when it starts, so `bernoulli` loads only exact and series, and
`bockstein` adds only the page engine.  `theorem-a` and `eigenvalue` add
series, polyring and chern, `akita` those and dyerlashof, and only
`artin-hasse` and `all` load the operations of kops.  The JSON output takes
only the C string encoder, so no command but `all --config` imports the
json package.

Run as the program (`python -m kverify.cli` or the `kverify` script), main
gets no argv and reads sys.argv.  It first calls gc.freeze(): what is
loaded by then lives until exit, so the full collections at exit need not
scan it again.  Then it turns the cyclic collector off for the run: the
rows, classes and series a run builds hold no reference cycles, and every
collection a run made with it on freed nothing.  A reader that closes
stdout early ends it with status 141 and no traceback: stdout is pointed
at os.devnull, so the flush at exit cannot fail again.  An in-process
call, main(argv), leaves the collector as it finds it and lets
BrokenPipeError through.

Each text a row reports has one source: str(KClass) writes a class's
coefficients, a ModelKind's value is a bockstein row's `kind`, and the keys
of an `all` config are the names of its settings in COMMANDS.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from _json import encode_basestring_ascii
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import itemgetter
from typing import NamedTuple

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

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"

DEFAULTS = {
    "primes": (2, 3, 5, 7),
    "prime": 3,
    "k": None,
    "n_max": 6,
    "truncation": 8,
    "deg": 2,
    "pages": 3,
    "max_deg": None,
}

# (minimum, ceiling) of each setting; an entry of `primes` is a `prime`.
# The ceilings bound the inputs whose cost grows without bound, each above
# every documented use: is_prime is trial division and the akita
# certificate needs B_p, a series of order 2p; r_line_conjugate inverts a
# row of binomial coefficients C(k, j), whose entries grow with k, at each
# window; `bernoulli`, `theorem-a` and `eigenvalue` grow with n_max,
# `artin-hasse` with the truncation and `bockstein` with the pages; max_deg
# bounds the page engine's degrees, given or its default 2 deg p^3 (119,164
# in `bockstein --prime 31`), and deg cannot exceed it; the engine walks a
# few runs per page, but the report has a row per degree of nonzero
# homology.  The times of the runs at the ceilings are in README's table of
# input ceilings, measured by tools/measure.py.
LIMITS = {
    "prime": (2, 200),
    "k": (3, 1000),
    "n_max": (1, 200),
    "truncation": (1, 128),
    "deg": (2, 250_000),
    "pages": (2, 64),
    "max_deg": (1, 250_000),
}


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def _default_max_deg(deg: int, p: int) -> int:
    """The page engine's degree bound when max_deg is not given."""
    return 2 * deg * p**3


def check_settings(command: str, settings: dict) -> None:
    """Raise UsageError unless the command's suite can run on the settings.

    Every input rule is here.  Subcommand argv and `all --config` both pass
    through it before any suite runs, and every value is checked, also one
    that no suite reads at the given primes.  The ceilings come before the
    primality test, which is trial division.
    """
    primes = []
    for key, value in settings.items():
        if key == "primes":
            if not isinstance(value, (list, tuple)) or not value or not all(map(_is_int, value)):
                raise UsageError("configuration key 'primes' must be a non-empty list of integers")
            if len(set(value)) != len(value):
                raise UsageError("configuration key 'primes' must not repeat a prime")
            key, values = "prime", value
        elif value is None and DEFAULTS[key] is None:
            continue
        elif not _is_int(value):
            raise UsageError(f"configuration key {key!r} must be an integer")
        else:
            values = [value]
        minimum, ceiling = LIMITS[key]
        for number in values:
            if number < minimum:
                raise UsageError(f"{key} must be at least {minimum}")
            if number > ceiling:
                raise UsageError(f"{key} = {number} is above the ceiling {ceiling}")
        if key == "prime":
            primes = values
    for p in primes:
        if not is_prime(p):
            raise UsageError(f"p = {p} is not prime")
    if command in ("akita", "bockstein") and 2 in primes:
        raise UsageError(f"{command} needs an odd prime")
    k = settings.get("k")
    if k is not None and k % 2 == 0:
        # the conjugate-average class subtracts (k - 1)/2
        raise UsageError(f"k = {k} must be odd")
    if k is not None and gcd(k, primes[0]) != 1:
        raise UsageError(f"k = {k} must be coprime to p = {primes[0]}")
    if "deg" in settings and settings["deg"] % 2:
        raise UsageError(f"deg = {settings['deg']} must be even")
    max_deg = settings.get("max_deg")
    if max_deg is not None and max_deg < settings["deg"]:
        raise UsageError("max_deg must be at least deg")
    if command in ("bockstein", "all") and max_deg is None:
        ceiling = LIMITS["max_deg"][1]
        # `all` runs no page engine at p = 2
        for bound in [_default_max_deg(settings["deg"], p) for p in primes if p != 2]:
            if bound > ceiling:
                raise UsageError(f"degree bound {bound} is above the ceiling {ceiling}")
    if command in ("artin-hasse", "all") and settings["truncation"] < 2:
        # below 2 the samples u^2 and u+u^2 are zero or equal to u
        raise UsageError("truncation must be at least 2")


class CheckReport(NamedTuple):
    check_name: str
    parameters: dict
    status: str
    lhs: str
    rhs: str
    notes: tuple[str, ...]
    elapsed_ms: int


_new_row = tuple.__new__  # CheckReport's own __new__ is a Python call


def make_rows(name: str, comparisons, notes: tuple = (), elapsed_ms: int = 0) -> list[CheckReport]:
    """The rows of comparisons that ran, one per (parameters, lhs, rhs):
    PASS exactly when lhs == rhs."""
    return [
        _new_row(
            CheckReport,
            (name, parameters, PASS if lhs == rhs else FAIL, lhs, rhs, notes, elapsed_ms),
        )
        for parameters, lhs, rhs in comparisons
    ]


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
    (row,) = make_rows(name, [(parameters, lhs, rhs)], notes + tuple(extra), elapsed)
    return row


def _report_order(parameters: dict):
    """The names of a check's parameters in report order (sorted), and a
    function from the parameters of one of its rows to their values in that
    order, as a tuple.  Each report computes it once per check name."""
    order = tuple(sorted(parameters))
    if len(order) > 1:
        return order, itemgetter(*order)
    return order, lambda values: tuple(map(values.__getitem__, order))


_CHECK_NAME = itemgetter(0)
_PARAMETERS = itemgetter(1)


def sort_reports(rows: list[CheckReport]) -> list[CheckReport]:
    """The rows ordered by (check_name, sorted(parameters.items())).

    Suites emit each check name's rows in runs, so the rows are gathered per
    check name in one step a run, and each check's rows sort on the tuple of
    their parameter values in report order."""
    checks = {}
    for name, run in groupby(rows, _CHECK_NAME):
        checks.setdefault(name, []).extend(run)
    ordered = []
    for name in sorted(checks):
        group = checks[name]
        values = _report_order(group[0].parameters)[1]
        keys = list(map(values, map(_PARAMETERS, group)))
        ordered += map(group.__getitem__, sorted(range(len(group)), key=keys.__getitem__))
    return ordered


# ---------------------------------------------------------------------------
# suites


def cmd_bernoulli(n_max: int) -> list[CheckReport]:
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


def _closed_form_rows(p: int, k: int, n_max: int, notes: tuple = ()) -> list[CheckReport]:
    from .chern import eigenvalue_closed_form, rk_eigenvalue

    return [
        run_check(
            "eigenvalue-closed-form",
            {"p": p, "k": k, "n": n},
            lambda n=n: (frac_str(rk_eigenvalue(k, n)), frac_str(eigenvalue_closed_form(k, n)), ()),
            notes=notes,
        )
        for n in range(1, n_max + 1)
    ]


def cmd_theorem_a(p: int, k: int | None, n_max: int) -> list[CheckReport]:
    from .chern import rk_eigenvalue

    valuation_k = choose_k(p)  # the valuation identity always uses the generator
    k = k or valuation_k

    def p_local(n):
        valuation = vp(rk_eigenvalue(k, n), p)
        lhs = "p-local" if valuation >= 0 else f"valuation {valuation}"
        return lhs, "p-local", ()

    rows = _closed_form_rows(p, k, n_max, notes=("series route vs (-1)^(n-1) (k^(2n)-1) B_n/2n",))
    for n in range(1, n_max + 1):
        rows.append(
            run_check(
                "eigenvalue-p-local",
                {"p": p, "k": k, "n": n},
                lambda n=n: p_local(n),
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


def cmd_eigenvalue(p: int, k: int | None, n_max: int, truncation: int) -> list[CheckReport]:
    from .chern import rk_eigenvalue

    k = k or choose_k(p)
    rows = _closed_form_rows(p, k, n_max)
    for n in range(1, n_max + 1):
        wide = max(truncation, 2 * n + 3)
        rows.append(
            run_check(
                "eigenvalue-truncation-stable",
                {"p": p, "k": k, "n": n, "truncation": wide},
                lambda n=n, wide=wide: (
                    frac_str(rk_eigenvalue(k, n)),
                    frac_str(rk_eigenvalue(k, n, truncation=wide)),
                    (),
                ),
                notes=("default window against a wider truncation",),
            )
        )
    return rows


def cmd_akita(p: int) -> list[CheckReport]:
    from .dyerlashof import akita_counterexample

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

    return [run_check("akita-counterexample", {"p": p}, thunk)]


_SIGN_NOTE = (
    "computed double-loop logarithm is x - psi^p(x), with multiplier "
    "1 - p^n on weight-n numbers; the stated + variant (x + psi^p(x), "
    "multiplier 1 + p^n) does not match the defining sum as evaluated "
    "here; both multipliers are congruent to 1 mod p"
)


def cmd_artin_hasse(p: int, truncation: int) -> list[CheckReport]:
    from .chern import s_eval
    from .kops import (
        IntegralityViolation,
        artin_hasse_log,
        l_double_loop,
        log_one_minus,
        psi,
        theta,
    )
    from .polyring import Claim, line_power

    def theta_integrality(t, x):
        try:
            result = theta(p, t, x)
        except IntegralityViolation as err:
            return (
                f"coefficient {err.coefficient} of u^{err.index} not divisible by {p}^{t}",
                "p-integral",
                (),
            )
        if not Claim(p).admits(result.den):
            return f"denominator {result.den}", "p-integral", ()
        return "p-integral", "p-integral", ()

    def log_closed_form(x):
        lhs = artin_hasse_log(p, x)
        logarithm = log_one_minus(x)
        rhs = logarithm - psi(p, logarithm) / p
        return str(lhs), str(rhs), ()

    rows = []
    line = line_power(1, truncation)
    u = line - 1
    samples = [("u", u), ("u^2", u * u), ("u+u^2", u + u * u)]
    for label, x in samples:
        for t in range(0, 4):
            rows.append(
                run_check(
                    "theta-integrality",
                    {"p": p, "t": t, "N": truncation, "x": label},
                    lambda t=t, x=x: theta_integrality(t, x),
                )
            )
    for label, x in samples:
        rows.append(
            run_check(
                "p-local-log-closed-form",
                {"p": p, "N": truncation, "x": label},
                lambda x=x: log_closed_form(x),
                notes=(
                    "defining double sum vs (1 - psi^p/p) log(1-x); "
                    "global sign +1",
                ),
            )
        )
    for label, f in (("L", line), ("u", u)):
        rows.append(
            run_check(
                "double-loop-log-form",
                {"p": p, "N": truncation, "f": label},
                lambda f=f: (
                    str(l_double_loop(p, f)),
                    str(f - psi(p, f)),
                    (),
                ),
                notes=(_SIGN_NOTE,),
            )
        )
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


def cmd_bockstein(p: int, deg: int, pages: int, max_deg: int | None) -> list[CheckReport]:
    """Summary and dimension rows of each model.  Only the page-2 summary
    row runs the page engine, so it is timed inside that row and a raise is
    an ERROR row on every summary page; the other rows read its report."""
    from .bockstein import ModelKind, build_model, verify_closed_form_pages

    max_deg = max_deg or _default_max_deg(deg, p)
    rows = []
    for kind in ModelKind:
        label = kind.value  # read once: Enum.value is a Python-level property
        params = {"p": p, "deg": deg, "kind": label}
        found = []

        def page_two():
            found.append(verify_closed_form_pages(build_model(kind, p, deg, max_deg), pages))
            return f"{found[0].mismatches[2]} mismatches", "0 mismatches", found[0].notes

        first = run_check("bockstein-page-summary", {**params, "page": 2}, page_two)
        if not found:
            # the page engine raised: every summary row carries its error
            rows += [first._replace(parameters={**params, "page": n}) for n in range(2, pages + 1)]
            continue
        report = found[0]
        rows.append(first)
        rows += make_rows(
            "bockstein-page-summary",
            (
                ({**params, "page": page}, f"{report.mismatches[page]} mismatches", "0 mismatches")
                for page in range(3, pages + 1)
            ),
        )
        rows += make_rows(
            "bockstein-page-dimension",
            (
                (
                    {"p": p, "deg": deg, "kind": label, "page": page, "degree": degree},
                    str(computed),
                    str(predicted),
                )
                for page, degree, computed, predicted in report.rows
            ),
        )
    return rows


def cmd_series(order: int) -> list[CheckReport]:
    """The two series identities behind the eigenvalue computation."""
    from .chern import bh_log_identity_check, bh_psi_relation_check

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


def cmd_all(primes, n_max: int, truncation: int, deg: int, pages: int) -> list[CheckReport]:
    rows = cmd_bernoulli(n_max) + cmd_series(30)
    for p in primes:
        rows += cmd_theorem_a(p, None, n_max)
        rows += cmd_eigenvalue(p, None, n_max, truncation)
        rows += cmd_artin_hasse(p, truncation)
        if p != 2:
            rows += cmd_akita(p)
            rows += cmd_bockstein(p, deg, pages, None)
    return rows


# Each subcommand's suite and the settings it takes, in the order of its
# options and of the suite's parameters.  `all` reads its settings from
# --config, the others from one option per setting.
COMMANDS = {
    "bernoulli": (cmd_bernoulli, ("n_max",)),
    "theorem-a": (cmd_theorem_a, ("prime", "k", "n_max")),
    "eigenvalue": (cmd_eigenvalue, ("prime", "k", "n_max", "truncation")),
    "akita": (cmd_akita, ("prime",)),
    "artin-hasse": (cmd_artin_hasse, ("prime", "truncation")),
    "bockstein": (cmd_bockstein, ("prime", "deg", "pages", "max_deg")),
    "all": (cmd_all, ("primes", "n_max", "truncation", "deg", "pages")),
}


# ---------------------------------------------------------------------------
# wiring


_HELP = ("-h", "--help")


def _flags(command: str) -> dict:
    """{option: setting} of a command; `all` reads its settings from --config."""
    names = ("config",) if command == "all" else COMMANDS[command][1]
    return {"--" + name.replace("_", "-"): name for name in names}


def _usage() -> str:
    lines = ["usage: kverify COMMAND [--json] [--NAME VALUE | --NAME=VALUE ...]", "", "commands:"]
    for command in COMMANDS:
        options = " ".join(f"[{flag} {name.upper()}]" for flag, name in _flags(command).items())
        lines.append(f"  {command:12} {options}")
    lines += [
        "",
        "--json emits a JSON array of report rows; --config names a flat JSON object",
        "of option overrides; every other option takes an integer.",
    ]
    return "\n".join(lines) + "\n"


def _integer(flag: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{flag} takes an integer, not {value!r}") from None


def parse_argv(argv: list[str]) -> tuple[str, dict, bool] | None:
    """(command, {setting: value} of the options given, whether --json
    was given) from argv, or None when -h or --help asks for the usage.

    argv is a command of COMMANDS, then --json, -h, --help and, for each
    setting of the command, --NAME VALUE or --NAME=VALUE, in any order.  A
    repeated option keeps its last value.  Anything else raises UsageError."""
    if not argv:
        raise UsageError("no command given (see kverify --help)")
    command, *rest = argv
    if command in _HELP:
        return None
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; the commands are {', '.join(COMMANDS)}")
    flags = _flags(command)
    values = {}
    as_json = False
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return None
        if token == "--json":
            as_json = True
            continue
        flag, equals, value = token.partition("=")
        name = flags.get(flag)
        if name is None:
            known = ", ".join([*flags, "--json"])
            raise UsageError(f"unknown argument {token!r} for {command}; its options are {known}")
        if not equals:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{flag} needs a value")
        values[name] = value if name == "config" else _integer(flag, value)
    return command, values, as_json


def _config_settings(path: str | None, names) -> dict:
    """The settings of `all`: the defaults, overridden by the flat JSON
    object in the file at path.  Only check_settings judges the values."""
    config = {}
    if path is not None:
        import json  # the one JSON input

        try:
            with open(path, "r", encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            raise UsageError(f"cannot read config {path}: {err}") from err
        if not isinstance(config, dict):
            raise UsageError("config must be a flat JSON object")
    for key in config:
        if key not in names:
            raise UsageError(f"unknown configuration key {key!r}")
    return {name: config.get(name, DEFAULTS[name]) for name in names}


def _rows_for(command: str, values: dict) -> list[CheckReport]:
    suite, names = COMMANDS[command]
    if command == "all":
        settings = _config_settings(values.get("config"), names)
    else:
        settings = {name: values.get(name, DEFAULTS[name]) for name in names}
    check_settings(command, settings)
    return suite(*settings.values())


def _print_table(rows: list[CheckReport]) -> None:
    orders = {}
    for row in rows:
        entry = orders.get(row.check_name)
        if entry is None:
            entry = orders[row.check_name] = _report_order(row.parameters)
        order, values = entry
        params = " ".join(map("{}={}".format, order, values(row.parameters)))
        line = f"{row.status:5}  {row.check_name:28} {params}"
        if row.status != PASS:
            line += f"  lhs={row.lhs} rhs={row.rhs}"
        print(line)
        for note in row.notes:
            print(f"       note: {note}")
    failed = sum(r.status != PASS for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")


_PIECE = 1 << 16  # characters of JSON text per write


def _json_pieces(rows: list[CheckReport], piece: int = _PIECE):
    """The rows in exactly the layout of json.dumps([row._asdict() for row
    in rows], sort_keys=True, indent=2), as consecutive pieces of text: each
    piece but the last holds whole rows of at least `piece` characters.
    json.dumps takes its pure-Python encoder whenever indent is set; this
    takes the C string encoder that json.dumps calls under ensure_ascii.

    Each (check name, status) gets one %-format layout, so a row encodes
    only lhs, rhs, its str parameter values and elapsed_ms; a notes block
    is encoded once per notes tuple."""
    if not rows:
        yield "[]"
        return
    enc = encode_basestring_ascii
    layouts = {}
    blocks = {}
    out = []
    size = 0
    lead = "[\n"
    for name, parameters, status, lhs, rhs, notes, elapsed_ms in rows:
        layout = layouts.get((name, status))
        if layout is None:
            layout = layouts[name, status] = _json_layout(name, parameters, status)
        form, read, strings = layout
        block = blocks.get(notes)
        if block is None:
            block = blocks[notes] = _json_items(map(enc, notes))
        values = read(parameters)
        if strings:
            values = list(values)
            for i in strings:
                values[i] = enc(values[i])
        text = form % (elapsed_ms, enc(lhs), block, *values, enc(rhs))
        out.append(text)
        size += len(text)
        if size >= piece:
            yield lead + ",\n".join(out)
            lead, out, size = ",\n", [], 0
    yield (lead + ",\n".join(out) if out else "") + "\n]"


def _json_items(items) -> str:
    # the inside of a JSON list or object that is a field of a row
    items = ",\n      ".join(items)
    return "\n      " + items + "\n    " if items else ""


def _json_layout(name: str, parameters: dict, status: str):
    """The %-format text of a check's rows of one status, the function that
    reads their parameter values in report order, and the positions of the
    str values among them.  The slots are elapsed_ms, lhs, the notes block,
    the parameter values in that order and rhs."""
    order, values = _report_order(parameters)
    strings = tuple(i for i, k in enumerate(order) if isinstance(parameters[k], str))

    def literal(text):
        return encode_basestring_ascii(text).replace("%", "%%")

    params = _json_items(
        literal(k) + (": %s" if i in strings else ": %d") for i, k in enumerate(order)
    )
    text = (
        f'  {{\n    "check_name": {literal(name)},\n'
        '    "elapsed_ms": %d,\n'
        '    "lhs": %s,\n'
        '    "notes": [%s],\n'
        f'    "parameters": {{{params}}},\n'
        '    "rhs": %s,\n'
        f'    "status": {literal(status)}\n  }}'
    )
    return text, values, strings


def main(argv=None) -> int:
    program = argv is None
    if program:
        gc.freeze()
        gc.disable()
        argv = sys.argv[1:]
    try:
        parsed = parse_argv(argv)
        if parsed is None:
            sys.stdout.write(_usage())
            return 0
        command, values, as_json = parsed
        rows = sort_reports(_rows_for(command, values))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if as_json:
            # large pieces: with PYTHONUNBUFFERED each write is a system call
            write = sys.stdout.write
            for piece in _json_pieces(rows):
                write(piece)
            write("\n")
        else:
            _print_table(rows)
        if program:
            sys.stdout.flush()
    except BrokenPipeError:
        if not program:
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0 if all(row.status == PASS for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
