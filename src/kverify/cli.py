"""Command-line verification suites with exact-fraction JSON reports.

Every suite emits CheckReport rows.  A row's status is PASS exactly when
its lhs and rhs strings agree; FAIL means the comparison ran and came out
unequal; ERROR means the computation itself raised.  All numeric payloads
are fraction or residue strings, never floats.

JSON mode prints a single top-level array of row objects in the layout of
json.dumps(rows, sort_keys=True, indent=2), so output is byte-stable for
fixed inputs apart from the elapsed_ms timing field.  Rows are ordered by
(check_name, parameters).  Exit status: 0 when every row is PASS, 1 when
any row is FAIL or ERROR, 2 for usage or config problems.

Every command shares the exact module; each suite imports the other modules
it runs when it starts, so `bernoulli` loads only exact and series, and
`bockstein` adds only the page engine.  The JSON output takes only the C
string encoder, so no command but `all --config` imports the json package.
"""

from __future__ import annotations

import argparse
import sys
import time
from _json import encode_basestring_ascii
from fractions import Fraction
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
# every documented use (one fresh process each, 2-vCPU host, Python 3.11.7):
# is_prime is trial division and the akita certificate needs B_p, a series
# of order 2p (0.3-0.4 s at p = 199), r_line_conjugate inverts a row of
# binomial coefficients C(k, j), whose entries grow with k, at each window
# (`eigenvalue --prime 5 --k 999 --n-max 200` 11-13 s, `theorem-a` at the
# same inputs 5.5-6.5 s), `bernoulli`, `theorem-a` and `eigenvalue` at
# `--n-max 200` take 0.3-0.45, 0.6-1.0 and 0.9-1.25 s (`theorem-a --prime
# 199` 0.6-0.8 s; the host's speed varies by about 1.6x), `artin-hasse
# --truncation 128` 0.3-0.45 s (0.45-0.6 s at --prime 199) and `bockstein
# --prime 31 --pages 64` 0.1-0.17 s.  max_deg bounds the page engine's
# degrees, given or its default 2 deg p^3 (119,164 in `bockstein --prime
# 31`), and deg cannot exceed it; the engine walks a few runs per page, but
# the report has a row per degree of nonzero homology, so `bockstein --prime
# 3 --max-deg 250000 --pages 64` (125,242 rows, 33 MB) takes 0.85-1.5 s.
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


def make_row(
    name: str, parameters: dict, lhs: str, rhs: str, notes: tuple = (), elapsed_ms: int = 0
) -> CheckReport:
    """A row of a comparison that ran: PASS exactly when lhs == rhs."""
    return CheckReport(name, parameters, PASS if lhs == rhs else FAIL, lhs, rhs, notes, elapsed_ms)


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
    return make_row(name, parameters, lhs, rhs, notes + tuple(extra), elapsed)


def _report_order(parameters: dict):
    """The names of a row's parameters in report order (sorted), and a
    function from the parameters of a row with those names to their values
    in that order, as a tuple.  Each report computes it once per row shape."""
    order = tuple(sorted(parameters))
    if len(order) > 1:
        return order, itemgetter(*order)
    return order, lambda values: tuple(map(values.__getitem__, order))


def sort_reports(rows: list[CheckReport]) -> list[CheckReport]:
    """The rows ordered by (check_name, sorted(parameters.items())).

    The key is that one flattened, [check_name, k1, v1, k2, v2, ...], which
    orders any two rows alike, also two of one check name whose parameters
    have different names.  Within one check name each parameter is always
    an int or always a str, so the values compare directly and integers
    sort numerically."""
    shapes = {}

    def key(row):
        parameters = row.parameters
        shape = (row.check_name, *parameters)
        entry = shapes.get(shape)
        if entry is None:
            order, values = _report_order(parameters)
            flat = [row.check_name]
            for name in order:
                flat += (name, None)
            entry = shapes[shape] = flat, values
        flat, values = entry
        flat = flat.copy()
        flat[2::2] = values(parameters)
        return flat

    return sorted(rows, key=key)


def _coeff_string(f) -> str:
    # f is a KClass; x/den in lowest terms is (x/g)/(den/g) for g = gcd(x, den)
    parts = []
    for x in f.nums:
        g = gcd(x, f.den)
        parts.append(f"{x // g}/{f.den // g}")
    return "[" + ", ".join(parts) + "]"


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
        return _coeff_string(lhs), _coeff_string(rhs), ()

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
                    _coeff_string(l_double_loop(p, f)),
                    _coeff_string(f - psi(p, f)),
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
    for kind, kind_label in ((ModelKind.TYPE1, "type1"), (ModelKind.TYPE2, "type2")):
        params = {"p": p, "deg": deg, "kind": kind_label}
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
        rows += [
            make_row(
                "bockstein-page-summary",
                {**params, "page": page},
                f"{report.mismatches[page]} mismatches",
                "0 mismatches",
            )
            for page in range(3, pages + 1)
        ]
        rows += [
            make_row(
                "bockstein-page-dimension",
                {**params, "page": page, "degree": degree},
                str(computed),
                str(predicted),
            )
            for page, degree, computed, predicted in report.rows
        ]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kverify",
        description="Exact desk-scale checks for K-theory operation identities, "
        "Bernoulli valuations, and mod-p homology pairings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON array of report rows")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, names) in COMMANDS.items():
        options = sub.add_parser(command, parents=[common])
        if command == "all":
            options.add_argument("--config", default=None, help="flat JSON object of option overrides")
            continue
        for name in names:
            options.add_argument("--" + name.replace("_", "-"), type=int, default=DEFAULTS[name])
    return parser


def _config_settings(path: str | None, names) -> dict:
    """The settings of `all`: the defaults, overridden by the flat JSON
    object in the file at path, where `prime` stands for a one-prime
    `primes`.  Only check_settings judges the values."""
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
    if "prime" in config:
        if "primes" in config:
            raise UsageError("configuration keys 'prime' and 'primes' are exclusive")
        config["primes"] = [config.pop("prime")]
    for key in config:
        if key not in names:
            raise UsageError(f"unknown configuration key {key!r}")
    return {name: config.get(name, DEFAULTS[name]) for name in names}


def _rows_for(args) -> list[CheckReport]:
    suite, names = COMMANDS[args.command]
    if args.command == "all":
        settings = _config_settings(args.config, names)
    else:
        settings = {name: getattr(args, name) for name in names}
    check_settings(args.command, settings)
    return suite(*settings.values())


def _print_table(rows: list[CheckReport]) -> None:
    shapes = {}
    for row in rows:
        parameters = row.parameters
        shape = tuple(parameters)
        entry = shapes.get(shape)
        if entry is None:
            entry = shapes[shape] = _report_order(parameters)
        order, values = entry
        params = " ".join(map("{}={}".format, order, values(parameters)))
        line = f"{row.status:5}  {row.check_name:28} {params}"
        if row.status != PASS:
            line += f"  lhs={row.lhs} rhs={row.rhs}"
        print(line)
        for note in row.notes:
            print(f"       note: {note}")
    failed = sum(r.status != PASS for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")


def _json_array(rows: list[CheckReport]) -> str:
    """The rows in exactly the layout of json.dumps([row._asdict() for row
    in rows], sort_keys=True, indent=2).  json.dumps takes its
    pure-Python encoder whenever indent is set; this takes the C string
    encoder that json.dumps calls under ensure_ascii.

    Each row shape (check name, status, parameter names and value types)
    gets one %-format layout, so a row encodes only lhs, rhs, its str
    parameter values and elapsed_ms; a notes block is encoded once per
    notes tuple."""
    if not rows:
        return "[]"
    enc = encode_basestring_ascii
    layouts = {}
    blocks = {}
    out = []
    for name, parameters, status, lhs, rhs, notes, elapsed_ms in rows:
        shape = (name, status, *parameters, *map(type, parameters.values()))
        layout = layouts.get(shape)
        if layout is None:
            layout = layouts[shape] = _json_layout(name, parameters, status)
        text, values, strings = layout
        values = values(parameters)
        if strings:
            values = list(values)
            for i in strings:
                values[i] = enc(values[i])
        block = blocks.get(notes)
        if block is None:
            block = blocks[notes] = _json_items(map(enc, notes))
        out.append(text % (elapsed_ms, enc(lhs), block, *values, enc(rhs)))
    return "[\n" + ",\n".join(out) + "\n]"


def _json_items(items) -> str:
    # the inside of a JSON list or object that is a field of a row
    items = ",\n      ".join(items)
    return "\n      " + items + "\n    " if items else ""


def _json_layout(name: str, parameters: dict, status: str):
    """The %-format text of one row shape, the function that reads its
    parameter values in report order, and the positions of the str values
    among them.  The slots are elapsed_ms, lhs, the notes block, the
    parameter values in that order and rhs; a parameter value is an int or
    a str."""
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = sort_reports(_rows_for(args))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        # one write: with PYTHONUNBUFFERED each write is a system call
        sys.stdout.write(_json_array(rows) + "\n")
    else:
        _print_table(rows)
    return 0 if all(row.status == PASS for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
