"""The kverify command line: argv, settings, and the ordered report.

Each command runs one suite, named in COMMANDS.  A suite lives in the
module whose identities it checks, which is imported when the command
runs, and emits kverify.report rows; `all`, the suites over its primes, is
composed here.

The argv is a command of COMMANDS, then its options in any order: --json,
-h or --help, and --NAME VALUE or --NAME=VALUE for each setting the
command takes (`all` takes --config PATH instead).  Names are spelled out
in full and a repeated option keeps its last value.  parse_argv reads it
straight from the table, and every bad argv is a UsageError.

Every row of one check name has the same parameter names, each always an
int or always a str.  So rows are ordered by check_name, then by their
parameter values in report order (sorted by name), integers numerically,
and each check name gets one parameter order and one JSON layout per status.

JSON mode prints the layout of json.dumps(rows, sort_keys=True, indent=2)
in pieces of about 64 KB through the C string encoder alone, so only
`all --config` imports the json package, and the output is byte-stable
for fixed inputs apart from elapsed_ms.  Exit status: 0 when every row is
PASS, 1 when any row is FAIL or ERROR, 2 for usage or config problems, and
141 (128 + SIGPIPE) when the reader closes stdout early; main returns it
and never raises SystemExit.

Run as the program (`python -m kverify.cli` or the `kverify` script), main
reads sys.argv.  It first calls gc.freeze(), so the full collections at
exit skip what is loaded by then, and turns the cyclic collector off: what
a run builds holds no reference cycles.  A reader that closes stdout early,
before the usage text or the report is written, ends it with status 141
and no traceback: stdout is pointed at os.devnull, so the flush at exit
cannot fail again.  An in-process call, main(argv), leaves the collector as
it finds it and lets BrokenPipeError through.

Each text a row reports has one source: str(KClass) writes a class's
coefficients, a ModelKind's value is a bockstein row's `kind`, and the keys
of an `all` config are the names of its settings in COMMANDS.
"""

from __future__ import annotations

import gc
import os
import sys
from _json import encode_basestring_ascii
from importlib import import_module
from itertools import groupby
from math import gcd
from operator import itemgetter

from . import exact
from .report import PASS, CheckReport

# perfbench/test_perfbench.py reads cli.bernoulli until the benchmark
# stops naming it (ROADMAP item 1)
from .exact import bernoulli  # noqa: F401

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
# The ceilings bound the inputs whose cost grows without bound; README's
# table of input ceilings gives the reason and the time at each ceiling.
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
        if not exact.is_prime(p):
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


# Each command's suite, "module.name" in the package or a name in this
# module, and the settings it takes, in the order of its options and of the
# suite's parameters; `all` reads them from --config.
COMMANDS = {
    "bernoulli": ("exact.bernoulli_rows", ("n_max",)),
    "theorem-a": ("chern.theorem_a_rows", ("prime", "k", "n_max")),
    "eigenvalue": ("chern.eigenvalue_rows", ("prime", "k", "n_max", "truncation")),
    "akita": ("dyerlashof.akita_rows", ("prime",)),
    "artin-hasse": ("kops.artin_hasse_rows", ("prime", "truncation")),
    "bockstein": ("bockstein.page_rows", ("prime", "deg", "pages", "max_deg")),
    "all": ("all_rows", ("primes", "n_max", "truncation", "deg", "pages")),
}


def _suite(path: str):
    """The suite at path; its module is imported when a run first needs it."""
    module, _, name = path.rpartition(".")
    if not module:
        return globals()[name]
    return getattr(import_module(f".{module}", __package__), name)


def all_rows(primes, n_max: int, truncation: int, deg: int, pages: int) -> list[CheckReport]:
    rows = _suite("exact.bernoulli_rows")(n_max) + _suite("chern.series_rows")(30)
    for p in primes:
        rows += _suite("chern.theorem_a_rows")(p, None, n_max)
        rows += _suite("chern.eigenvalue_rows")(p, None, n_max, truncation)
        rows += _suite("kops.artin_hasse_rows")(p, truncation)
        if p != 2:
            rows += _suite("dyerlashof.akita_rows")(p)
            rows += _suite("bockstein.page_rows")(p, deg, pages, _default_max_deg(deg, p))
    return rows


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
    if command == "bockstein" and settings["max_deg"] is None:
        settings["max_deg"] = _default_max_deg(settings["deg"], settings["prime"])
    return _suite(suite)(*settings.values())


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
        if parsed is not None:
            command, values, as_json = parsed
            rows = sort_reports(_rows_for(command, values))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if parsed is None:
            sys.stdout.write(_usage())
        elif as_json:
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
    return 0 if parsed is None or all(row.status == PASS for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
