"""Exit codes, report schema, ordering, and JSON stability of the CLI."""

import contextlib
import hashlib
import importlib
import io
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MODULES, clear_caches
from kverify import bockstein, chern, cli, dyerlashof, exact, kops, polyring, report, series
from kverify.chern import eigenvalue_rows, theorem_a_rows
from kverify.cli import main, parse_argv, sort_reports
from kverify.exact import bernoulli_rows
from kverify.polyring import KClass
from kverify.report import ERROR, FAIL, PASS, CheckReport, run_check
from test_chern import surjections_with_extra_one

ROW_KEYS = {"check_name", "elapsed_ms", "lhs", "notes", "parameters", "rhs", "status"}
CHECKOUT = Path(__file__).resolve().parent.parent


# -- run_check and ordering -------------------------------------------------


def test_run_check_statuses():
    ok = run_check("demo", {"n": 1}, lambda: ("a", "a", ("note",)))
    assert ok.status == PASS and ok.notes == ("note",)
    bad = run_check("demo", {"n": 1}, lambda: ("a", "b", ()))
    assert bad.status == FAIL and (bad.lhs, bad.rhs) == ("a", "b")

    def boom():
        raise ValueError("broken input")

    err = run_check("demo", {"n": 1}, boom, notes=("pre",))
    assert err.status == ERROR
    assert err.notes == ("pre", "ValueError: broken input")
    assert err.lhs == "" and err.rhs == ""


def test_sort_reports_orders_by_name_then_parameters():
    def row(name, params):
        return CheckReport(name, params, PASS, "", "", (), 0)

    rows = [
        row("b-check", {"n": 2}),
        row("a-check", {"p": 3, "n": 10}),
        row("a-check", {"p": 3, "n": 2}),
        row("a-check", {"n": 2, "p": 2}),  # the same names in another insertion order
    ]
    ordered = sort_reports(rows)
    assert [r.check_name for r in ordered] == ["a-check", "a-check", "a-check", "b-check"]
    assert ordered[0].parameters == {"n": 2, "p": 2}
    assert ordered[1].parameters == {"p": 3, "n": 2}
    assert ordered[2].parameters["n"] == 10  # integers sort numerically, not textually


_CHECK_NAMES = st.text(alphabet="ab", max_size=2)
_PARAMETER_NAMES = st.text(alphabet="knp", min_size=1, max_size=2)
_SHORT_TEXT = st.text(alphabet="01a", max_size=2)
_SMALL_INT = st.integers(-3, 12)


@st.composite
def _rows_with_one_shape_per_check(draw):
    """Rows where each check name has one set of parameter names, given in
    any insertion order, and each of its parameters holds only ints or only
    strs; lhs numbers the rows, so any reordering shows."""
    shapes = draw(
        st.dictionaries(
            _CHECK_NAMES, st.dictionaries(_PARAMETER_NAMES, st.booleans(), max_size=4), min_size=1
        )
    )
    rows = []
    for index in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from(sorted(shapes)))
        keys = draw(st.permutations(sorted(shapes[name])))
        parameters = {key: draw(_SHORT_TEXT if shapes[name][key] else _SMALL_INT) for key in keys}
        rows.append(CheckReport(name, parameters, PASS, str(index), "", (), 0))
    return rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rows_with_one_shape_per_check())
def test_sort_reports_is_the_sort_on_name_and_sorted_parameters(rows):
    expected = sorted(rows, key=lambda r: (r.check_name, sorted(r.parameters.items())))
    assert sort_reports(rows) == expected


# a small input of each subcommand
SMALL_ARGV = {
    "bernoulli": ["bernoulli", "--n-max", "3"],
    "theorem-a": ["theorem-a", "--prime", "3", "--n-max", "2"],
    "eigenvalue": ["eigenvalue", "--prime", "3", "--n-max", "2"],
    "akita": ["akita", "--prime", "3"],
    "artin-hasse": ["artin-hasse", "--prime", "3", "--truncation", "4"],
    "bockstein-p3": ["bockstein", "--prime", "3", "--max-deg", "60"],
    "all": ["all"],
}


SWEEP_DEEP_ARGV = ["all", "--config", str(CHECKOUT / "perfbench" / "sweep_deep.json")]


@pytest.mark.parametrize(
    "argv", [*SMALL_ARGV.values(), SWEEP_DEEP_ARGV], ids=[*SMALL_ARGV, "all-sweep-deep"]
)
def test_each_parameter_has_one_type_per_check(argv):
    # the report layer's rule: one set of parameter names per check name,
    # and one type per parameter, which sort_reports compares untagged
    assert {command for command, *_ in SMALL_ARGV.values()} == set(cli.COMMANDS)
    names, types = {}, {}
    command, values, _ = parse_argv(argv)
    for row in cli._rows_for(command, values):
        names.setdefault(row.check_name, set()).add(frozenset(row.parameters))
        for name, value in row.parameters.items():
            types.setdefault((row.check_name, name), set()).add(type(value))
    assert types
    assert all(len(sets) == 1 for sets in names.values())
    assert {frozenset(kinds) for kinds in types.values()} <= {frozenset({int}), frozenset({str})}


@pytest.mark.parametrize(
    "argv,repeated,notes_differ",
    [(["all"], 42, 24), (SWEEP_DEEP_ARGV, 98, 56)],
    ids=["all", "all-sweep-deep"],
)
def test_rows_that_share_a_key_agree(argv, repeated, notes_differ):
    # `all` emits some (check name, parameters) keys more than once; every
    # row of a key must compare the same, and eigenvalue-closed-form is the
    # one check whose rows of a key differ in their notes (theorem-a's note
    # against none from eigenvalue)
    command, values, _ = parse_argv(argv)
    rows = cli._rows_for(command, values)
    keys = {}
    for row in rows:
        keys.setdefault((row.check_name, tuple(sorted(row.parameters.items()))), []).append(row)
    assert len(rows) - len(keys) == repeated
    differ = []
    for (name, _), group in keys.items():
        assert len({(row.status, row.lhs, row.rhs) for row in group}) == 1, (name, group)
        if len({row.notes for row in group}) > 1:
            differ.append(name)
    assert differ == ["eigenvalue-closed-form"] * notes_differ


# -- the argv contract -------------------------------------------------------


def _run_main(argv):
    """(exit code, stdout, stderr) of main on argv, elapsed_ms set to 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out.getvalue()), err.getvalue()


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["bockstein", "-h"], ["all", "--json", "--help"]]
)
def test_help_lists_every_command_and_option(argv):
    code, out, err = _run_main(argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    for command, (_, names) in cli.COMMANDS.items():
        (line,) = [line for line in lines if line.split()[:1] == [command]]
        flags = ["--" + name.replace("_", "-") for name in names]
        if command == "all":
            flags = ["--config"]
        assert re.findall(r"\[(--[a-z-]+) ", line) == flags
    assert "--json" in out


def test_option_value_forms_and_repeats_give_the_same_rows():
    base = _run_main(["bockstein", "--prime", "3", "--max-deg", "60", "--json"])
    assert base[0] == 0 and base[1]
    assert _run_main(["bockstein", "--prime=3", "--json", "--max-deg=60"]) == base
    # a repeated option keeps its last value
    repeated = ["--prime", "5", "--max-deg=9", "--prime=3", "--max-deg", "60"]
    assert _run_main(["bockstein", *repeated, "--json"]) == base


# Each argv is refused by the parser itself, before any setting is checked.
# Option names are spelled out in full, so `--n` for `--n-max` is refused.
BAD_ARGV = {
    "no command": [],
    "unknown command": ["bogus", "--n-max", "2"],
    "option before the command": ["--json", "bernoulli"],
    "unknown option": ["bernoulli", "--prime", "3"],
    "missing value": ["bernoulli", "--n-max"],
    "non-integer value": ["bernoulli", "--n-max", "2.5"],
    "empty value": ["bernoulli", "--n-max="],
    "abbreviation": ["bernoulli", "--n", "4"],
    "stray argument": ["bernoulli", "7"],
    "value on a flag": ["bernoulli", "--json=1"],
}


@pytest.mark.parametrize("argv", list(BAD_ARGV.values()), ids=list(BAD_ARGV))
def test_bad_argv_exits_two_with_one_error_line(argv):
    code, out, err = _run_main(argv)  # a SystemExit would escape and fail the test
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


# -- exit codes through main ------------------------------------------------


def test_green_commands_exit_zero(capsys):
    assert main(["bernoulli", "--n-max", "4"]) == 0
    assert main(["akita", "--prime", "5"]) == 0
    assert main(["theorem-a", "--prime", "3", "--n-max", "2"]) == 0
    assert main(["artin-hasse", "--prime", "3", "--truncation", "5"]) == 0
    assert main(["bockstein", "--prime", "3", "--max-deg", "60"]) == 0
    capsys.readouterr()


def test_usage_problems_exit_two(capsys, tmp_path):
    assert main(["akita", "--prime", "2"]) == 2
    assert main(["all", "--config", "/no/such/file.json"]) == 2
    assert main(["artin-hasse", "--truncation", "1"]) == 2
    assert main(["theorem-a", "--prime", "3", "--k", "4"]) == 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": [3], "truncation": 1}))
    assert main(["all", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "truncation must be at least 2" in err
    # a nonpositive value reaches the LIMITS minimum, not the option parser
    assert main(["artin-hasse", "--truncation", "0"]) == 2
    assert "truncation must be at least 1" in capsys.readouterr().err


# One input per rule of cli.check_settings, tripping that rule and no other,
# as argv and, where the setting is a configuration key, as `all --config`:
# (argv or config body, the rule's message).  The option parser reads any
# integer, so each minimum is reached from argv too.  A prime below 2 is not
# prime either, and neither is 201: the limits come before the primality test.
RULE_CASES = [
    ({"primes": [3, "5"]}, "configuration key 'primes' must be a non-empty list of integers"),
    ({"primes": [3, 3]}, "configuration key 'primes' must not repeat a prime"),
    ({"n_max": "6"}, "configuration key 'n_max' must be an integer"),
    (["theorem-a", "--k", "1"], "k must be at least 3"),
    (["bockstein", "--pages", "1"], "pages must be at least 2"),
    ({"primes": [3], "pages": 1}, "pages must be at least 2"),
    (["bernoulli", "--n-max", "0"], "n_max must be at least 1"),
    ({"primes": [3], "n_max": 0}, "n_max must be at least 1"),
    (["akita", "--prime", "-3"], "prime must be at least 2"),
    ({"primes": [1]}, "prime must be at least 2"),
    (["akita", "--prime", "211"], "prime = 211 is above the ceiling 200"),
    ({"primes": [3, 201]}, "prime = 201 is above the ceiling 200"),
    (["theorem-a", "--k", "1001"], "k = 1001 is above the ceiling 1000"),
    (["bernoulli", "--n-max", "201"], "n_max = 201 is above the ceiling 200"),
    ({"primes": [3], "n_max": 201}, "n_max = 201 is above the ceiling 200"),
    (["eigenvalue", "--truncation", "129"], "truncation = 129 is above the ceiling 128"),
    ({"primes": [3], "truncation": 129}, "truncation = 129 is above the ceiling 128"),
    (["bockstein", "--pages", "65"], "pages = 65 is above the ceiling 64"),
    ({"primes": [3], "pages": 65}, "pages = 65 is above the ceiling 64"),
    ({"primes": [2], "deg": 250_002}, "deg = 250002 is above the ceiling 250000"),
    (["bockstein", "--max-deg", "250001"], "max_deg = 250001 is above the ceiling 250000"),
    (["artin-hasse", "--prime", "9"], "p = 9 is not prime"),
    (["theorem-a", "--prime", "4"], "p = 4 is not prime"),
    ({"primes": [3, 9]}, "p = 9 is not prime"),
    (["akita", "--prime", "2"], "akita needs an odd prime"),
    (["bockstein", "--prime", "2"], "bockstein needs an odd prime"),
    (["theorem-a", "--k", "4"], "k = 4 must be odd"),
    (["eigenvalue", "--prime", "3", "--k", "9"], "k = 9 must be coprime to p = 3"),
    (["bockstein", "--deg", "3"], "deg = 3 must be even"),
    ({"primes": [2], "deg": 3}, "deg = 3 must be even"),
    (["bockstein", "--prime", "41"], "degree bound 275684 is above the ceiling 250000"),
    ({"primes": [2, 41]}, "degree bound 275684 is above the ceiling 250000"),
    (["bockstein", "--deg", "4", "--max-deg", "2"], "max_deg must be at least deg"),
    (["artin-hasse", "--truncation", "1"], "truncation must be at least 2"),
    ({"primes": [3], "truncation": 1}, "truncation must be at least 2"),
    # a value that no suite reads at these primes is checked all the same
    ({"primes": [2], "pages": 1, "deg": 3}, "pages must be at least 2"),
    ({"primes": [2, 3], "n_max": 14, "truncation": 16, "pages": 1}, "pages must be at least 2"),
]


class SuiteRan(Exception):
    pass


@pytest.mark.parametrize(
    "case,message",
    RULE_CASES,
    ids=[" ".join(case) if isinstance(case, list) else f"all {case}" for case, _ in RULE_CASES],
)
def test_each_rule_exits_two_before_any_suite(monkeypatch, capsys, tmp_path, case, message):
    def no_row(*args, **kwargs):
        raise SuiteRan(args[0])

    monkeypatch.setattr(report, "run_check", no_row)  # every suite builds its rows here
    if isinstance(case, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(case))
        case = ["all", "--config", str(path)]
    assert main(case) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# Each argv exceeds one input ceiling.  Without the ceilings the huge primes
# spend minutes in trial division (akita then in B_p), and `bockstein --prime
# 211` would build 37.6M degrees.  A config body is written to a file whose
# path is appended.
OVERSIZED_INPUTS = [
    (["theorem-a", "--prime", "1000000000000000003", "--n-max", "1"], None),
    (["eigenvalue", "--prime", "1000000000000000003", "--n-max", "1"], None),
    (["akita", "--prime", "1000003"], None),
    (["artin-hasse", "--prime", str(cli.LIMITS["prime"][1] + 1)], None),
    (["theorem-a", "--prime", "3", "--k", str(cli.LIMITS["k"][1] + 1)], None),
    (["eigenvalue", "--prime", "3", "--k", str(cli.LIMITS["k"][1] + 1)], None),
    (["bockstein", "--prime", "211"], None),
    # a prime under its ceiling whose default degree bound 2 deg p^3 is not
    (["bockstein", "--prime", "41"], None),
    (["bockstein", "--prime", "3", "--max-deg", str(cli.LIMITS["max_deg"][1] + 1)], None),
    (["all"], {"primes": [1000003]}),
    (["all"], {"primes": [3, 41]}),
    # `bernoulli --n-max 3000`, `artin-hasse --truncation 400` and `bockstein
    # --pages 20000` each ran past 7 s without these three ceilings
    (["bernoulli", "--n-max", "3000"], None),
    (["artin-hasse", "--prime", "3", "--truncation", "400"], None),
    (["bockstein", "--prime", "3", "--max-deg", "10", "--pages", "20000"], None),
    (["all"], {"primes": [3], "n_max": 3000}),
    (["all"], {"primes": [3], "truncation": 400}),
    (["all"], {"primes": [3], "pages": 20000}),
]


@pytest.mark.parametrize(
    "argv,config",
    OVERSIZED_INPUTS,
    ids=[" ".join(argv) + (f" {config}" if config else "") for argv, config in OVERSIZED_INPUTS],
)
def test_oversized_input_exits_two(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kverify.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=10,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "ceiling" in proc.stderr


def _readme_ceiling_table():
    """{setting: (minimum cell, ceiling cell)} from README's table of input
    ceilings, keyed by the first option each row names."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    header = "| input | minimum | ceiling | why the ceiling |"
    table = {}
    for line in readme[readme.index(header) :].splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        option = re.search(r"`--([a-z-]+)", cells[0]).group(1)
        table[option.replace("-", "_")] = (cells[1], cells[2])
    return table


def test_readme_ceiling_table_matches_limits():
    table = _readme_ceiling_table()
    assert set(table) == set(cli.LIMITS)
    for key, (minimum, ceiling) in cli.LIMITS.items():
        minimum_cell, ceiling_cell = table[key]
        assert ceiling_cell == str(ceiling), key
        number = re.match(r"\d+", minimum_cell)
        if number is None:
            # max_deg may not be below deg, whose minimum is above max_deg's
            assert (key, minimum_cell) == ("max_deg", "deg")
        else:
            assert int(number.group()) == minimum, key


def test_error_row_exits_one(monkeypatch, capsys):
    # a computation that raises inside a row is an ERROR row and a red run
    def broken(*args, **kwargs):
        raise ArithmeticError("series route failed")

    monkeypatch.setattr(chern, "rk_eigenvalue", broken)
    code = main(["theorem-a", "--prime", "3", "--n-max", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "ERROR" in out
    assert "lhs=" in out  # non-PASS table lines carry the comparison payload


# Each setup function patched in its home module, where the suite reads it.
_SETUP_HOMES = {
    "denominator_valuation_check": exact,
    "akita_counterexample": dyerlashof,
    "verify_closed_form_pages": bockstein,
}


@pytest.mark.parametrize(
    "setup,argv,check_name",
    [
        (
            "denominator_valuation_check",
            ["theorem-a", "--prime", "3", "--n-max", "2"],
            "denominator-valuation",
        ),
        ("akita_counterexample", ["akita", "--prime", "5"], "akita-counterexample"),
        (
            "verify_closed_form_pages",
            ["bockstein", "--prime", "3", "--max-deg", "60"],
            "bockstein-page-summary",
        ),
    ],
)
def test_raising_setup_becomes_error_rows(monkeypatch, capsys, setup, argv, check_name):
    def broken(*args):
        raise ArithmeticError("setup failed")

    monkeypatch.setattr(_SETUP_HOMES[setup], setup, broken)
    assert main(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    errors = [row for row in json.loads(captured.out) if row["status"] == ERROR]
    assert errors and {row["check_name"] for row in errors} == {check_name}
    assert all(row["notes"][-1] == "ArithmeticError: setup failed" for row in errors)


def test_raising_sample_class_becomes_error_rows(monkeypatch, capsys):
    # each artin-hasse row builds the class its key names (N and the label),
    # so a fault in the line power is an ERROR row of every check, not a
    # traceback; a class that an earlier test cached would hide the fault
    def broken(*args):
        raise ArithmeticError("line power failed")

    clear_caches()
    monkeypatch.setattr(polyring, "line_power", broken)
    assert main(["artin-hasse", "--prime", "3", "--truncation", "4", "--json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = json.loads(captured.out)
    assert {row["check_name"] for row in rows} == {
        "theta-integrality",
        "p-local-log-closed-form",
        "double-loop-log-form",
        "double-loop-weight-scalar",
    }
    assert all(row["status"] == ERROR for row in rows)
    assert all(row["notes"][-1] == "ArithmeticError: line power failed" for row in rows)


def test_bockstein_runs_one_check_per_model(monkeypatch, capsys):
    # the page-2 summary row runs the page engine; the other rows are built
    # from its report without a check of their own
    calls = []

    def counted(name, parameters, thunk, notes=()):
        calls.append((name, parameters))
        return run_check(name, parameters, thunk, notes)

    monkeypatch.setattr(report, "run_check", counted)
    assert main(["bockstein", "--prime", "31", "--pages", "3", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 3974
    assert calls == [
        ("bockstein-page-summary", {"p": 31, "deg": 2, "kind": kind, "page": 2})
        for kind in ("type1", "type2")
    ]


def test_rank_zero_fails_the_dimension_and_summary_rows(monkeypatch, capsys):
    # with every rank 0 each page's homology is its whole chain group, so
    # the dimension rows disagree with the closed form; each FAIL must come
    # from its own two dimensions and be counted by its page's summary row
    monkeypatch.setattr(bockstein, "rank_mod_p", lambda matrix, p: 0)
    assert main(["bockstein", "--prime", "3", "--max-deg", "60", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    failed = {}
    for row in rows:
        if row["check_name"] == "bockstein-page-dimension":
            assert row["status"] == (PASS if row["lhs"] == row["rhs"] else FAIL)
            page = (row["parameters"]["kind"], row["parameters"]["page"])
            failed[page] = failed.get(page, 0) + (row["status"] == FAIL)
    summaries = [row for row in rows if row["check_name"] == "bockstein-page-summary"]
    for row in summaries:
        count = failed.get((row["parameters"]["kind"], row["parameters"]["page"]), 0)
        assert (row["lhs"], row["status"]) == (f"{count} mismatches", PASS if count == 0 else FAIL)
    assert sum(failed.values()) > 0
    assert {row["status"] for row in summaries} >= {FAIL}


def _numerator_times_p(p, num_denom=exact.num_denom):
    num, denom = num_denom(p)
    return num * p, denom


# Each mutation breaks one computed half of the akita certificate: the
# conjugate-side pairing, or the numerator of B_p/2p as a unit mod p.
@pytest.mark.parametrize(
    "home,name,mutant",
    [
        (dyerlashof, "pair_primitive_s", lambda m, p, index, coefficient: 0),
        (exact, "num_denom", _numerator_times_p),
    ],
    ids=["zero-pairing", "numerator-divisible-by-p"],
)
def test_broken_certificate_fails_the_akita_row(monkeypatch, capsys, home, name, mutant):
    monkeypatch.setattr(home, name, mutant)
    assert main(["akita", "--prime", "5", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [(row["status"], row["lhs"]) for row in rows] == [(FAIL, "certificate incomplete")]


def test_broken_surjection_rows_make_the_akita_row_an_error(monkeypatch, capsys):
    # the certificate reads the duality sign that the eigenvalue rows divide
    # by, so a fault in the surjection rows cannot leave it PASS
    monkeypatch.setattr(chern, "_surjections", surjections_with_extra_one())
    assert main(["akita", "--prime", "5", "--json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (row,) = json.loads(captured.out)
    assert (row["check_name"], row["status"]) == ("akita-counterexample", ERROR)
    assert row["notes"][-1] == "ArithmeticError: normalizing s-number came out -2, expected -1"


def test_wrong_sign_from_the_p_division_fails_the_double_loop_rows(monkeypatch, capsys):
    # the double-loop row's right side, f - psi^p(f), never divides by p, so
    # a sign fault in the checked division shows on its left side; the theta
    # rows check only that the division succeeds, and stay PASS
    divide = kops._divide_p_power
    monkeypatch.setattr(kops, "_divide_p_power", lambda f, p, t: -divide(f, p, t))
    assert main(["artin-hasse", "--prime", "3", "--truncation", "6", "--json"]) == 1
    statuses = {}
    for row in json.loads(capsys.readouterr().out):
        statuses.setdefault(row["check_name"], []).append(row["status"])
    assert statuses == {
        "double-loop-log-form": [FAIL] * 2,
        "double-loop-weight-scalar": [FAIL] * 6,
        "p-local-log-closed-form": [FAIL] * 3,
        "theta-integrality": [PASS] * 12,
    }


def test_quotient_left_over_one_p_too_many_fails_the_theta_rows(monkeypatch, capsys):
    # every division still succeeds, so only the values can show the fault:
    # the theta rows read the denominator of theta's result, and the
    # logarithm's check of its own denominator turns its rows ERROR
    divide = kops._divide_p_power

    def one_p_too_many(f, p, t):
        q = divide(f, p, t)
        return KClass(q.nums, q.truncation, den=q.den * p)

    monkeypatch.setattr(kops, "_divide_p_power", one_p_too_many)
    assert main(["artin-hasse", "--prime", "3", "--truncation", "6", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)
    statuses = {}
    for row in rows:
        statuses.setdefault(row["check_name"], []).append(row["status"])
    assert statuses == {
        "double-loop-log-form": [FAIL] * 2,
        "double-loop-weight-scalar": [FAIL] * 6,
        "p-local-log-closed-form": [ERROR] * 3,
        "theta-integrality": [PASS] * 3 + [FAIL] * 3 + [PASS] * 6,
    }
    theta_failures = [
        (row["parameters"]["t"], row["lhs"])
        for row in rows
        if row["check_name"] == "theta-integrality" and row["status"] == FAIL
    ]
    assert theta_failures == [(1, "denominator 3")] * 3
    log_notes = [row["notes"][-1] for row in rows if row["check_name"] == "p-local-log-closed-form"]
    assert all(note.startswith("ArithmeticError: the logarithm at p = 3 ") for note in log_notes)


def test_akita_note_says_when_the_numerator_is_not_a_unit(monkeypatch, capsys):
    assert main(["akita", "--prime", "5", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert "Bernoulli ratio is a unit mod 5 (residue 1)" in row["notes"][3]
    monkeypatch.setattr(exact, "num_denom", _numerator_times_p)
    assert main(["akita", "--prime", "5", "--json"]) == 1
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["status"], row["lhs"]) == (FAIL, "certificate incomplete")
    assert row["notes"][3] == (
        "numerator 5 of the weight-5 Bernoulli ratio is not a unit mod 5 "
        "(residue 0), so the cleared identity does not force the two "
        "pairings to agree"
    )


def test_bernoulli_suite_expands_few_series(monkeypatch):
    # a run up to n extends one expansion to exactly order 2n, and asking
    # for the top index first leaves nothing for the smaller ones to compute
    computed = []
    inv = series.inv

    def counting_inv(a):
        for c in inv(a):
            computed.append(c)
            yield c

    monkeypatch.setattr(series, "inv", counting_inv)
    exact._series_coefficients.cache_clear()
    exact._recurrence.cache_clear()
    try:
        assert all(row.status == PASS for row in bernoulli_rows(80))
        assert exact._series_coefficients.cache_info().misses == 1
        assert len(computed) == 161

        exact._series_coefficients.cache_clear()
        computed.clear()
        exact.bernoulli(80)
        assert len(computed) == 161
        for n in range(1, 80):
            assert exact.bernoulli(n) == exact.bernoulli_recursive(n)
        assert len(computed) == 161
        assert exact._series_coefficients.cache_info().misses == 1
    finally:
        exact._series_coefficients.cache_clear()


def test_theorem_a_searches_for_the_generator_once(monkeypatch):
    # every denominator-valuation row reads the generator k of (Z/p^2)*;
    # at p = 199 the search for it is one multiplicative order, taken once
    calls = []
    order = exact.multiplicative_order

    def counting_order(a, modulus):
        calls.append((a, modulus))
        return order(a, modulus)

    monkeypatch.setattr(exact, "multiplicative_order", counting_order)
    exact.choose_k.cache_clear()
    assert all(row.status == PASS for row in theorem_a_rows(199, None, 5))
    assert calls == [(3, 199**2)]


def _clear_eigenvalue_caches():
    chern._conjugate_average.cache_clear()
    chern._eigenvalue.cache_clear()


@pytest.fixture
def fresh_conjugate_average():
    _clear_eigenvalue_caches()
    yield
    _clear_eigenvalue_caches()


def test_eigenvalue_suites_invert_once_per_class(monkeypatch, fresh_conjugate_average):
    # the class r^k(conjugate line - 1) does not depend on p, so the three
    # primes (all with k = 3) share one inversion per exact truncation; the
    # class at window w reads coefficients 0..w+1 of the inverse
    n_max, truncation = 3, 8

    def suites():
        rows = []
        for p in (2, 5, 7):
            rows += theorem_a_rows(p, None, n_max) + eigenvalue_rows(p, None, n_max, truncation)
        return rows

    assert all(row.status == PASS for row in suites())  # fills the Bernoulli tables
    _clear_eigenvalue_caches()
    taken = []
    inv = series.inv

    def counting_inv(a):
        taken.append(0)
        for c in inv(a):
            taken[-1] += 1
            yield c

    monkeypatch.setattr(series, "inv", counting_inv)
    assert all(row.status == PASS for row in suites())
    keys = {exact.choose_k(p) for p in (2, 5, 7)}
    assert keys == {3}
    windows = {2 * n + 2 for n in range(1, n_max + 1)}
    windows |= {max(truncation, 2 * n + 3) for n in range(1, n_max + 1)}
    assert sorted(taken) == sorted(w + 2 for w in windows)


def test_truncation_stable_row_compares_separate_inversions(
    monkeypatch, fresh_conjugate_average
):
    # one coefficient off in the class cached at the default window 2n + 2
    # must show in both rows of that n: the wide side is its own inversion
    n = 2
    m = 2 * n - 1
    build = polyring.r_line_conjugate

    def corrupted(k, truncation):
        f = build(k, truncation)
        if truncation != 2 * n + 2:
            return f
        coeffs = list(f.coeffs)
        coeffs[m] += 1
        return KClass(coeffs, truncation)

    monkeypatch.setattr(polyring, "r_line_conjugate", corrupted)
    rows = eigenvalue_rows(3, None, 3, 8)
    failed = {(row.check_name, row.parameters["n"]) for row in rows if row.status != PASS}
    assert failed == {("eigenvalue-closed-form", n), ("eigenvalue-truncation-stable", n)}
    assert all(row.status in (PASS, FAIL) for row in rows)


def test_config_driven_all(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": [3], "n_max": 2, "truncation": 4}))
    assert main(["all", "--config", str(config)]) == 0
    capsys.readouterr()

    config.write_text(json.dumps({"bogus": 1}))
    assert main(["all", "--config", str(config)]) == 2

    config.write_text("[1, 2]")
    assert main(["all", "--config", str(config)]) == 2

    config.write_text("{not json")
    assert main(["all", "--config", str(config)]) == 2

    config.write_bytes(b'\xff\xfe{"n_max": 2}')
    assert main(["all", "--config", str(config)]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"n_max": "6"},
        {"truncation": 2.5},
        {"n_max": True},
        {"deg": None},
        {"pages": "3"},
        {"primes": []},
        {"primes": 3},
        {"primes": [3, "5"]},
        {"primes": [True]},
        {"primes": [3.0]},
        {"primes": [3], "n_max": 2, "pages": 3.0},
        {"primes": [3, 3]},
    ],
)
def test_config_values_are_type_checked(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["all", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: configuration key")


def test_prime_is_not_a_configuration_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"primes": [3], "n_max": 2, "prime": 5}))
    assert main(["all", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown configuration key 'prime'\n"


# -- reachability -----------------------------------------------------------

# Entry points that the runs below leave uncalled, each with the reason it stays.
ALLOWED_UNREACHED = {
    "polyring.KClass.__eq__": "tests compare ring values; report rows compare strings",
    "polyring.KClass.__repr__": "only test failure messages and debugging print classes",
}


def _public_entry_points():
    """(name, code objects) for each function of the package and its
    modules, private or not; for each non-exception class with its own
    __init__ or __post_init__; and for each method, property or dunder
    written in such a class's body.  A cached function counts by the
    function it wraps.  Methods that the dataclass, NamedTuple and Enum
    machinery generate have no code in the module's file and are left out.
    The package's own functions are named kverify.NAME."""
    modules = [("kverify", importlib.import_module("kverify"))]
    modules += [(name, importlib.import_module(f"kverify.{name}")) for name in MODULES]
    for module_name, module in modules:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            obj = inspect.unwrap(obj)
            if inspect.isfunction(obj):
                yield f"{module_name}.{name}", {obj.__code__}
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                hooks = {
                    vars(obj)[hook].__code__
                    for hook in ("__init__", "__post_init__")
                    if hook in vars(obj)
                }
                if hooks:
                    yield f"{module_name}.{name}", hooks
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else member
                    fn = getattr(fn, "__func__", fn)  # classmethod, staticmethod
                    if (
                        inspect.isfunction(fn)
                        and fn.__code__.co_filename == module.__file__
                        and fn.__code__ not in hooks
                    ):
                        yield f"{module_name}.{name}.{attr}", {fn.__code__}


def test_all_run_reaches_every_public_entry_point(tmp_path, capsys):
    # Code that only tests reach either earns a report row or is deleted.
    # `all` in both output formats, the usage text, and one integer option.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"primes": [2, 3], "n_max": 2, "truncation": 4}))
    runs = (
        ["all", "--config", str(config), "--json"],
        ["all", "--config", str(config)],
        ["-h"],
        ["bernoulli", "--n-max", "2"],
    )
    # a cache that an earlier test filled would hide the code behind it
    clear_caches()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        exits = [main(argv) for argv in runs]
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert exits == [0] * len(runs)
    unreached = {name for name, codes in _public_entry_points() if not codes & called}
    assert unreached == set(ALLOWED_UNREACHED)


# -- output formats ---------------------------------------------------------


def _json_rows(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_json_schema(capsys):
    rows = _json_rows(capsys, ["bernoulli", "--n-max", "3", "--json"])
    assert isinstance(rows, list) and rows
    for row in rows:
        assert set(row) == ROW_KEYS
        assert row["status"] == PASS
        assert isinstance(row["parameters"], dict)
        assert isinstance(row["notes"], list)
        assert isinstance(row["elapsed_ms"], int)
    names = [row["check_name"] for row in rows]
    assert names == sorted(names)
    values = [row["parameters"]["n"] for row in rows if row["check_name"] == "bernoulli-value"]
    assert values == [1, 2, 3]


def test_json_byte_stable_apart_from_timing(capsys):
    argv = ["artin-hasse", "--prime", "3", "--truncation", "4", "--json"]

    def normalized():
        rows = _json_rows(capsys, argv)
        for row in rows:
            row["elapsed_ms"] = 0
        return json.dumps(rows, sort_keys=True)

    assert normalized() == normalized()


# Normalised JSON output (every elapsed_ms set to 0) captured before a
# refactor, which must reproduce it byte for byte: argv, `all --config` body
# (written to a file whose path is appended), sha256, rows, bytes.
# The default `all` was captured before the s-number and psi rewrites; the
# bockstein run covers page 4 and an even generator of degree 4, which the
# default `all` does not reach; the deep sweep, captured before the
# eigenvalue classes were cached, runs every eigenvalue row to n = 14; the
# wide bockstein run, captured before the page builder shared its blocks,
# reaches 119,165 degrees at p = 31; the two bernoulli runs, captured before
# the series kernels and the recurrence summed over a common denominator,
# are the bernoulli-wide benchmark input and the n_max ceiling; the last two,
# captured before the pages were stored as arithmetic runs, reach page 64
# at p = 31 and a degree bound below one period of the first page.  The
# akita run, captured before the Bernoulli expansion became one growing
# stream, pins B_199 at the prime ceiling (series order 398).  The
# artin-hasse run at prime 199, captured before vanished powers were
# skipped, is the input where most of the logarithm's powers vanish.
GOLDEN_OUTPUTS = [
    (
        ["all", "--json"],
        None,
        "290095794a7f776b58a6e9675d32e0fccf1ad9391f9daaa6f4e3a1ba36f7d5b6",
        666,
        178595,
    ),
    (
        ["bockstein", "--prime", "5", "--deg", "4", "--pages", "4", "--json"],
        None,
        "020379bd2a59be5da6da218da43bef9bb0a5d6f1daf32e03645655d82ce3e17e",
        133,
        35338,
    ),
    (
        ["all", "--json"],
        {"n_max": 14, "truncation": 16},
        "99249f5bd7c21d7abed50825bdb10c1132f2dcac8729b46d99d9a8577c0e8bc7",
        874,
        236496,
    ),
    (
        ["bockstein", "--prime", "31", "--pages", "3", "--json"],
        None,
        "4bc961799f24b93301c3cdd030ce2c9f685249127c0d184f59d80769a90536e0",
        3974,
        1057715,
    ),
    (
        ["bernoulli", "--n-max", "80", "--json"],
        None,
        "3981b52eb74b76e3acdc6bf542536a323c74e68210b9b2d38f9057d7ba085c6e",
        161,
        55892,
    ),
    (
        ["bernoulli", "--n-max", "200", "--json"],
        None,
        "d1cd1dd661ff7caef3b9bf4c1137727e983547e3f67fc5638d29233f4728c230",
        401,
        277301,
    ),
    (
        ["bockstein", "--prime", "31", "--pages", "64", "--json"],
        None,
        "e62dc612ed27373506b2616929886019d1feca13dc72424a7009afc8a6f08003",
        4221,
        1122784,
    ),
    (
        ["bockstein", "--prime", "3", "--deg", "4", "--max-deg", "7", "--pages", "64", "--json"],
        None,
        "b488817b5869c4788c0d8031ada575e1c05ac43ea7cd719003339542f0258270",
        252,
        66505,
    ),
    (
        ["akita", "--prime", "199", "--json"],
        None,
        "a40d8180880ff0aa4f053df7aa0b8b6f5c3bb985fbf18cef89f50f16d85465d9",
        1,
        1304,
    ),
    (
        ["theorem-a", "--n-max", "200", "--json"],
        None,
        "6c109943e1936f13a55c1bfe02a8dd8f805722c1170045b07b113b93d9478289",
        800,
        438429,
    ),
    (
        ["theorem-a", "--prime", "199", "--n-max", "200", "--json"],
        None,
        "895ea12a79a6c9426a33c84badea372a52f6ac41ab1ad7751f86c0057703f3ff",
        800,
        421909,
    ),
    (
        ["eigenvalue", "--n-max", "200", "--json"],
        None,
        "aa835ddc3d3b19fba43936bdd5c79e0d9ee754a945a65d94dadca6529f640d9c",
        400,
        402148,
    ),
    (
        ["artin-hasse", "--prime", "3", "--truncation", "128", "--json"],
        None,
        "45241b4e4d56f9411493e3225e17a685d32e744dcb1102ec6a6f980535ccfc10",
        23,
        43531,
    ),
    (
        ["artin-hasse", "--prime", "199", "--truncation", "128", "--json"],
        None,
        "f4a58822faf8f6e07b65fb53bdd9931aee24d814d3ab79a96fd750706e3137f0",
        23,
        158518,
    ),
    (
        ["bockstein", "--prime", "3", "--max-deg", "250000", "--pages", "64", "--json"],
        None,
        "5fed653da35c5f9d83de5233e9682adc9b7a1d4eb518980386c3c8b1ba5936bd",
        125242,
        33258345,
    ),
]


@pytest.mark.parametrize(
    "argv,config,sha256,rows,size",
    GOLDEN_OUTPUTS,
    ids=[
        "all",
        "bockstein-p5-deg4-pages4",
        "all-config-n14-t16",
        "bockstein-p31-pages3",
        "bernoulli-n80",
        "bernoulli-n200",
        "bockstein-p31-pages64",
        "bockstein-p3-deg4-maxdeg7-pages64",
        "akita-p199",
        "theorem-a-n200",
        "theorem-a-p199-n200",
        "eigenvalue-n200",
        "artin-hasse-p3-t128",
        "artin-hasse-p199-t128",
        "bockstein-p3-maxdeg250000-pages64",
    ],
)
def test_all_json_matches_golden(capsys, tmp_path, argv, config, sha256, rows, size):
    run = argv
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        run = argv + ["--config", str(path)]
    assert main(run) == 0
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', capsys.readouterr().out)
    data = text.encode()
    captured = (hashlib.sha256(data).hexdigest(), len(json.loads(text)), len(data))
    # a mismatch reports the capture as one GOLDEN_OUTPUTS entry, ready to paste
    body = "None" if config is None else json.dumps(config)
    entry = f'({json.dumps(argv)}, {body}, "{captured[0]}", {captured[1]}, {captured[2]}),'
    assert captured == (sha256, rows, size), f"captured {entry}"


def _row_text(row) -> str:
    """The text of a row inside the JSON array, between its separators."""
    return json.dumps([row._asdict()], sort_keys=True, indent=2)[2:-2]


def _row_of_length(length: int) -> CheckReport:
    row = CheckReport("c", {"n": 1}, PASS, "", "", (), 0)
    return row._replace(lhs="x" * (length - len(_row_text(row))))


# Rows whose texts add up to exactly one piece of the JSON writer.
_ROWS_PER_PIECE = 64
_PIECE_ROW = _row_of_length(cli._PIECE // _ROWS_PER_PIECE)
assert len(_row_text(_PIECE_ROW)) * _ROWS_PER_PIECE == cli._PIECE


# every string field also draws quotes, backslashes, control characters,
# non-ASCII, U+2028 and lone surrogates
_JSON_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff'), st.characters())
)
_JSON_INT = st.one_of(st.integers(), st.integers(min_value=-(10**40), max_value=10**40))
_REPORTS = st.builds(
    CheckReport,
    check_name=_JSON_TEXT,
    parameters=st.dictionaries(_JSON_TEXT, st.one_of(_JSON_INT, _JSON_TEXT), max_size=4),
    status=_JSON_TEXT,
    lhs=_JSON_TEXT,
    rhs=_JSON_TEXT,
    notes=st.lists(_JSON_TEXT, max_size=3).map(tuple),
    elapsed_ms=_JSON_INT,
)


@st.composite
def _reports_with_one_shape_per_check(draw):
    """Up to four rows of _REPORTS; a row whose check name came before
    takes that row's parameter names, each with a new value of its type."""
    shapes, rows = {}, []
    for row in draw(st.lists(_REPORTS, max_size=4)):
        shape = shapes.setdefault(row.check_name, row.parameters)
        if shape is not row.parameters:
            parameters = {
                key: draw(_JSON_TEXT if isinstance(value, str) else _JSON_INT)
                for key, value in shape.items()
            }
            row = row._replace(parameters=parameters)
        rows.append(row)
    return rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_reports_with_one_shape_per_check())
# format characters in check names, parameter names, status and notes
@example(
    [
        CheckReport(
            "{0}%s", {"%d": 1, "{}": "%", "%%": "{x}"}, "%(x)s}", "%", "{", ("{}", "%s", "%"), 0
        )
    ]
)
# two rows of one shape with different notes and status
@example(
    [
        CheckReport("c", {"n": 1, "x": "u"}, PASS, "1", "1", ("first",), 3),
        CheckReport("c", {"n": 2, "x": "v"}, FAIL, "1", "2", ("second",), 0),
        CheckReport("c", {"n": 3, "x": "w"}, PASS, "3", "3", ("second", "third"), 0),
        CheckReport("c", {"n": 4, "x": "w"}, PASS, "4", "4", (), 0),
    ]
)
# parameters given in unsorted insertion order, as the bockstein rows are
@example(
    [
        CheckReport(
            "d", {"p": 31, "deg": 2, "kind": "t", "page": 2, "degree": 10}, PASS, "1", "1", (), 0
        )
    ]
)
# the array in pieces at the boundaries: no row, one row, exactly one piece
# and one piece plus one row
@example([])
@example([_PIECE_ROW])
@example([_PIECE_ROW] * _ROWS_PER_PIECE)
@example([_PIECE_ROW] * (_ROWS_PER_PIECE + 1))
def test_json_array_is_json_dumps_with_indent(rows):
    expected = json.dumps([row._asdict() for row in rows], sort_keys=True, indent=2) + "\n"
    for piece in (1, 200, cli._PIECE):
        pieces = list(cli._json_pieces(rows, piece))
        assert "".join(pieces) + "\n" == expected
        # every piece but the last is whole rows of at least `piece` characters
        assert all(len(text) >= piece for text in pieces[:-1])
        assert len(pieces) <= 2 + len(expected) // piece


def test_json_array_pieces_fall_on_row_boundaries():
    rows = [_PIECE_ROW] * (_ROWS_PER_PIECE + 1)
    pieces = list(cli._json_pieces(rows[:_ROWS_PER_PIECE]))
    assert [len(text) for text in pieces] == [2 + cli._PIECE + 2 * (_ROWS_PER_PIECE - 1), 2]
    assert pieces[1] == "\n]"
    pieces = list(cli._json_pieces(rows))
    assert len(pieces) == 2
    assert pieces[1] == ",\n" + _row_text(_PIECE_ROW) + "\n]"


def test_json_output_is_written_in_large_pieces(monkeypatch):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["bockstein", "--prime", "31", "--pages", "3", "--json"]) == 0
    assert writes[-1] == "\n"
    total = sum(map(len, writes))
    assert total > 10 * cli._PIECE
    # with PYTHONUNBUFFERED each write is a system call
    assert len(writes) <= total // cli._PIECE + 2
    assert all(len(text) >= cli._PIECE for text in writes[:-2])


def test_json_keys_are_sorted_in_output(capsys):
    assert main(["akita", "--prime", "3", "--json"]) == 0
    text = capsys.readouterr().out
    assert text.index('"check_name"') < text.index('"elapsed_ms"') < text.index('"lhs"')
    json.loads(text)  # and it is well-formed


def test_table_summary_line(capsys):
    assert main(["bernoulli", "--n-max", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "5/5 checks passed"
    assert any(line.startswith("PASS") for line in out)


def test_table_lists_parameters_in_report_order(capsys):
    rows = [
        CheckReport("c", {"p": 3, "deg": 2, "kind": "type1"}, FAIL, "1", "0", ("a note",), 0),
        CheckReport("c", {"p": 5, "deg": 4, "kind": "type2"}, PASS, "0", "0", (), 0),
        CheckReport("d", {}, PASS, "", "", (), 0),
    ]
    cli._print_table(rows)
    assert capsys.readouterr().out.splitlines() == [
        "FAIL   c                            deg=2 kind=type1 p=3  lhs=1 rhs=0",
        "       note: a note",
        "PASS   c                            deg=4 kind=type2 p=5",
        "PASS   d                            ",
        "2/3 checks passed",
    ]


def test_check_name_vocabulary(capsys):
    rows = _json_rows(
        capsys, ["artin-hasse", "--prime", "3", "--truncation", "5", "--json"]
    )
    assert {row["check_name"] for row in rows} == {
        "theta-integrality",
        "p-local-log-closed-form",
        "double-loop-log-form",
        "double-loop-weight-scalar",
    }
    rows = _json_rows(capsys, ["bockstein", "--prime", "3", "--max-deg", "60", "--json"])
    assert {row["check_name"] for row in rows} == {
        "bockstein-page-dimension",
        "bockstein-page-summary",
    }


def test_readme_names_every_check_of_all(capsys):
    readme = (CHECKOUT / "README.md").read_text()
    section = readme.split("## What gets checked\n", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n- ")[1:]
    named = [re.findall(r"`([a-z0-9-]+)`", bullet.partition("Check name")[2]) for bullet in bullets]
    assert all(named), "every bullet names the check names it covers"
    emitted = {row["check_name"] for row in _json_rows(capsys, ["all", "--json"])}
    assert {name for names in named for name in names} == emitted


# -- the console script -----------------------------------------------------

SRC = CHECKOUT / "src"
SCRIPT_ARGV = ["bernoulli", "--n-max", "2"]

# The wrapper that pip's installer writes for a `[project.scripts]` entry.
WRAPPER_TEMPLATE = r"""# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\.pyw|\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def _declared_entry_point():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(CHECKOUT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"].get("scripts", {})
    assert "kverify" in scripts, "pyproject.toml should declare the kverify script"
    module, _, func = scripts["kverify"].partition(":")
    return module.strip(), func.strip()


def _assert_script_ran(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "5/5 checks passed", proc.stderr


def test_installed_entry_point_runs(tmp_path):
    # Runs the declared entry point the way an installed console script
    # would, from this checkout and without installing anything.
    module, func = _declared_entry_point()
    wrapper = tmp_path / "kverify"
    wrapper.write_text(
        WRAPPER_TEMPLATE.format(module=module, import_name=func.split(".")[0], func=func)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(wrapper), *SCRIPT_ARGV],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    _assert_script_ran(proc)


def _script_interpreter(script):
    """The command that runs a console script, read from its first lines."""
    lines = Path(script).read_text(errors="replace").splitlines()[:2]
    assert lines and lines[0].startswith("#!"), f"{script} has no shebang line"
    if lines[0] == "#!/bin/sh" and len(lines) > 1:
        # pip's form for an interpreter path too long for a shebang line:
        # '''exec' "/path/to/python" "$0" "$@"
        match = re.match(r"'''exec' (.+?) \"\$0\"", lines[1])
        assert match, f"cannot read the interpreter of {script}"
        return shlex.split(match.group(1))
    return shlex.split(lines[0][2:])


@pytest.mark.skipif(
    shutil.which("kverify") is None, reason="no kverify console script on PATH"
)
def test_installed_script_on_path_runs(tmp_path):
    exe = shutil.which("kverify")
    # Only the install may point the script at kverify, not PYTHONPATH.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}

    def run(argv):
        return subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, env=env)

    # A script left by some other checkout would run code that is not under
    # test, so first ask the script's interpreter where kverify comes from.
    probe = tmp_path / "probe.py"
    probe.write_text("import kverify\nprint(kverify.__file__)\n")
    where = run([*_script_interpreter(exe), str(probe)])
    assert where.returncode == 0, where.stderr
    imported = Path(where.stdout.strip()).resolve().parent
    assert imported == SRC / "kverify", (
        f"{exe} imports kverify from {imported}, not from this checkout; "
        "reinstall it with `pip install -e . --no-build-isolation`"
    )
    _assert_script_ran(run([exe, *SCRIPT_ARGV]))


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["table", "json"])
def test_a_reader_that_closes_the_pipe_early_ends_the_program_quietly(output):
    # the report is several pipe buffers long, so the program still writes
    # when the reader has gone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "kverify.cli", "bockstein", "--prime", "31", "--pages", "3"]
    with subprocess.Popen(
        argv + output, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
    assert "Traceback" not in stderr
    assert proc.returncode == 141, stderr


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_usage_into_a_closed_pipe_ends_the_program_quietly(unbuffered):
    # the reader is gone before the program starts, so the usage text meets
    # a closed pipe: at its write when stdout is unbuffered, else at the flush
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kverify.cli", "-h"],
            stdout=writer, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(writer)
    stderr = proc.stderr.decode()
    assert "BrokenPipeError" not in stderr
    assert proc.returncode == 141, stderr
