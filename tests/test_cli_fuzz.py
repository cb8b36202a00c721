"""Fuzzed bad input: every argv and every `all --config` body ends in exit
0, 1 or 2, never in a traceback.

Sizes stay bounded so that no case runs long: primes up to 13, n_max up to
8, truncation up to 10, and bockstein always with --max-deg at most 120.
A valid `all` config only ever names primes 2 and 3 and degree 2, because
the page engine there runs to 2 * deg * p^3 (108 at p = 3).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kverify.cli import main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

# Strings that the argv parser or the settings check must reject; "\udcff"
# is how Python hands a program an argv byte that is not UTF-8.
BAD_TEXT = ["", "x", "2.5", "1e3", "true", "0x10", "-", "--json", "\udcff", "3\udcfe"]

# Largest value each option may take, so that a valid case stays small;
# "bogus" is a subcommand that does not exist.
OPTION_BOUNDS = {
    "bernoulli": {"--n-max": 8},
    "theorem-a": {"--prime": 13, "--k": 15, "--n-max": 8},
    "eigenvalue": {"--prime": 13, "--k": 15, "--n-max": 8, "--truncation": 10},
    "akita": {"--prime": 13},
    "artin-hasse": {"--prime": 13, "--truncation": 10},
    "bockstein": {"--prime": 13, "--deg": 10, "--pages": 5, "--max-deg": 120},
    "all": {},
    "bogus": {"--prime": 13},
}


def _option_value(bound):
    # in range, out of range or not a number, each about a third of the time
    return st.one_of(
        st.integers(1, bound).map(str), st.integers(-3, 0).map(str), st.sampled_from(BAD_TEXT)
    )


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTION_BOUNDS)))
    argv = [command]
    for option, bound in OPTION_BOUNDS[command].items():
        # without --max-deg the page engine would run to 2 * deg * p^3
        if option == "--max-deg" or draw(st.booleans()):
            argv += [option, draw(_option_value(bound))]
    if command == "all":
        # a bare `all` runs the default primes 5 and 7 far past degree 120
        argv += ["--config", draw(st.sampled_from(["/no/such/file.json", ".", "\udcff.json"]))]
    argv += draw(st.lists(st.sampled_from(["--json", "--bogus", "7"]), max_size=2))
    return argv


def _run(argv):
    # main returns every exit code; a SystemExit escaping it fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@FUZZ
@given(argvs())
def test_fuzzed_argv_exits_cleanly(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err


# Values that are wrong for every key, or valid and small for every key.
ANY_VALUE = st.one_of(
    st.integers(-3, 2),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
)
PRIME_ENTRY = st.sampled_from([2, 3, 4, 9, 1, 0, -3, True, 3.0, "3", None, [3]])
# A valid prime list half the time, so that the checks behind it are reached.
CONFIG_VALUES = {
    "primes": st.one_of(
        st.sampled_from([[3], [2, 3], [3, 2]]), st.lists(PRIME_ENTRY, max_size=3), PRIME_ENTRY
    ),
    "n_max": st.one_of(st.integers(-10**6, 8), ANY_VALUE),
    "truncation": st.one_of(st.integers(-10**6, 10), ANY_VALUE),
    "deg": st.sampled_from([2, 0, -2, 3, 2.0, "2", True, None]),
    "pages": st.sampled_from([2, 3, 4, 1, 0, -1, 3.5, "3", False]),
}


@st.composite
def config_bodies(draw):
    """Bytes of a config file.  Every object names primes, so the default
    primes 5 and 7, whose page engines run far past degree 120, are never
    used."""
    config = {"primes": draw(CONFIG_VALUES["primes"])}
    for key in ("n_max", "truncation", "deg", "pages"):
        if draw(st.booleans()):
            config[key] = draw(CONFIG_VALUES[key])
    config.update(
        draw(st.dictionaries(st.sampled_from(["bogus", "N_MAX", "max_deg", "", "é"]), ANY_VALUE, max_size=2))
    )
    shape = draw(st.sampled_from(["object", "array", "scalar"]))
    document = {"object": config, "array": list(config.values()), "scalar": 3}[shape]
    body = json.dumps(document, ensure_ascii=draw(st.booleans())).encode()
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(body)))
        body = body[:cut] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"}", b""])) + body[cut:]
    return body


@FUZZ
@given(body=config_bodies(), as_json=st.booleans())
def test_fuzzed_config_exits_cleanly(tmp_path_factory, body, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_bytes(body)
    argv = ["all", "--config", str(path)] + (["--json"] if as_json else [])
    code, err = _run(argv)
    assert code in (0, 1, 2), (body, code, err)
    assert "Traceback" not in err


def test_argv_bytes_that_are_not_utf8_exit_two(tmp_path):
    # In a real process stderr escapes the undecodable bytes echoed back.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for argv in ([b"all", b"--config", b"\xff\xfe.json"], [b"theorem-a", b"--prime", b"\xff"]):
        proc = subprocess.run(
            [sys.executable.encode(), b"-m", b"kverify.cli", *argv],
            capture_output=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert proc.stdout == b""
