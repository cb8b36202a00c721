"""What each command loads, what importing the package loads, and what a
run leaves behind: the collector's state and the modules' containers.

Every check runs in a fresh interpreter, so that nothing this test session
has already imported can hide a module that a command loads."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import MODULES

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(script: str):
    """Run script in a new interpreter that imports kverify from this
    checkout; return the JSON value of its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Modules no command loads: dataclasses (and with it inspect, ast, dis and
# tokenize), and argparse with the gettext and locale it loads.
_HEAVY = ("argparse", "dataclasses", "gettext", "locale")

# The json package is imported only after the run, to print the result.
_LOADED_BY = """
    import contextlib, io, sys
    from kverify.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main({argv!r})
    loaded = sorted(name for name in sys.modules if name.split(".")[0] in ("kverify", "json"))
    heavy = [name for name in {heavy!r} if name in sys.modules]
    import json
    print(json.dumps([code, loaded, heavy]))
"""

_BARE = """
    import sys
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "json")
    heavy = [name for name in {heavy!r} if name in sys.modules]
    import json
    print(json.dumps([loaded, heavy]))
"""

_CLI = ["kverify", "kverify.cli", "kverify.exact", "kverify.report"]
_CHERN = _CLI + ["kverify.chern", "kverify.polyring", "kverify.series"]
_JSON = ["json", "json.decoder", "json.encoder", "json.scanner"]


# No command loads a module of _HEAVY, and only `all`, which reads its
# --config file, loads the json package.  The eigenvalue suites read the
# conjugate-average class from polyring, so of the commands only
# `artin-hasse` and `all` load the operations of kops.
@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["bernoulli", "--n-max", "2", "--json"], _CLI + ["kverify.series"]),
        (["bockstein", "--prime", "3", "--max-deg", "60", "--json"], _CLI + ["kverify.bockstein"]),
        (["theorem-a", "--prime", "5", "--n-max", "2", "--json"], _CHERN),
        (["eigenvalue", "--prime", "5", "--n-max", "2", "--json"], _CHERN),
        (["akita", "--prime", "3", "--json"], _CHERN + ["kverify.dyerlashof"]),
        (["artin-hasse", "--prime", "3", "--truncation", "4", "--json"], _CHERN + ["kverify.kops"]),
        (
            ["all", "--config", "-", "--json"],
            sorted(_JSON + ["kverify"] + [f"kverify.{name}" for name in MODULES]),
        ),
    ],
    ids=["bernoulli", "bockstein", "theorem-a", "eigenvalue", "akita", "artin-hasse", "all"],
)
def test_each_command_loads_only_the_modules_its_suite_runs(tmp_path, argv, loaded):
    if "-" in argv:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"primes": [2, 3], "n_max": 2, "truncation": 4}))
        argv = [str(config) if arg == "-" else arg for arg in argv]
    # the modules a bare interpreter loads at start-up are no command's doing
    bare_json, bare_heavy = _fresh(_BARE.format(heavy=_HEAVY))
    run = _fresh(_LOADED_BY.format(argv=argv, heavy=_HEAVY))
    assert run == [0, sorted(set(loaded) | set(bare_json)), bare_heavy]


def test_only_the_program_freezes_the_loaded_heap():
    # main() reads sys.argv, freezes what is loaded, which lives until exit,
    # and turns the collector off; main(argv), as a host process calls it,
    # leaves the collector be
    checks = _fresh(
        """
        import contextlib, gc, io, json, sys
        from kverify.cli import main
        checks = {"before": [gc.get_freeze_count(), gc.isenabled()]}
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["bernoulli", "--n-max", "2"])
            checks["in_process"] = [code, gc.get_freeze_count(), gc.isenabled()]
            sys.argv = ["kverify", "bernoulli", "--n-max", "2"]
            code = main()
            checks["program"] = [code, gc.get_freeze_count(), gc.isenabled()]
        print(json.dumps(checks))
        """
    )
    assert checks["before"] == [0, True]
    assert checks["in_process"] == [0, 0, True]
    code, frozen, enabled = checks["program"]
    assert code == 0 and frozen > 0 and not enabled


def test_importing_the_package_loads_only_its_bernoulli_binding():
    checks = _fresh(
        """
        import json, sys
        import kverify
        checks = {"loaded": sorted(n for n in sys.modules if n.split(".")[0] == "kverify")}
        checks["binding"] = kverify.bernoulli is sys.modules["kverify.exact"].bernoulli
        print(json.dumps(checks))
        """
    )
    assert checks == {"loaded": ["kverify", "kverify.exact", "kverify.report"], "binding": True}


def test_a_run_leaves_every_module_container_as_it_found_it():
    # what a run keeps lives in lru_caches, which clear_caches() empties; a
    # module-level list, dict or set that a run fills would outlive that reset
    checks = _fresh(
        """
        import contextlib, copy, importlib, io, json, pkgutil
        import kverify
        from kverify.cli import main
        modules = [kverify] + [
            importlib.import_module(f"kverify.{info.name}")
            for info in pkgutil.iter_modules(kverify.__path__)
        ]
        containers = {
            f"{module.__name__}.{name}": value
            for module in modules
            for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, (list, dict, set))
        }
        before = copy.deepcopy(containers)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["all", "--json"])
        changed = sorted(name for name, value in containers.items() if value != before[name])
        print(json.dumps([code, len(containers), changed]))
        """
    )
    code, count, changed = checks
    assert code == 0 and count > 0 and changed == []


# Each command's argv, and the modules that its run loads: cli, exact and
# polyring (with report and series) are loaded before the run, so every
# module that holds a suite, but exact, loads during it.
_RUN_LOADS = {
    "bernoulli": (["bernoulli", "--n-max", "2"], []),
    "bockstein": (["bockstein", "--prime", "3", "--max-deg", "60"], ["bockstein"]),
    "theorem-a": (["theorem-a", "--prime", "5", "--n-max", "2"], ["chern"]),
    "eigenvalue": (["eigenvalue", "--prime", "5", "--n-max", "2"], ["chern"]),
    "akita": (["akita", "--prime", "3"], ["chern", "dyerlashof"]),
    "artin-hasse": (["artin-hasse", "--prime", "3", "--truncation", "4"], ["chern", "kops"]),
    "all": (["all"], ["bockstein", "chern", "dyerlashof", "kops"]),
}


@pytest.mark.parametrize("command", _RUN_LOADS)
def test_modules_loaded_during_a_run_copy_no_patched_function(command):
    # A module that a suite loads on demand must read its siblings'
    # functions through the module, or it keeps whatever wrapper or patch
    # was bound when it loaded (the benchmark's tracer checks this too).
    argv, loads = _RUN_LOADS[command]
    checks = _fresh(
        f"""
        import contextlib, io, json, sys
        from kverify import cli, exact, polyring, report, series

        def sentinel(fn):
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)
            wrapper.sentinel = True
            return wrapper

        def loaded():
            return {{name for name in sys.modules if name.split(".")[0] == "kverify"}}

        patched = [
            (module, name)
            for module in (exact, polyring, report, series)
            for name, value in vars(module).items()
            if callable(value) and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
        ]
        originals = [getattr(module, name) for module, name in patched]
        before = loaded()
        for module, name in patched:
            setattr(module, name, sentinel(getattr(module, name)))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                checks = {{"code": cli.main({argv!r})}}
        finally:
            for (module, name), original in zip(patched, originals):
                setattr(module, name, original)
        checks["patched"] = len(patched)
        checks["loads"] = sorted(name.split(".")[1] for name in loaded() - before)
        owners = []
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "kverify":
                owners.append(module)
                owners += [
                    value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == name
                ]
        checks["leftovers"] = sorted(
            f"{{getattr(owner, '__name__', owner)}}.{{attr}}"
            for owner in owners
            for attr, value in vars(owner).items()
            if getattr(value, "sentinel", False)
        )
        print(json.dumps(checks))
        """
    )
    assert checks.pop("patched") > 20
    assert checks == {"code": 0, "loads": loads, "leftovers": []}


def _imports_of_the_package(path: Path):
    """(name of the enclosing function or None, what is imported) for each
    import of a kverify module in the file at path.  A call of
    import_module is an import of a module named at run time, "?"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("kverify")):
            names = [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.startswith("kverify")]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "import_module":
            names = ["?"]
        else:
            continue
        scope = parents.get(node)
        while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.Lambda)):
            scope = parents.get(scope)
        for name in names:
            yield getattr(scope, "name", None), name.rpartition(".")[2]


def test_no_module_imports_cli_and_only_the_suite_lookup_imports_on_demand():
    # cli runs as __main__ under `python -m kverify.cli`, so a module that
    # imported it would compile and run it a second time
    local = set()
    for path in sorted((SRC / "kverify").glob("*.py")):
        for function, name in _imports_of_the_package(path):
            assert name != "cli", f"{path.name} imports cli"
            if function is not None:
                local.add((path.stem, function, name))
    assert local == {("cli", "_suite", "?"), ("exact", "_series_coefficients", "series")}


def test_each_check_is_declared_through_report_rows():
    # a thunk takes its row's key as arguments, so no lambda reads a loop
    # variable through a default argument; and only report.rows, and the
    # page engine's summary row in bockstein.page_rows, call run_check
    defaults, callers = [], set()
    for path in sorted((SRC / "kverify").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Lambda) and (node.args.defaults or any(node.args.kw_defaults)):
                defaults.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and "run_check" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                scope = parents[node]
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parents[scope]
                callers.add((path.stem, getattr(scope, "name", None)))
    assert defaults == []
    assert callers == {("report", "rows"), ("bockstein", "page_rows")}
