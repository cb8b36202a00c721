"""The functions the benchmark's per-layer metrics read still exist, and
each workload still calls the ones named for it.

perfbench/workloads.py names, in NAMED_FUNCTIONS, each function a traced
run must reach, with the workload that must call it.  A traced run reports
a rename or a function that fell off the hot path; these tests report both
in the ordinary test suite, by resolving every name against the package and
by running each workload's argv with a call recorder.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_named_function_resolves():
    names = _workloads().NAMED_FUNCTIONS
    assert names
    missing = []
    for name in names:
        module_name, *path = name.split(".")
        target = importlib.import_module(f"kverify.{module_name}")
        for attr in path:
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(name)
    assert missing == []


# Runs cli.main on the argv in a fresh interpreter, so that no cache this
# test session has filled can spare a call, and prints the exit code and
# the named functions whose code ran.  An lru_cache wrapper counts when the
# function it wraps runs.
_RECORD_CALLS = """
    import contextlib, importlib, io, json, sys
    from kverify import cli

    codes = {{}}
    for name in {names!r}:
        module_name, *path = name.split(".")
        target = importlib.import_module("kverify." + module_name)
        for attr in path:
            target = getattr(target, attr)
        codes[getattr(target, "__wrapped__", target).__code__] = name
    called = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            called.add(codes[frame.f_code])

    sys.settrace(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({argv!r})
    finally:
        sys.settrace(None)
    print(json.dumps([code, sorted(called)]))
"""


@pytest.mark.parametrize("workload", sorted(_workloads().WORKLOADS))
def test_each_workload_calls_the_functions_named_for_it(workload):
    module = _workloads()
    names = sorted(module.NAMED_FUNCTIONS)
    expected = sorted(
        name for name in names if module.NAMED_FUNCTIONS[name] in (None, workload)
    )
    argv = module.WORKLOADS[workload] + ["--json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_RECORD_CALLS.format(names=names, argv=argv))],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, called = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert sorted(set(expected) - set(called)) == []
