"""The functions the benchmark's per-layer metrics read still exist.

perfbench/workloads.py names, in NAMED_FUNCTIONS, each function a traced
run must reach.  A traced run reports a rename there; this test reports it
in the ordinary test suite, by resolving every name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _named_functions() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NAMED_FUNCTIONS


def test_every_named_function_resolves():
    names = _named_functions()
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
