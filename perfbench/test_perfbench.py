"""Self-tests of the benchmark: python3 -m pytest perfbench

The traced-run tests run every workload once (about half a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import OUT, layer_values, run_tracer
from tracer import Tracer, aggregate, mul_products, named_problems
from workloads import NAMED_FUNCTIONS, ROOT, WORKLOADS, normalised_digest

sys.path.insert(0, str(ROOT / "src"))

import kverify  # noqa: E402
from kverify import chern, cli, exact, polyring, series  # noqa: E402


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_every_workload_once():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {"wall_rel", "setup_s"} <= {m["name"] for m in spec["end_to_end"]}


def test_digest_ignores_only_elapsed_ms():
    base = b'[{"elapsed_ms": 12, "lhs": "1/6"}]'
    assert normalised_digest(base) == normalised_digest(b'[{"elapsed_ms": 0, "lhs": "1/6"}]')
    assert normalised_digest(base) != normalised_digest(b'[{"elapsed_ms": 12, "lhs": "1/7"}]')


def test_mul_products_counts_what_mul_multiplies():
    a, b = (1, 0, 2, 3), (0, 5, 0, 7)
    expected = sum(1 for i, x in enumerate(a) for j, y in enumerate(b) if x and y and i + j <= 3)
    assert mul_products(a, b, 3) == expected == 3


def test_named_problems_catch_a_rename_and_a_function_never_called():
    calls = {name: 1 for name in NAMED_FUNCTIONS}
    assert named_problems("sweep-deep", calls) == []
    del calls["series.mul"]
    calls["bockstein.rank_mod_p"] = 0
    found = named_problems("bockstein-wide", calls)
    assert any("series.mul is not traced" in p for p in found)
    assert any("rank_mod_p was never called" in p for p in found)
    assert named_problems("sweep-deep", {**calls, "series.mul": 1}) == []


def test_install_rebinds_every_holder_and_remove_restores():
    originals = (cli.bernoulli, kverify.bernoulli, chern.s_eval, polyring.KClass.__add__)
    tracer = Tracer([exact, series, polyring, chern, cli])
    tracer.install()
    try:
        assert cli.bernoulli is exact.bernoulli is kverify.bernoulli
        assert cli.bernoulli is not originals[0]
        assert polyring.KClass.__radd__ is polyring.KClass.__add__ is not originals[3]
        assert cli.main(["akita", "--prime", "3"]) == 0
    finally:
        leftovers = tracer.remove()
    assert leftovers == []
    assert (cli.bernoulli, kverify.bernoulli, chern.s_eval, polyring.KClass.__add__) == originals
    OUT.mkdir(exist_ok=True)
    path = OUT / "selftest-akita.spans"
    tracer.write(str(path), "akita")
    spans = aggregate(str(path))
    assert spans["calls"]["cli.main"] == 1
    assert spans["calls"]["exact.bernoulli"] > 0
    assert spans["root_s"] == pytest.approx(spans["total_s"]["cli.main"])
    assert sum(spans["self_s"].values()) == pytest.approx(spans["root_s"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_matches_golden_and_hits_named_functions(workload):
    OUT.mkdir(exist_ok=True)
    spans_path = str(OUT / f"selftest-{workload}.spans")
    traced = run_tracer(workload, spans_path)
    assert traced["problems"] == []
    values = layer_values(traced, traced, aggregate(spans_path))
    assert set(values) == {m["name"] for m in _spec()["per_layer"]}
    dominant = {
        "sweep-deep": ("series", "polyring", "chern"),
        "bernoulli-wide": ("exact",),
        "bockstein-wide": ("bockstein",),
    }[workload]
    assert sum(values[f"{layer}.share"] for layer in dominant) > 0.5


def test_refuses_to_run_without_the_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bernoulli-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
