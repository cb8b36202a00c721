"""Workloads, golden digests and output checks shared by run.py and tracer.py.

Every input is a fixed CLI argv, so a workload is fully described by its
argv; the benchmark seed never reaches the program.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: CLI argv per workload, without the trailing --json.  Paths are relative
#: to the repository root, which is the working directory of every run.
WORKLOADS = {
    # series mul/compose (through chern s-numbers) and polyring KClass churn
    "sweep-deep": ["all", "--config", "perfbench/sweep_deep.json"],
    # only exact and series.inv run, on order-160 series with large numerators
    "bernoulli-wide": ["bernoulli", "--n-max", "80"],
    # bockstein row reduction on tiny matrices, plus cli sort/emit of 3974 rows
    "bockstein-wide": ["bockstein", "--prime", "31", "--pages", "3"],
}

#: Traced functions the per-layer metrics read, each with the workload that
#: must call it.  A traced run of that workload fails when the function is
#: missing or never called, so a rename cannot read as a zero.  None means
#: every workload.
NAMED_FUNCTIONS = {
    "exact.bernoulli": "bernoulli-wide",
    "exact.bernoulli_recursive": "bernoulli-wide",
    "exact._series_coefficients": "bernoulli-wide",  # lru_cache lookups, not a span
    "series.mul": "sweep-deep",
    "series.compose": "sweep-deep",
    "series.inv": "bernoulli-wide",
    "polyring.KClass.__init__": "sweep-deep",
    "polyring.Claim.admits": "sweep-deep",
    "kops.psi": "sweep-deep",
    "kops.theta": "sweep-deep",
    "kops.artin_hasse_log": "sweep-deep",
    "chern.ch": "sweep-deep",
    "chern.s_eval": "sweep-deep",
    "chern.rk_eigenvalue": "sweep-deep",
    "dyerlashof.akita_counterexample": "sweep-deep",
    "bockstein.rank_mod_p": "bockstein-wide",
    "bockstein.compute_page": "bockstein-wide",
    "bockstein.page_homology_dims": "bockstein-wide",
    "cli.main": None,
    "cli._rows_for": None,
    "cli.sort_reports": None,
}

#: One layer per kverify module; a span's layer is the first part of its name.
LAYERS = ("exact", "series", "polyring", "kops", "chern", "dyerlashof", "bockstein", "cli")

_ELAPSED = re.compile(rb'"elapsed_ms": -?[0-9][0-9.eE+-]*')


def normalised_digest(stdout: bytes) -> str:
    """sha256 of the JSON output with every elapsed_ms value set to 0."""
    return hashlib.sha256(_ELAPSED.sub(b'"elapsed_ms": 0', stdout)).hexdigest()


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_output(workload: str, exit_code: int, stdout: bytes, golden: dict):
    """Return (rows, problems) for one CLI run; no problems means correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        rows = json.loads(stdout)
    except ValueError as err:
        return [], problems + [f"output is not JSON: {err}"]
    not_pass = sum(row.get("status") != "PASS" for row in rows)
    if not_pass:
        problems.append(f"{not_pass} rows are not PASS")
    digest = normalised_digest(stdout)
    if digest != golden[workload]["sha256"]:
        problems.append(f"normalised output digest {digest} differs from the golden")
    return rows, problems


def row_stats(rows: list) -> dict:
    """Counters derived from the emitted rows alone."""
    keys = [json.dumps([row["check_name"], row["parameters"]], sort_keys=True) for row in rows]
    return {
        "rows": len(rows),
        "duplicate_rows": len(keys) - len(set(keys)),
        "row_ms_sum": sum(row["elapsed_ms"] for row in rows),
    }
