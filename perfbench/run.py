"""kverify benchmark: time the CLI end to end, or trace it layer by layer.

    python3 perfbench/run.py --workload sweep-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Untraced (--trace 0): a closed loop with one client.  Each invocation is a
fresh `python -m kverify.cli <argv> --json` process with PYTHONPATH=src; the
next starts after the previous exits, until --seconds have passed.  Every
invocation is checked: exit code 0, every row PASS, and the normalised
output digest equal to perfbench/golden.json.  While it runs, the benchmark
times a fixed probe loop; wall_rel is the wall time in units of that loop,
so that changes in the host's speed cancel (see perfbench/README.md).
Set-up time is the median time for a fresh interpreter to import kverify.cli.

Traced (--trace 1): pairs of in-process runs of cli.main, one plain and one
traced (see tracer.py), until --seconds have passed; per-layer metrics are
medians over the pairs.

--workload all runs every workload untraced and traced, in an order set by
--seed.  Inputs are fixed parameter sets, so the seed only sets that order
and the interleaving of the two kinds of set-up samples.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from workloads import HERE, LAYERS, ROOT, WORKLOADS, check_output, load_golden

OUT = HERE / "out"
SETUP_SAMPLES = 11
#: The probe loop takes about 1.25 ms on the reference host in its fast
#: state and 2 ms in its slow one, and runs every PROBE_GAP_S seconds while
#: the CLI runs.
PROBE_GAP_S = 0.05
PROBE_KEEP = 0.8
#: Probe time on the reference host in its fast state (2 vCPUs, Python
#: 3.11.7); setup_s converts probe loops back to seconds on that host.
PROBE_REFERENCE_S = 0.00125
#: How many problems a run prints; the count of failures is always complete.
SHOWN_PROBLEMS = 5


def probe_loop() -> float:
    """Duration of a fixed pure-Python loop of integer and Fraction
    arithmetic, the operations kverify spends its time in: a yardstick for
    the host's current speed."""
    start = time.perf_counter()
    x, q = 0, Fraction(0)
    for i in range(8000):
        x = (x * 31 + i) % 1000003
    for i in range(1, 150):
        q += Fraction(i % 5, 3) * Fraction(2, i % 7 + 1)
    return time.perf_counter() - start


def host_speed(probes: list[float]) -> float | None:
    """Mean of the fastest PROBE_KEEP share of the probe durations.

    The probe shares the CPU with the CLI, and about 8% of probes wait out
    a scheduler slice at several times their normal duration; dropping the
    slowest fifth removes them.  The host itself switches between a fast
    and a ~1.6x slower state, and the mean of the rest follows the mix of
    the two during the invocation.
    """
    if not probes:
        return None
    kept = sorted(probes)[: max(1, int(len(probes) * PROBE_KEEP))]
    return statistics.fmean(kept)


def invoke(args: list[str], probe: bool = True) -> dict:
    """Run the interpreter once from the repository root; measure wall time,
    child CPU time and peak RSS of that one process.  With probe, time the
    probe loop every PROBE_GAP_S seconds while it runs."""
    env = dict(os.environ, PYTHONPATH="src")
    load_before = os.getloadavg()[0]
    probes = []
    with open(OUT / "stdout.bin", "w+b") as stdout, open(OUT / "stderr.txt", "w+b") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
        exited = os.pidfd_open(proc.pid)
        try:
            while not select.select([exited], [], [], PROBE_GAP_S if probe else None)[0]:
                probes.append(probe_loop())
        finally:
            os.close(exited)
        wall_s = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        output, error_text = stdout.read(), stderr.read().decode(errors="replace")
    return {
        "wall_s": wall_s,
        "probe_s": host_speed(probes),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "load": [load_before, os.getloadavg()[0]],
        "exit": proc.returncode,
        "stdout": output,
        "stderr_tail": error_text[-400:],
    }


def setup_samples(rng: random.Random) -> dict:
    """Fresh-interpreter imports of kverify.cli, beside bare interpreters,
    each in probe loops: its wall time over the mean of one probe just
    before and one just after (the host changes speed on a scale of
    seconds, the import takes a tenth of one)."""
    probes = {"import": ["-c", "import kverify.cli"], "bare": ["-c", "pass"]}
    invoke(probes["import"], probe=False)  # untimed: compiles the bytecode cache once
    order = [kind for kind in probes for _ in range(SETUP_SAMPLES)]
    rng.shuffle(order)
    samples = {kind: [] for kind in probes}
    for kind in order:
        before = probe_loop()
        sample = invoke(probes[kind], probe=False)
        after = probe_loop()
        if sample["exit"] != 0:
            raise SystemExit(f"set-up probe {kind} failed: {sample['stderr_tail']}")
        samples[kind].append((sample["wall_s"], sample["wall_s"] / ((before + after) / 2)))
    return samples


def untraced(workload: str, seconds: float, rng: random.Random, golden: dict) -> dict:
    setup = setup_samples(rng)
    argv = ["-m", "kverify.cli", *WORKLOADS[workload], "--json"]
    samples, problems = [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        sample = invoke(argv)
        _, found = check_output(workload, sample.pop("exit"), sample.pop("stdout"), golden)
        if found:
            problems.append(found + [sample["stderr_tail"]])
        del sample["stderr_tail"]
        samples.append(sample)
    attempted = len(samples)
    # an invocation shorter than one probe gap has no probe (only a crash is that short)
    relative = [s["wall_s"] / s["probe_s"] for s in samples if s["probe_s"]]
    metrics = {
        "setup_s": (
            statistics.median(loops for _, loops in setup["import"]) * PROBE_REFERENCE_S,
            len(setup["import"]),
        ),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), attempted),
        "pass_ratio": ((attempted - len(problems)) / attempted, attempted),
    }
    if relative:
        metrics["wall_rel"] = (statistics.median(relative), len(relative))
    report = {
        "wall_s_median": statistics.median(s["wall_s"] for s in samples),
        "cpu_s_median": statistics.median(s["cpu_s"] for s in samples),
        "setup_raw_s_median": statistics.median(wall for wall, _ in setup["import"]),
        "bare_interpreter_s_median": statistics.median(wall for wall, _ in setup["bare"]),
        "samples": samples,
    }
    return {"metrics": metrics, "attempted": attempted, "problems": problems, "report": report}


def run_tracer(workload: str, spans_path: str | None) -> dict:
    args = [str(HERE / "tracer.py"), workload] + ([spans_path] if spans_path else [])
    sample = invoke(args)
    if sample["exit"] != 0:
        return {"problems": [f"tracer exit {sample['exit']}: {sample['stderr_tail']}"]}
    return {**json.loads(sample["stdout"].splitlines()[-1]), "probe_s": sample["probe_s"]}


def layer_values(plain: dict, traced: dict, spans: dict) -> dict:
    """Every per-layer metric of one plain/traced pair."""
    calls, self_s, total_s = spans["calls"], spans["self_s"], spans["total_s"]
    counters = traced["counters"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds
    lookups = counters["series_coefficients.hits"] + counters["series_coefficients.misses"]
    rank_calls = counters["rank_mod_p.recorded"]
    rows_for_s = total_s["cli._rows_for"]
    values = {
        "exact.bernoulli.calls": calls.get("exact.bernoulli", 0),
        "exact.bernoulli_recursive.calls": calls.get("exact.bernoulli_recursive", 0),
        "exact.bernoulli_recursive.self_s": self_s.get("exact.bernoulli_recursive", 0.0),
        "exact.series_coefficients.misses": counters["series_coefficients.misses"],
        "exact.series_coefficients.hit_ratio": (
            counters["series_coefficients.hits"] / lookups if lookups else 0.0
        ),
        "series.mul.calls": calls.get("series.mul", 0),
        "series.mul.products": counters["series.mul.products"],
        "series.mul.self_s": self_s.get("series.mul", 0.0),
        "series.compose.calls": calls.get("series.compose", 0),
        "series.compose.self_s": self_s.get("series.compose", 0.0),
        "series.inv.calls": calls.get("series.inv", 0),
        "series.inv.self_s": self_s.get("series.inv", 0.0),
        "polyring.KClass.constructed": calls.get("polyring.KClass.__init__", 0),
        "polyring.Claim.admits.calls": calls.get("polyring.Claim.admits", 0),
        "kops.psi.calls": calls.get("kops.psi", 0),
        "kops.psi.self_s": self_s.get("kops.psi", 0.0),
        "kops.theta.calls": calls.get("kops.theta", 0),
        "kops.artin_hasse_log.total_s": total_s.get("kops.artin_hasse_log", 0.0),
        "chern.ch.calls": calls.get("chern.ch", 0),
        "chern.s_eval.calls": calls.get("chern.s_eval", 0),
        "chern.rk_eigenvalue.calls": calls.get("chern.rk_eigenvalue", 0),
        "chern.rk_eigenvalue.total_s": total_s.get("chern.rk_eigenvalue", 0.0),
        "dyerlashof.akita_counterexample.calls": calls.get("dyerlashof.akita_counterexample", 0),
        "dyerlashof.akita_counterexample.total_s": total_s.get(
            "dyerlashof.akita_counterexample", 0.0
        ),
        "bockstein.rank_mod_p.calls": calls.get("bockstein.rank_mod_p", 0),
        "bockstein.rank_mod_p.distinct_ratio": (
            counters["rank_mod_p.distinct"] / rank_calls if rank_calls else 0.0
        ),
        "bockstein.rank_mod_p.self_s": self_s.get("bockstein.rank_mod_p", 0.0),
        "bockstein.compute_page.total_s": total_s.get("bockstein.compute_page", 0.0),
        "bockstein.page_homology_dims.self_s": self_s.get("bockstein.page_homology_dims", 0.0),
        "cli.rows": traced["rows"],
        "cli.duplicate_rows": traced["duplicate_rows"],
        "cli.sort_s": total_s["cli.sort_reports"],
        "cli.emit_s": total_s["cli.main"] - rows_for_s - total_s["cli.sort_reports"],
        "cli.row_time_coverage": traced["row_ms_sum"] / 1000 / rows_for_s,
        "tracing.traced_s": spans["root_s"],
        # each main() time in probe loops, so host speed changes cancel
        "tracing.overhead_ratio": (traced["main_s"] / traced["probe_s"])
        / (plain["main_s"] / plain["probe_s"]),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.share"] = layer_self[layer] / spans["root_s"]
    return values


def traced(workload: str, seconds: float) -> dict:
    from tracer import aggregate

    spans_path = str(OUT / f"{workload}.spans")
    pairs, problems = [], []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        plain = run_tracer(workload, None)
        traced_run = run_tracer(workload, spans_path)
        found = plain["problems"] + traced_run["problems"]
        if found:
            problems.append(found)
            pairs.append(None)
            continue
        pairs.append(layer_values(plain, traced_run, aggregate(spans_path)))
    measured = [pair for pair in pairs if pair is not None]
    metrics = {
        name: (statistics.median(pair[name] for pair in measured), len(measured))
        for name in (measured[0] if measured else {})
    }
    return {
        "metrics": metrics,
        "attempted": len(pairs),
        "problems": problems,
        "report": {"pairs": len(pairs)},
    }


def provenance(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    sha = git("rev-parse", "HEAD")
    return {
        "seed": seed,
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def measure(workload: str, trace: int, seconds: float, rng: random.Random, golden: dict) -> dict:
    result = traced(workload, seconds) if trace else untraced(workload, seconds, rng, golden)
    shown, result["missing"] = [], []
    for spec in declared_metrics()[trace]:
        name, unit = spec["name"], spec["unit"]
        if name not in result["metrics"]:
            result["missing"].append(name)
            continue
        value, count = result["metrics"][name]
        shown.append((name, value, unit))
        print(f"{workload:15} {name:42} {value:>14.6g} {unit:8} n={count}")
    result["shown"] = shown
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kverify" / "cli.py").is_file():
        print(f"error: no kverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    golden = load_golden()
    if args.workload == "all":
        plan = [(w, t) for w in rng.sample(list(WORKLOADS), len(WORKLOADS)) for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    attempted, problems, missing, metrics = 0, [], [], {}
    report = {"provenance": provenance(args.seed)}
    for workload, trace in plan:
        result = measure(workload, trace, args.seconds, rng, golden)
        attempted += result["attempted"]
        problems += result["problems"]
        missing += result["missing"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value, unit in result["shown"]:
            metrics[prefix + name] = {"value": value, "unit": unit}
        report[f"{workload}/trace{trace}"] = result["report"]
    report["provenance"]["loadavg_after"] = os.getloadavg()
    report["problems"] = problems[:SHOWN_PROBLEMS]
    report["metrics_not_measured"] = missing
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not problems and not missing,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
