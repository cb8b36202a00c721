"""Time two checkouts against each other in alternating pairs of benchmark runs.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seconds S]

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
once in each checkout, from that checkout's root; odd pairs run the parent
first, even pairs the change, and pair K uses seed K.  --seconds defaults to
the benchmark's run length (``run_seconds`` of BENCHMARK.json).

The script prints every pair's end-to-end metrics, then per metric each
side's median and quartiles, the change's wins (a tie counts for neither
side) and whether a claimed gain would hold: the change is better in at
least 9 of 10 pairs, and its median is better than the parent's by more
than the parent's interquartile range.  Which direction is better comes
from BENCHMARK.json in CHANGE_DIR.  Exit status 0, or 1 when a run fails
or reports an incorrect result.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # the change must win at least this share of the pairs


def declared(checkout: Path) -> tuple[dict[str, str], float]:
    """({end-to-end metric: "lower" or "higher"}, run_seconds) of a checkout's benchmark."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}, spec["run_seconds"]


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced benchmark run in checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The change against the parent on one metric, values paired by index.

    wins counts the pairs where the change is strictly better; gain_holds
    says whether it wins at least WIN_SHARE of the pairs and its median is
    better than the parent's by more than the parent's interquartile range."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gap = sign * (p_median - c_median)
    return {
        "wins": wins,
        "pairs": len(parent),
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "relative": c_median / p_median - 1 if p_median else 0.0,
        "gain_holds": wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    directions, run_seconds = declared(args.change)
    seconds = run_seconds if args.seconds is None else args.seconds
    values = {side: {name: [] for name in directions} for side in ("parent", "change")}
    failed = False
    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s runs")
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        results = {
            side: run_side(getattr(args, side), args.workload, pair, seconds) for side in order
        }
        for side, result in results.items():
            if not result["correct"] or result["failed"]:
                failed = True
                print(f"pair {pair}: {side} run is not correct: {result['failed']} failed")
        cells = []
        for name in directions:
            pv, cv = (results[side]["metrics"][name]["value"] for side in ("parent", "change"))
            values["parent"][name].append(pv)
            values["change"][name].append(cv)
            cells.append(f"{name} {pv:.6g} -> {cv:.6g}")
        print(f"pair {pair:2} ({order[0]} first, seed {pair}): " + ", ".join(cells), flush=True)
    print(f"\n{'metric':12} {'better':6} {'parent q1/median/q3':>30} {'change q1/median/q3':>30}"
          f" {'median':>8} {'wins':>6}  gain holds")
    for name, better in directions.items():
        result = verdict(values["parent"][name], values["change"][name], better)
        parent = "/".join(f"{v:.4g}" for v in result["parent"])
        change = "/".join(f"{v:.4g}" for v in result["change"])
        holds = "yes" if result["gain_holds"] else "no"
        print(f"{name:12} {better:6} {parent:>30} {change:>30} {result['relative']:>+8.1%}"
              f" {result['wins']:>3}/{result['pairs']:<2}  {holds}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
