"""Time every kverify run that README quotes a time for.

    python3 tools/measure.py

Each case of CASES runs ROUNDS times as a fresh ``--json`` process against
this checkout's ``src``, with the cases in alternating order (forward, then
backward), next to a bare interpreter (``python3 -c pass``) for scale.  A
case runs through a ``-c`` wrapper that calls ``kverify.cli.main()`` as the
``kverify`` script does, so it reads its argv from ``sys.argv`` and runs in
program mode, and then reads its own peak RSS with
``resource.getrusage(RUSAGE_SELF)`` at exit, so the figure is the CLI's
alone, not a high-water mark inherited across exec.

The script prints min, median and max wall time and the peak RSS of each
case, then the timed end of each "why the ceiling" cell of README's input
table, ready to paste.  It takes no options.  Exit status 0, or 1 when a
run fails or reports a row that is not PASS.  Standard library only.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 4  # fresh processes per case

# (setting whose README ceiling cell quotes the time, argv), in the order
# the cell quotes them: every argv that README quotes a time for.
CASES = (
    ("prime", "akita --prime 199"),
    ("k", "eigenvalue --prime 5 --k 999 --n-max 200"),
    ("k", "theorem-a --prime 5 --k 999 --n-max 200"),
    ("n_max", "bernoulli --n-max 200"),
    ("n_max", "theorem-a --n-max 200"),
    ("n_max", "theorem-a --prime 199 --n-max 200"),
    ("n_max", "eigenvalue --n-max 200"),
    ("truncation", "artin-hasse --truncation 128"),
    ("truncation", "artin-hasse --prime 199 --truncation 128"),
    ("pages", "bockstein --prime 31 --pages 64"),
    ("max_deg", "bockstein --prime 3 --max-deg 250000 --pages 64"),
)

BARE = "python3 -c pass"

_CHILD = """\
import sys
from kverify.cli import main
code = main()
import resource
sys.stdout.flush()
sys.stderr.write("peak_rss_kb %d\\n" % resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def run_once(case: str, env: dict) -> tuple[float, float | None]:
    """(wall seconds, peak RSS in MB, None for the bare interpreter) of one
    fresh process."""
    if case == BARE:
        argv = [sys.executable, "-c", "pass"]
    else:
        argv = [sys.executable, "-c", _CHILD, *case.split(), "--json"]
    start = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{case}: exit {done.returncode}: {done.stderr[-400:]}")
    if case == BARE:
        return wall, None
    return wall, int(done.stderr.split()[-1]) / 1024


def seconds(value: float) -> str:
    """Two or three significant digits, as README quotes times."""
    return f"{value:.2f}" if value < 1 else f"{value:.1f}" if value < 10 else f"{value:.0f}"


def readme_cells(walls: dict) -> dict[str, str]:
    """{setting: the timed end of its README ceiling cell}: "`ARGV` takes
    MIN-MAX s", joined with commas and a last "and"."""
    phrases = {}
    for setting, case in CASES:
        low, high = min(walls[case]), max(walls[case])
        phrases.setdefault(setting, []).append(f"`{case}` takes {seconds(low)}-{seconds(high)} s")
    return {
        setting: ", ".join(items[:-1]) + " and " + items[-1] if len(items) > 1 else items[0]
        for setting, items in phrases.items()
    }


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cases = [BARE] + [case for _, case in CASES]
    walls = {case: [] for case in cases}
    rss = {case: [] for case in cases}
    for round_ in range(ROUNDS):
        for case in cases if round_ % 2 == 0 else cases[::-1]:
            try:
                wall, peak = run_once(case, env)
            except RuntimeError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            walls[case].append(wall)
            rss[case].append(peak)
    print(
        f"{ROUNDS} fresh --json processes per case, alternating order; Python "
        f"{platform.python_version()}, {os.cpu_count()} CPUs, PYTHONDONTWRITEBYTECODE="
        f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}\n"
    )
    print(f"{'case':50} {'min s':>7} {'median s':>9} {'max s':>7} {'peak RSS MB':>12}")
    for case in cases:
        values = walls[case]
        peak = "-" if case == BARE else f"{max(rss[case]):.1f}"
        print(
            f"{case:50} {min(values):7.3f} {statistics.median(values):9.3f} {max(values):7.3f} {peak:>12}"
        )
    print('\nREADME ceiling table, the timed end of each "why the ceiling" cell:')
    for setting, cell in readme_cells(walls).items():
        print(f"{setting:10} {cell}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
