"""Time every kverify run that README quotes a time for.

    python3 tools/measure.py

Each case of CASES runs ROUNDS times as a fresh ``--json`` process against
this checkout's ``src``, with the cases in alternating order (forward, then
backward), next to a bare interpreter (``python3 -c pass``) for scale.
Every process runs through ``invoke`` of ``perfbench/run.py``, which times
the benchmark's host-speed probe loop while the process runs, and a time
is quoted as wall / probe x ``PROBE_REFERENCE_S``: the seconds the run
takes on the benchmark's reference host in its fast state, so that the
host's changes of speed cancel, as they do in the benchmark's ``wall_rel``.
A run too short for a probe is scaled by one probe timed just after it.
A case runs through a ``-c`` wrapper that calls ``kverify.cli.main()`` as
the ``kverify`` script does, so it reads its argv from ``sys.argv`` and
runs in program mode, writes the report to ``os.devnull`` and then reads
its own peak RSS, ``VmHWM`` of ``/proc/self/status`` (Linux), so the figure
is the CLI's alone, not a high-water mark inherited across exec.

The script prints min, median and max of the scaled times, the raw wall
times and the peak RSS of each case, then the timed end of each "why the
ceiling" cell of README's input table, ready to paste.  It takes no
options.  Exit status 0, or 1 when a run fails or reports a row that is
not PASS.  Standard library only.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import OUT, PROBE_REFERENCE_S, invoke, probe_loop  # noqa: E402

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

# The wrapper discards the report, so a time holds no file write and invoke
# reads no output back.  It reads the peak RSS of its own address space,
# VmHWM, which exec starts afresh; ru_maxrss would keep the high-water mark
# of this process, whose address space the child shares until exec.
_CHILD = """\
import os, sys
os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
from kverify.cli import main
code = main()
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
sys.stderr.write("peak_rss_kb %s\\n" % peak)
sys.exit(code)
"""


def run_once(case: str) -> tuple[float, float, float | None]:
    """(wall seconds, scaled seconds, peak RSS in MB, None for the bare
    interpreter) of one fresh process."""
    if case == BARE:
        args = ["-c", "pass"]
    else:
        args = ["-c", _CHILD, *case.split(), "--json"]
    done = invoke(args)
    if done["exit"] != 0:
        raise RuntimeError(f"{case}: exit {done['exit']}: {done['stderr_tail']}")
    wall = done["wall_s"]
    scaled = wall / (done["probe_s"] or probe_loop()) * PROBE_REFERENCE_S
    if case == BARE:
        return wall, scaled, None
    return wall, scaled, int(done["stderr_tail"].split()[-1]) / 1024


def seconds(value: float) -> str:
    """Two or three significant digits, as README quotes times."""
    return f"{value:.2f}" if value < 1 else f"{value:.1f}" if value < 10 else f"{value:.0f}"


def readme_cells(times: dict) -> dict[str, str]:
    """{setting: the timed end of its README ceiling cell}: "`ARGV` takes
    MIN-MAX s" over {case: [seconds, ...]}, joined with commas and a last
    "and"."""
    phrases = {}
    for setting, case in CASES:
        low, high = min(times[case]), max(times[case])
        phrases.setdefault(setting, []).append(f"`{case}` takes {seconds(low)}-{seconds(high)} s")
    return {
        setting: ", ".join(items[:-1]) + " and " + items[-1] if len(items) > 1 else items[0]
        for setting, items in phrases.items()
    }


def main() -> int:
    OUT.mkdir(exist_ok=True)
    cases = [BARE] + [case for _, case in CASES]
    walls = {case: [] for case in cases}
    scaled = {case: [] for case in cases}
    rss = {case: [] for case in cases}
    for round_ in range(ROUNDS):
        for case in cases if round_ % 2 == 0 else cases[::-1]:
            try:
                wall, time_s, peak = run_once(case)
            except RuntimeError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            walls[case].append(wall)
            scaled[case].append(time_s)
            rss[case].append(peak)
    print(
        f"{ROUNDS} fresh --json processes per case, alternating order; Python "
        f"{platform.python_version()}, {os.cpu_count()} CPUs, PYTHONDONTWRITEBYTECODE="
        f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}; times are wall / probe x "
        f"{PROBE_REFERENCE_S} s\n"
    )
    print(f"{'case':50} {'min s':>7} {'median s':>9} {'max s':>7} {'raw wall s':>13} {'peak RSS MB':>12}")
    for case in cases:
        values = scaled[case]
        raw = f"{min(walls[case]):.3f}-{max(walls[case]):.3f}"
        peak = "-" if case == BARE else f"{max(rss[case]):.1f}"
        print(
            f"{case:50} {min(values):7.3f} {statistics.median(values):9.3f} {max(values):7.3f}"
            f" {raw:>13} {peak:>12}"
        )
    print('\nREADME ceiling table, the timed end of each "why the ceiling" cell:')
    for setting, cell in readme_cells(scaled).items():
        print(f"{setting:10} {cell}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
