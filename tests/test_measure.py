"""tools/measure.py times every run that README quotes a time for.

These tests compare names only, never times."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "measure.py"

# a quoted time, a median and its quartiles, "0.32 s (0.30-0.34)", and the
# form README quotes it in
NUMBER = r"\d+(?:\.\d+)?"
TIME = rf"{NUMBER} s \({NUMBER}-{NUMBER}\)"
TIMED_RUN = re.compile(r"`([^`]+)` takes " + TIME)


def _tool():
    spec = importlib.util.spec_from_file_location("measure", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _readme_timed_runs():
    """{setting: [argv, ...]} of the timed runs quoted in each "why the
    ceiling" cell of README's table, keyed as the table's first option."""
    readme = (ROOT / "README.md").read_text()
    header = "| input | minimum | ceiling | why the ceiling |"
    runs = {}
    for line in readme[readme.index(header) :].splitlines()[2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        option = re.search(r"`--([a-z-]+)", cells[0]).group(1).replace("-", "_")
        argvs = TIMED_RUN.findall(cells[3])
        if argvs:
            runs[option] = argvs
    return runs


def test_every_run_readme_times_is_a_case():
    readme = (ROOT / "README.md").read_text()
    # every time README quotes is "`ARGV` takes MEDIAN s (Q1-Q3)" in the
    # ceiling table
    table = _readme_timed_runs()
    assert len(re.findall(TIME, readme)) == sum(map(len, table.values()))
    cases = {}
    for setting, argv in _tool().CASES:
        cases.setdefault(setting, []).append(argv)
    assert table == cases


def test_readme_cells_join_the_runs_of_a_setting():
    tool = _tool()
    # quartiles ("exclusive" method): 0.35, 0.55 and 1.2, or 4.4 at the top
    # for the k cases, whose 14 s run moves only the third quartile
    walls = {
        argv: [0.5, 0.2, 14.0 if setting == "k" else 1.2, 0.6, 0.4, 1.2]
        for setting, argv in tool.CASES
    }
    cells = tool.readme_cells(walls)
    assert set(cells) == {setting for setting, _ in tool.CASES}
    assert cells["prime"] == "`akita --prime 199` takes 0.55 s (0.35-1.2)"
    assert cells["k"].count(" takes 0.55 s (0.35-4.4)") == 2 and ", " not in cells["k"]
    assert cells["n_max"].count(", ") == 2 and cells["n_max"].count(" and ") == 1
