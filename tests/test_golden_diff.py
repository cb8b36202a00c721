"""tools/golden_diff.py accepts a re-pinned capture only when each changed,
removed or added row is accounted for."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("golden_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(check, n, lhs="1", status="PASS", elapsed_ms=0):
    return {
        "check_name": check,
        "elapsed_ms": elapsed_ms,
        "lhs": lhs,
        "notes": [],
        "parameters": {"n": n},
        "rhs": lhs if status == "PASS" else "0",
        "status": status,
    }


def _run(tmp_path, capsys, old, new, *allow):
    paths = []
    for name, rows in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(rows, indent=2, sort_keys=True))
        paths.append(str(path))
    argv = paths + [arg for text in allow for arg in ("--allow", text)]
    code = _tool().main(argv)
    return code, capsys.readouterr().out


def test_rejects_an_unlisted_changed_row(tmp_path, capsys):
    old = [_row("bernoulli-value", 1), _row("bernoulli-value", 2)]
    new = [_row("bernoulli-value", 1), _row("bernoulli-value", 2, lhs="2")]
    code, out = _run(tmp_path, capsys, old, new)
    assert code == 1
    assert "bernoulli-value: removed 0, added 0, changed 1" in out


def test_rejects_an_added_fail_row(tmp_path, capsys):
    old = [_row("bernoulli-value", 1)]
    new = old + [_row("bernoulli-value", 2, status="FAIL")]
    code, out = _run(tmp_path, capsys, old, new, "bernoulli-value=the check is allowed")
    assert code == 1
    assert "bernoulli-value: removed 0, added 1, changed 0" in out
    assert "added row is FAIL" in out


def test_accepts_removing_an_exact_repeat(tmp_path, capsys):
    # elapsed_ms is ignored, so the kept row may read another time
    old = [_row("cleared-ratio-identity", 3), _row("cleared-ratio-identity", 3, elapsed_ms=4)]
    new = [_row("cleared-ratio-identity", 3, elapsed_ms=1)]
    code, out = _run(tmp_path, capsys, old, new)
    assert code == 0
    assert "cleared-ratio-identity: removed 1, added 0, changed 0" in out


def test_accepts_a_listed_change(tmp_path, capsys):
    old = [_row("eigenvalue-truncation-stable", 1), _row("bernoulli-value", 1)]
    new = [_row("eigenvalue-truncation-stable", 1, lhs="x"), _row("bernoulli-value", 1)]
    reason = "the rhs is now the polynomial identity"
    code, out = _run(tmp_path, capsys, old, new, f"eigenvalue-truncation-stable={reason}")
    assert code == 0
    assert f"eigenvalue-truncation-stable: removed 0, added 0, changed 1  (allowed: {reason})" in out
    assert "bernoulli-value" not in out
