"""Compare two ``kverify ... --json`` captures of the same argv, row by row.

    python3 tools/golden_diff.py OLD NEW [--allow CHECK=REASON ...]

Each capture is read as a multiset of rows keyed by (check name,
parameters); elapsed_ms is ignored.  Within a key, rows equal in both
captures cancel; the rest pair up in sorted order as changed rows, and any
left over are removed (only in OLD) or added (only in NEW).  The script
prints the removed, added and changed counts of each check name and exits 0
only when

- every removed row repeats a row kept in NEW under its key, with the same
  status, lhs and rhs, or its check is allowed;
- every added row is PASS;
- every changed row's check is allowed.

``--allow CHECK=REASON`` allows the removed and changed rows of one check
name and prints the reason with its counts.  A rejected diff exits 1, a
usage problem 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter


def _rows(path: str) -> dict[tuple[str, str], Counter]:
    """Key -> multiset of row bodies, each the row without elapsed_ms as
    canonical JSON."""
    with open(path, encoding="utf-8") as handle:
        rows = json.load(handle)
    out: dict[tuple[str, str], Counter] = {}
    for row in rows:
        body = {name: value for name, value in row.items() if name != "elapsed_ms"}
        key = (row["check_name"], json.dumps(row["parameters"], sort_keys=True))
        out.setdefault(key, Counter())[json.dumps(body, sort_keys=True)] += 1
    return out


def _verdict(row: str) -> tuple:
    body = json.loads(row)
    return body["status"], body["lhs"], body["rhs"]


def diff(old: dict, new: dict, allowed: dict[str, str]) -> tuple[dict, list[str]]:
    """(check name -> Counter of removed, added and changed rows, the
    reasons to reject), for two captures as _rows reads them."""
    counts: dict[str, Counter] = {}
    problems = []
    for key in sorted(old.keys() | new.keys()):
        check, parameters = key
        before, after = old.get(key, Counter()), new.get(key, Counter())
        gone = sorted((before - after).elements())
        came = sorted((after - before).elements())
        changed = min(len(gone), len(came))
        removed, added = gone[changed:], came[changed:]
        kept = {_verdict(row) for row in after.elements()}
        tally = counts.setdefault(check, Counter())
        tally.update(removed=len(removed), added=len(added), changed=changed)
        for row in added:
            if _verdict(row)[0] != "PASS":
                problems.append(f"{check} {parameters}: added row is {_verdict(row)[0]}")
        if check in allowed:
            continue
        if changed:
            problems.append(f"{check} {parameters}: {changed} changed row(s), check not allowed")
        for row in removed:
            if _verdict(row) not in kept:
                problems.append(f"{check} {parameters}: removed row repeats no kept row")
    return counts, problems


def _allowance(text: str) -> tuple[str, str]:
    check, sep, reason = text.partition("=")
    if not sep or not check or not reason.strip():
        raise argparse.ArgumentTypeError(f"expected CHECK=REASON, got {text!r}")
    return check, reason.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", metavar="OLD", help="capture before the change")
    parser.add_argument("new", metavar="NEW", help="capture after the change")
    parser.add_argument(
        "--allow",
        metavar="CHECK=REASON",
        type=_allowance,
        action="append",
        default=[],
        help="allow changed and removed rows of CHECK, for REASON",
    )
    args = parser.parse_args(argv)
    allowed = dict(args.allow)
    counts, problems = diff(_rows(args.old), _rows(args.new), allowed)
    for check, tally in sorted(counts.items()):
        if +tally:
            note = f"  (allowed: {allowed[check]})" if check in allowed else ""
            print(
                f"{check}: removed {tally['removed']}, added {tally['added']}, "
                f"changed {tally['changed']}{note}"
            )
    for problem in problems:
        print(f"rejected: {problem}")
    print("ok" if not problems else f"rejected: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
