"""Report rows: the one row type every suite emits, and how a check makes one.

A row's status is PASS exactly when its lhs and rhs strings agree; FAIL
means the comparison ran and came out unequal; ERROR means the computation
itself raised.  All numeric payloads are fraction or residue strings, never
floats.  Each suite lives in the module whose identities it checks and
declares each check once, as rows(name, space, thunk): one row for each
parameter dict of the space, its comparison the thunk of exactly those
parameters.  cli orders and writes the rows.  This module imports no other
module of the package.
"""

from __future__ import annotations

import time
from functools import partial
from typing import NamedTuple

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


class CheckReport(NamedTuple):
    check_name: str
    parameters: dict
    status: str
    lhs: str
    rhs: str
    notes: tuple[str, ...]
    elapsed_ms: int


_new_row = tuple.__new__  # CheckReport's own __new__ is a Python call


def make_rows(name: str, comparisons, notes: tuple = (), elapsed_ms: int = 0) -> list[CheckReport]:
    """The rows of comparisons that ran, one per (parameters, lhs, rhs):
    PASS exactly when lhs == rhs."""
    return [
        _new_row(
            CheckReport,
            (name, parameters, PASS if lhs == rhs else FAIL, lhs, rhs, notes, elapsed_ms),
        )
        for parameters, lhs, rhs in comparisons
    ]


def run_check(name: str, parameters: dict, thunk, notes: tuple = ()) -> CheckReport:
    """Evaluate one check; the thunk returns (lhs, rhs, extra_notes)."""
    start = time.perf_counter()
    try:
        lhs, rhs, extra = thunk()
    except Exception as err:
        elapsed = int((time.perf_counter() - start) * 1000)
        failure_note = f"{type(err).__name__}: {err}"
        return CheckReport(name, parameters, ERROR, "", "", notes + (failure_note,), elapsed)
    elapsed = int((time.perf_counter() - start) * 1000)
    (row,) = make_rows(name, [(parameters, lhs, rhs)], notes + tuple(extra), elapsed)
    return row


def rows(name: str, space, thunk, notes: tuple = ()) -> list[CheckReport]:
    """One run_check row for each parameter dict of space, the thunk called
    on exactly that dict's parameters, as keywords."""
    return [run_check(name, params, partial(thunk, **params), notes) for params in space]
