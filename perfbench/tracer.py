"""Run one workload's cli.main in this process, plain or traced.

    python3 perfbench/tracer.py <workload>               # plain: time main() only
    python3 perfbench/tracer.py <workload> <spans-file>  # traced

Traced, every public function and method of every kverify module (plus
the private functions NAMED_FUNCTIONS lists) is wrapped in a span, and
every module or class attribute that holds the function is rebound to the
wrapper.  Spans stay in memory as compact arrays and are written to
<spans-file> when main() returns; aggregate() reads them back.  The
wrappers are removed afterwards and the removal is checked.

Prints one JSON line: main() time, row counters and problems; traced, also
the lru_cache's own counters and the counters derived from recorded
arguments.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
import uuid
from array import array
from bisect import bisect_right
from collections import Counter

from workloads import LAYERS, NAMED_FUNCTIONS, ROOT, WORKLOADS, check_output, load_golden, row_stats

NO_PARENT = 0xFFFFFFFF
_MARK = "__perfbench_original__"
#: Functions whose arguments are kept so that counters can be derived from
#: them after the run, outside every span.
_RECORD_ARGS = ("series.mul", "bockstein.rank_mod_p")


class Tracer:
    """Span recorder.  A span is (name id, parent span index, start ns, end ns);
    all spans of one Tracer share its run_id."""

    def __init__(self, modules):
        self.modules = modules
        self.run_id = uuid.uuid4().hex
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("I")
        self.starts = array("q")
        self.ends = array("q")
        self.recorded = {name: [] for name in _RECORD_ARGS}
        self._stack = [NO_PARENT]
        self._bindings = []  # (owner, attribute, original)

    def _span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter_ns
        record = self.recorded.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record is not None:
                record.append(args)
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _targets(self):
        """(qualified name, function) for everything to wrap."""
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if not attr.startswith("_") or f"{layer}.{attr}" in NAMED_FUNCTIONS:
                        yield f"{layer}.{value.__qualname__}", value
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for member in vars(value).values():
                        fn = getattr(member, "__func__", member)
                        if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                            continue
                        short = fn.__name__
                        if not short.startswith("_") or (short.startswith("__") and short.endswith("__")):
                            yield f"{layer}.{fn.__qualname__}", fn

    def _owners(self):
        """Every module and class whose attributes may hold a wrapped function."""
        for name, module in list(sys.modules.items()):
            if name == "kverify" or name.startswith("kverify."):
                yield module
                for value in vars(module).values():
                    if inspect.isclass(value) and value.__module__ == name:
                        yield value

    def install(self) -> None:
        wrappers = {}
        for name, fn in self._targets():
            if fn not in wrappers:
                wrappers[fn] = self._span(name, fn)
        for owner in self._owners():
            for attr, value in list(vars(owner).items()):
                fn = getattr(value, "__func__", value)
                if not inspect.isfunction(fn) or fn not in wrappers:
                    continue
                if isinstance(value, classmethod):
                    replacement = classmethod(wrappers[fn])
                elif isinstance(value, staticmethod):
                    replacement = staticmethod(wrappers[fn])
                else:
                    replacement = wrappers[fn]
                self._bindings.append((owner, attr, value))
                setattr(owner, attr, replacement)

    def remove(self) -> list[str]:
        """Restore every rebound attribute; return any wrapper still reachable."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in self._owners()
            for attr, value in vars(owner).items()
            if hasattr(getattr(value, "__func__", value), _MARK)
        ]

    def write(self, path: str, workload: str) -> None:
        header = {
            "run_id": self.run_id,
            "workload": workload,
            "names": self.names,
            "spans": len(self.name_ids),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


def aggregate(path: str) -> dict:
    """Per-name calls, self time and total time from a written span file.

    A span's self time is its duration minus the durations of its child
    spans; spans nest, so the children never overlap.
    """
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = [array(code) for code in ("H", "I", "q", "q")]
        for column in columns:
            column.fromfile(handle, count)
    name_ids, parents, starts, ends = columns
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0] * count
    for index, parent in enumerate(parents):
        if parent != NO_PARENT:
            covered[parent] += durations[index]
    calls, self_ns, total_ns = Counter(), Counter(), Counter()
    for name_id, duration, child in zip(name_ids, durations, covered):
        calls[name_id] += 1
        self_ns[name_id] += duration - child
        total_ns[name_id] += duration
    names = header["names"]
    return {
        "run_id": header["run_id"],
        "calls": {names[i]: n for i, n in calls.items()},
        "self_s": {names[i]: ns / 1e9 for i, ns in self_ns.items()},
        "total_s": {names[i]: ns / 1e9 for i, ns in total_ns.items()},
        "root_s": sum(d for d, p in zip(durations, parents) if p == NO_PARENT) / 1e9,
    }


def mul_products(a, b, order: int) -> int:
    """Nonzero coefficient products series.mul(a, b, order) computes."""
    nonzero_b = [j for j, y in enumerate(b) if y != 0]
    return sum(
        bisect_right(nonzero_b, order - i) for i, x in enumerate(a[: order + 1]) if x != 0
    )


def named_problems(workload: str, calls: dict) -> list[str]:
    """Named functions that were not traced, or that the workload meant to
    exercise them never called."""
    problems = []
    for name, exercised_by in NAMED_FUNCTIONS.items():
        if name not in calls:
            problems.append(f"{name} is not traced: renamed or removed?")
        elif exercised_by in (None, workload) and calls[name] == 0:
            problems.append(f"{name} was never called on {workload}")
    return problems


def run(workload: str, spans_path: str | None) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    modules = [importlib.import_module(f"kverify.{layer}") for layer in LAYERS]
    tracer = Tracer(modules) if spans_path else None
    problems = []
    if tracer:
        tracer.install()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = sys.modules["kverify.cli"].main(WORKLOADS[workload] + ["--json"])
    main_s = time.perf_counter() - start
    result = {"main_s": main_s}
    if tracer:
        problems += [f"{name} still wrapped after removal" for name in tracer.remove()]
        tracer.write(spans_path, workload)
        calls = {name: 0 for name in tracer.names}
        for name_id, count in Counter(tracer.name_ids).items():
            calls[tracer.names[name_id]] = count
        cached = getattr(sys.modules["kverify.exact"], "_series_coefficients", None)
        hits, misses = cached.cache_info()[:2] if cached else (0, 0)
        if cached:
            calls["exact._series_coefficients"] = hits + misses
        problems += named_problems(workload, calls)
        rank_args = tracer.recorded["bockstein.rank_mod_p"]
        result["counters"] = {
            "series_coefficients.hits": hits,
            "series_coefficients.misses": misses,
            "series.mul.products": sum(mul_products(*args) for args in tracer.recorded["series.mul"]),
            "rank_mod_p.distinct": len(set(rank_args)),
            "rank_mod_p.recorded": len(rank_args),
        }
    rows, output_problems = check_output(workload, code, out.getvalue().encode(), load_golden())
    result["problems"] = problems + output_problems
    result.update(row_stats(rows))
    return result


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: tracer.py {{{','.join(WORKLOADS)}}} [spans-file]")
    print(json.dumps(run(sys.argv[1], sys.argv[2] if len(sys.argv) == 3 else None)))
