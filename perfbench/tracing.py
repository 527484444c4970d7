"""Per-layer spans and counters for dirackernel, recorded from outside.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by a
wrapper in every loaded ``dirackernel`` module namespace that binds it, so
calls between modules (``dirac`` calling ``decompose``, ``sympair`` calling
``weyl_group``, ``cli`` calling almost everything) are seen.  Each call
becomes a span (id, name, start, end, parent id, op id) kept in memory;
self times are computed from the spans when the process ends.  A target that
no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Tuple


def _size(_args, result) -> int:
    return len(result)


def _terms(_args, result) -> int:
    return len(result.terms)


@dataclass(frozen=True)
class Counter:
    name: str
    value: Callable  # (args, result) -> int
    per_call: bool = False  # report value / calls as a ratio


@dataclass(frozen=True)
class Target:
    metric: str  # metric prefix, "<module>.<function>"
    module: str
    path: str  # attribute path inside the module
    counters: Tuple[Counter, ...] = ()
    cache_ratio: bool = False  # report the lru_cache hit ratio


TARGETS = (
    Target("roots.weyl_group", "roots", "weyl_group",
           (Counter("order", _size),), cache_ratio=True),
    Target("roots.dominant_representative", "roots", "dominant_representative"),
    Target("sympair.w1_enumerate", "sympair", "w1_enumerate",
           (Counter("elements", _size),)),
    Target("sympair.admissibility_failures", "sympair",
           "admissibility_failures"),
    Target("sympair.validate_pair", "sympair", "validate_pair"),
    Target("characters.weyl_dim", "characters", "weyl_dim"),
    Target("characters.FormalCharacter.mul", "characters",
           "FormalCharacter.__mul__", (Counter("terms_out", _terms),)),
    Target("characters.decompose", "characters", "decompose",
           (Counter("terms_in", lambda args, _r: len(args[0].terms)),
            Counter("components", _size))),
    Target("characters.dominant_weight_multiplicities", "characters",
           "dominant_weight_multiplicities",
           (Counter("dominant_weights", _size),), cache_ratio=True),
    Target("characters.irreducible_character", "characters",
           "irreducible_character", (Counter("weights", _terms),),
           cache_ratio=True),
    Target("characters.branch_equal_rank", "characters", "branch_equal_rank"),
    Target("dirac.dirac_kernel", "dirac", "dirac_kernel"),
    Target("dirac.frobenius_multiplicity", "dirac", "frobenius_multiplicity",
           (Counter("nonzero_ratio", lambda _a, r: int(r != 0), per_call=True),)),
    Target("dirac.casimir_shell", "dirac", "casimir_shell",
           (Counter("members", _size),)),
    Target("dirac.euler_verify", "dirac", "euler_verify"),
    Target("spin.spinor_weights", "spin", "spinor_weights"),
    Target("spin.chi_decompose", "spin", "chi_decompose"),
    Target("spin.chi_trace_difference", "spin", "chi_trace_difference"),
    Target("cli.run", "cli", "run"),
)

# Span name of the timed `import dirackernel.cli` in a cold CLI process.
IMPORT_SPAN = "cli.import"

# Whole-run figures reported next to the per-target ones.
RUN_METRICS = (
    ("cli.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.unwrapped_s", "s"),
)


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for t in TARGETS:
        units[f"{t.metric}.calls"] = "count"
        units[f"{t.metric}.self_s"] = "s"
        for c in t.counters:
            units[f"{t.metric}.{c.name}"] = "ratio" if c.per_call else "count"
        if t.cache_ratio:
            units[f"{t.metric}.cache_hit_ratio"] = "ratio"
    units.update(RUN_METRICS)
    return units


# -- span arithmetic ------------------------------------------------------

def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the part of it covered by
    its direct children.  ``spans`` holds (id, name, start, end, parent, op)."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _name, start, end, _parent, _op in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children[sid]
                  if min(e, end) > max(s, start)]
        result[sid] = (end - start) - covered_length(inside)
    return result


# -- the tracer -------------------------------------------------------------

class Tracer:
    """Wraps the targets, records spans, and summarises them."""

    def __init__(self) -> None:
        self.spans = []  # (id, name, start, end, parent, op)
        self.op = None
        self._stack = []
        self._next_id = 0
        self._calls = defaultdict(int)
        self._counts = defaultdict(int)
        self._restore = []
        self._caches = {}  # metric -> lru_cache-wrapped original

    # spans recorded by the caller, e.g. a timed import
    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._new_id(), name, start, end, parent, self.op))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, target: Target, original: Callable) -> Callable:
        cached = hasattr(original, "cache_info")
        if cached and target.cache_ratio:
            self._caches[target.metric] = original
        stack, spans, calls, counts = (self._stack, self.spans, self._calls,
                                       self._counts)
        name = target.metric

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            parent = stack[-1] if stack else None
            misses = original.cache_info().misses if cached else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op))
                calls[name] += 1
            # Work counts only for calls that computed, not cache hits.
            if not cached or original.cache_info().misses > misses:
                for c in target.counters:
                    counts[f"{name}.{c.name}"] += c.value(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every loaded dirackernel namespace that binds a target."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dirackernel"
                                         or n.startswith("dirackernel."))]
        for target in TARGETS:
            owner = sys.modules.get(f"dirackernel.{target.module}")
            if owner is None:
                continue
            *outer, attr = target.path.split(".")
            holder = owner
            for part in outer:
                holder = getattr(holder, part, None)
            original = (getattr(holder, attr, None)
                        if holder is not None else None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            if outer:  # a method: rebind every class attribute aliasing it
                namespaces = [holder]
            else:
                namespaces = modules
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()

    def summary(self, wall: float) -> dict:
        """Totals for one process; ``merge_summaries`` adds them up."""
        selfs = self_times(self.spans)
        self_by_name = defaultdict(float)
        for sid, name, *_ in self.spans:
            self_by_name[name] += selfs[sid]
        roots = sum(end - start for _sid, _n, start, end, parent, _op
                    in self.spans if parent is None)
        caches = {}
        for metric, fn in self._caches.items():
            info = fn.cache_info()
            caches[metric] = [info.hits, info.misses]
        return {"calls": dict(self._calls), "counts": dict(self._counts),
                "self_s": dict(self_by_name), "caches": caches,
                "roots_s": roots, "wall_s": wall}

    def write_spans(self, path: str, proc: int) -> None:
        """Append this process's spans to ``path``, one JSON array a line."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([proc, *span]) + "\n")


def merge_summaries(summaries) -> dict:
    total = {"calls": defaultdict(int), "counts": defaultdict(int),
             "self_s": defaultdict(float), "caches": defaultdict(lambda: [0, 0]),
             "roots_s": 0.0, "wall_s": 0.0}
    for s in summaries:
        for key in ("calls", "counts", "self_s"):
            for name, value in s[key].items():
                total[key][name] += value
        for name, (hits, misses) in s["caches"].items():
            total["caches"][name][0] += hits
            total["caches"][name][1] += misses
        total["roots_s"] += s["roots_s"]
        total["wall_s"] += s["wall_s"]
    return total


def layer_metrics(total: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics, every name of ``metric_units`` included."""
    values = {}
    for t in TARGETS:
        calls = total["calls"].get(t.metric, 0)
        values[f"{t.metric}.calls"] = calls
        values[f"{t.metric}.self_s"] = total["self_s"].get(t.metric, 0.0)
        for c in t.counters:
            count = total["counts"].get(f"{t.metric}.{c.name}", 0)
            values[f"{t.metric}.{c.name}"] = (count / calls if calls else 0.0) \
                if c.per_call else count
        if t.cache_ratio:
            hits, misses = total["caches"].get(t.metric, (0, 0))
            values[f"{t.metric}.cache_hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
    self_sum = sum(total["self_s"].values())
    values["cli.import_s"] = total["self_s"].get(IMPORT_SPAN, 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.wall_s"] = total["wall_s"]
    values["trace.unwrapped_s"] = total["wall_s"] - self_sum
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def accounting_error(total: dict) -> str:
    """Empty when the self times add up: they must sum to the time covered
    by top-level spans, which must fit inside the traced wall time."""
    self_sum = sum(total["self_s"].values())
    if abs(self_sum - total["roots_s"]) > 1e-6 * max(1.0, total["roots_s"]):
        return (f"self times sum to {self_sum} s but top-level spans cover "
                f"{total['roots_s']} s")
    if total["roots_s"] > total["wall_s"] + 1e-6:
        return (f"spans cover {total['roots_s']} s, more than the traced "
                f"wall time {total['wall_s']} s")
    return ""
