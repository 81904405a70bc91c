"""Spans and counters around revrec's public functions, installed from
outside the package by replacing module attributes.

Coarse spans (one ranking, one metric call, one report) are recorded one
by one with a parent id and written to a side file. Per-pair spans
(``method_score``, ``comment_vector``) are too many to keep, so they are
summed per name. Cheap kernels only get counters, because a timer would
cost more than the kernel. Self time is a span's duration minus the part
of it covered by its children; children that ran on a pool thread are
parented to the span that was open on the tracing thread.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []
        self._sums: list[dict] = []
        self._main = self._stack()
        self.spans: list[dict] = []
        self._next_id = 0
        self.ranking_wait_s = 0.0

    def _stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.counts, local.sums = [], Counter(), {}
            with self._lock:
                self._counters.append(local.counts)
                self._sums.append(local.sums)
        return local.stack

    def counted(self, name: str, fn):
        """Wrap `fn` so that each call bumps the counter `name`."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                local.counts[name] += 1
            except AttributeError:
                self._stack()
                local.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # A frame is [seconds spent in unrecorded children, id of the nearest
    # recorded span, itself included].

    def _parent_id(self, stack: list):
        if stack:
            return stack[-1][1]
        return self._main[-1][1] if self._main else None

    def timed(self, name, fn, record: bool = False, wait: bool = False):
        """Wrap `fn` in a span. `name` is a string or a function of the
        call's arguments. Recorded spans are kept one by one; the others
        are summed per name. `wait` adds wall minus thread CPU time to
        ``ranking_wait_s``."""
        namer = name if callable(name) else None
        perf_counter = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def summed(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = self._stack()
            frame = [0.0, self._parent_id(stack)]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                key = namer(*args, **kwargs) if namer else name
                sums = local.sums
                calls, total, own = sums.get(key, (0, 0.0, 0.0))
                sums[key] = (calls + 1, total + duration, own + duration - frame[0])
                if stack:
                    stack[-1][0] += duration

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            stack = self._stack()
            parent = self._parent_id(stack)
            with self._lock:
                self._next_id += 1
                frame = [0.0, self._next_id]
            stack.append(frame)
            cpu0 = time.thread_time() if wait else 0.0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = {"id": frame[1], "parent": parent, "name": namer(*args, **kwargs) if namer else name,
                        "start": start, "end": end, "unrecorded_children_s": frame[0]}
                with self._lock:
                    if wait:
                        self.ranking_wait_s += end - start - (time.thread_time() - cpu0)
                    self.spans.append(span)

        return recorded if record else summed

    def counts(self) -> Counter:
        total = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    def summary(self) -> dict[str, dict]:
        """Per-name calls, total seconds and self seconds."""
        out: dict[str, dict] = {}
        for sums in self._sums:
            for name, (calls, total, own) in sums.items():
                entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                entry["calls"] += calls
                entry["s"] += total
                entry["self_s"] += own
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        for span in self.spans:
            duration = span["end"] - span["start"]
            span["self_s"] = duration - span["unrecorded_children_s"] - _covered(children.get(span["id"], []))
            entry = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += span["self_s"]
        return out

    def write(self, path: str) -> None:
        """Recorded spans as JSON lines, then one line of per-name sums."""
        summary = self.summary()
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps({key: span[key] for key in ("id", "parent", "name", "start", "end", "self_s")}) + "\n")
            fh.write(json.dumps({"summary": summary, "counts": self.counts()}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
