"""Spans around calls into ``pairscore``, recorded from outside the package.

``Tracer.patch`` wraps one public function and rebinds every name that
refers to it in the loaded ``pairscore`` modules, because ``training``,
``cli`` and ``experiments`` import functions by name.  Spans live in memory
with their parent span and are written out once, by ``write``.  Only
boundary calls are wrapped; hot inner calls such as ``BigramLM.log_prob``
are not, so the overhead stays small.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        span = self._open(name)
        failed = True
        try:
            yield span
            failed = False
        finally:
            self._close(span, failed)

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "op": parent["op"] if parent is not None else len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "child_s": 0.0,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict, failed: bool) -> None:
        span["end"] = time.perf_counter()
        span["failed"] = failed
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def wrap(self, name: str, func: Callable, counts: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            failed = True
            try:
                result = func(*args, **kwargs)
                failed = False
            finally:
                tracer._close(span, failed)
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, counts: Callable | None = None,
              modules: tuple[str, ...] | None = None) -> None:
        """Wrap ``owner.attr`` and rebind each name bound to it in ``pairscore`` modules.

        ``modules`` limits the rebinding to the named modules (and leaves the
        owner alone), so that only calls made from there are timed.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, counts)
        targets = [] if modules is not None else [(owner, attr)]
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("pairscore") or module is None:
                continue
            if modules is not None and mod_name not in modules:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    targets.append((module, key))
        for target, key in targets:
            self._restore.append((target, key, getattr(target, key)))
            setattr(target, key, wrapper)

    def unpatch(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed, inclusive ms, self ms and summed counts."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "failed": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for span in self.spans:
            row = out[span["name"]]
            dur = span["end"] - span["start"]
            row["calls"] += 1
            row["failed"] += int(span["failed"])
            row["ms"] += 1000.0 * dur
            row["self_ms"] += 1000.0 * (dur - span["child_s"])
            for key, value in span["counts"].items():
                row[key] = row.get(key, 0) + value
        return dict(out)

    def parent_name(self, span: dict) -> str | None:
        return None if span["parent"] is None else self.spans[span["parent"]]["name"]

    def write(self, path) -> None:
        """One JSON line per span; times in ms from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                dur = span["end"] - span["start"]
                fh.write(json.dumps({
                    "id": span["id"],
                    "parent": span["parent"],
                    "op": span["op"],
                    "name": span["name"],
                    "start_ms": 1000.0 * (span["start"] - self._origin),
                    "ms": 1000.0 * dur,
                    "self_ms": 1000.0 * (dur - span["child_s"]),
                    "failed": span["failed"],
                    "counts": span["counts"],
                }) + "\n")
