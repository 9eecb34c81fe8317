"""Outside-in span recorder for the traced benchmark run.

The repository has no spans of its own yet, so the traced run wraps the
public functions of each layer from outside.  :meth:`Tracer.install`
rebinds a target in every ``repro.*`` module that bound it (a method is
rebound on its class), so callers that imported the function by name
are traced too.  A target that no longer exists -- a later change
renamed or removed it -- is recorded as absent instead of failing.

Spans are kept in memory as ``(name, parent, start, end)`` records and
reduced when the run ends.  A span's self time is its duration minus
the part of it its child spans cover; summed over every span (roots
included) the self times equal the roots' total duration, which the
benchmark checks against its own wall clock.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["LayerStats", "Target", "Tracer"]


@dataclass(frozen=True)
class Target:
    """A function to trace: ``module`` plus a ``Class.method`` or function
    ``attr``, recorded under span ``name``.  ``tag`` may refine the span
    name from the call's arguments and result."""

    name: str
    module: str
    attr: str
    tag: Callable | None = None


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    tags: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans around rebound targets (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: dict[str, str] = {}

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, name: str | None = None) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        if name is not None:
            span[0] = name
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(target.name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                name = None
                if target.tag is not None:
                    name = f"{target.name}[{target.tag(args, kwargs, result)}]"
                tracer.close(index, name)

        return traced

    # -- installation --------------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError as exc:
                self.absent[target.name] = f"module {target.module}: {exc}"
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = inspect.getattr_static(owner, attr, None)
                if owner is None or not callable(original):
                    self.absent[target.name] = f"{target.module}.{target.attr} missing"
                    continue
                # An inherited method is shadowed on the class and later
                # deleted again rather than copied onto it.
                self._undo.append((owner, attr, original if attr in vars(owner) else None))
                setattr(owner, attr, self._wrap(target, original))
            else:
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent[target.name] = f"{target.module}.{target.attr} missing"
                    continue
                wrapped = self._wrap(target, original)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction -----------------------------------------------------------

    def reduce(self) -> dict[str, LayerStats]:
        """Per-name calls, inclusive time and self time.

        A tagged span ``name[tag]`` counts toward ``name`` and is also
        broken out under ``LayerStats.tags``.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, LayerStats] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            base, _, tag = name.partition("[")
            st = stats.setdefault(base, LayerStats())
            dur = end - start
            st.calls += 1
            st.total_s += dur
            st.self_s += dur - child[i]
            if tag:
                t = st.tags.setdefault(tag.rstrip("]"), LayerStats())
                t.calls += 1
                t.total_s += dur
                t.self_s += dur - child[i]
        return stats

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def dump(self, path) -> None:
        """Write the raw spans (times relative to the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        payload = {
            "format": "perfbench-spans-v1",
            "absent": self.absent,
            "spans": [
                [name, parent, round(start - t0, 9), round(end - t0, 9)]
                for name, parent, start, end in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
