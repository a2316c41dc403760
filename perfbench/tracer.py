"""A host-time tracer that wraps functions from outside the program.

The tracer replaces a function or method with a wrapper for the length
of one traced run and restores the original afterwards; the program
itself carries no tracing code.  Each wrapped call is a frame on one
stack (the benchmark is single-threaded), so a layer's *self time* is
its frame's duration minus the time its child frames cover, and the
self times of all layers sum to at most the traced wall time.

Per layer the tracer keeps the number of outermost calls (a re-entrant
call of the same layer is not counted again), their inclusive host
time and the layer's self time.  Coarse layers also keep one span per
call -- ``(id, layer, start, end, parent id, context id)`` -- in
memory; *hot* layers (per-node tree operations, scalar game rules) are
only aggregated, because a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class LayerStats:
    calls: int = 0
    host_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Install wrappers with :meth:`patch` / :meth:`patch_everywhere`,
    run the workload, then :meth:`restore`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._depth: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, Callable] = {}
        #: Wrappers record only while on (see :meth:`recording`), so
        #: objects built before a timed section still reach them.
        self._on = [False]

    def wrap(
        self,
        layer: str,
        fn: Callable,
        *,
        hot: bool = False,
        ctx: Callable | None = None,
        enter: Callable | None = None,
        observe: Callable | None = None,
    ) -> Callable:
        """A traced stand-in for ``fn`` charged to ``layer``.

        ``ctx(args, kwargs)`` names the request or move a span belongs
        to (children inherit it); ``enter(args, kwargs)`` runs before
        the call and ``observe(args, kwargs, result)`` after an
        outermost call of the layer returns.
        """
        stats = self.layers.setdefault(layer, LayerStats())
        depth = self._depth.setdefault(layer, [0])
        stack, spans, clock, ids, on = (
            self._stack,
            self.spans,
            self.clock,
            self._ids,
            self._on,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args, kwargs)
            parent = stack[-1] if stack else None
            label = ctx(args, kwargs) if ctx is not None else None
            if label is None and parent is not None:
                label = parent[1]
            if hot:
                sid = parent[2] if parent is not None else None
            else:
                sid = next(ids)
            frame = [0.0, label, sid]
            outer = depth[0] == 0
            depth[0] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                duration = end - start
                stats.self_s += duration - frame[0]
                if outer:
                    stats.calls += 1
                    stats.host_s += duration
                if stack:
                    stack[-1][0] += duration
                if not hot:
                    spans.append(
                        (
                            sid,
                            layer,
                            start,
                            end,
                            parent[2] if parent is not None else None,
                            label,
                        )
                    )
            if outer and observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, layer: str, **options) -> None:
        """Wrap ``owner.attr`` (a module function, or a plain, class-
        or static method defined on the class ``owner`` itself)."""
        if any(o is owner and a == attr for o, a, _ in self._patches):
            raise ValueError(f"{owner!r}.{attr} is already wrapped")
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(layer, raw.__func__, **options))
        else:
            replacement = self.wrap(layer, raw, **options)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def patch_everywhere(
        self, fn: Callable, layer: str, prefix: str = "repro", **options
    ) -> int:
        """Wrap ``fn`` under every name it is bound to in the loaded
        modules of package ``prefix``.  A function imported by name
        (``from m import f``) is a separate binding that callers reach
        at call time, so each one must be replaced.  Returns the
        number of bindings patched."""
        wrapper = self._wrapped.get(id(fn))
        if wrapper is None:
            wrapper = self._wrapped[id(fn)] = self.wrap(layer, fn, **options)
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == prefix or name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    count += 1
        return count

    def recording(self, on: bool) -> None:
        """Switch recording on or off (wrappers stay installed)."""
        self._on[0] = on

    def restore(self) -> None:
        """Put every original back (latest patch first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def self_total_s(self) -> float:
        return sum(s.self_s for s in self.layers.values())

    def dump(self, path: Path, meta: dict) -> None:
        """Write the layer table and every span as JSON (times in
        seconds relative to the first span's start)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        payload = {
            "meta": meta,
            "layers": {
                name: vars(stats) for name, stats in sorted(self.layers.items())
            },
            "spans": [
                {
                    "id": sid,
                    "name": layer,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                    "ctx": label,
                }
                for sid, layer, start, end, parent, label in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(payload, fp)
