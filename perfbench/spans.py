"""An in-memory span tracer that wraps the program's public calls.

The benchmark measures its end-to-end metrics with no wrapper installed.
For the separate traced pass, :class:`Tracer` swaps each hooked public
callable for a wrapper that records one span per call -- name, layer,
start, end, parent span and run id -- and, where the call returns a
count-bearing value (``PerfCounters``, ``JoinResult``, ``ServeReport``,
arrays), adds that count to the layer's counters.  :meth:`Tracer.restore`
puts the exact original objects back, so an untraced pass after a traced
one runs the untouched program.

Spans stay in memory and are written out by :meth:`Tracer.write` when the
run ends.  A layer's self time is the time of its spans minus the time of
their direct child spans (calls are single-threaded, so children nest
strictly inside their parent).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer of the spans the benchmark opens itself (pass and set-up roots).
ROOT_LAYER = "unattributed"


class Span:
    """One recorded call."""

    __slots__ = ("span_id", "name", "layer", "start", "end", "parent", "run_id")

    def __init__(self, span_id, name, layer, start, parent, run_id):
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run_id,
        }


class Tracer:
    """Records spans around wrapped calls; installs and removes wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []
        #: (owner, attribute, original object) per installed wrapper.
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            len(self.spans), name, layer, time.perf_counter(), parent,
            self.run_id,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name!r} closed while {popped.name!r} was open"
            )

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``count(counts, result)`` tallies."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    # -- installing wrappers -------------------------------------------

    def patch_method(
        self, base: type, attr: str, layer: str, count: Optional[Callable] = None
    ) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass defining it."""
        pending = [base]
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            if not callable(original):
                raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
            name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            setattr(cls, attr, self.wrap(original, name, layer, count))
            self._patches.append((cls, attr, original))

    def patch_function(
        self, module, attr: str, layer: str, count: Optional[Callable] = None
    ) -> None:
        """Wrap a module-level function everywhere ``repro`` bound it.

        ``from x import f`` copies the function into the importing
        module, so every loaded ``repro`` module holding the same object
        gets the wrapper too.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(
            original, f"{module.__name__}.{attr}", layer, count
        )
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, original))

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_targets(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    # -- analysis ------------------------------------------------------

    def subtree(self, roots: Sequence[Span]) -> List[Span]:
        """``roots`` and every span recorded below them."""
        members = {root.span_id for root in roots}
        out = list(roots)
        for span in self.spans[min(members) + 1:]:
            if span.parent in members:
                members.add(span.span_id)
                out.append(span)
        return out

    def self_times(self, roots: Sequence[Span]) -> Dict[str, float]:
        """Self time per layer over the subtrees of ``roots``."""
        spans = self.subtree(roots)
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans[len(roots):]:
            child_time[span.parent] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span.layer] += span.duration - child_time[span.span_id]
        return dict(totals)

    def top_level_time(self, layer: str) -> float:
        """Inclusive time of ``layer``'s spans whose parent is another layer."""
        by_id = {span.span_id: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span.layer != layer:
                continue
            parent = by_id.get(span.parent)
            if parent is None or parent.layer != layer:
                total += span.duration
        return total

    def write(self, handle) -> None:
        """Write every span to a text file, one JSON object per line."""
        for span in self.spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
