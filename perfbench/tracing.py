"""In-memory spans recorded around calls into xldetect's public functions.

A span holds a name, start and end times, the index of the span that was
open when it started (its parent), the id of the run phase it belongs to
and the counts attached at that boundary. Spans stay in memory and are
written out once, when the benchmark ends.

Wrapping replaces a module attribute, so a span appears only for calls
made through that attribute: the benchmark's own calls, and the
cross-module calls of the pipeline (``cli`` calling ``emb.train_skipgram``,
``curves`` calling ``train_supervised``). Calls a module makes to its own
functions stay unseen; ``align.procrustes`` and ``align.induce_dictionary``
run inside ``align.refine``, so the traced run probes them directly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counts")

    def __init__(self, name: str, start: float, parent: int | None, run: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run, "counts": self.counts,
        }


class Tracer:
    """Collects spans; ``run`` names the phase new spans belong to."""

    def __init__(self, run: str = "setup"):
        self.run = run
        # per run phase, seconds the wrappers spent outside the calls they wrap
        self.overhead: dict[str, float] = {}
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        sp = Span(name, time.perf_counter(), parent, self.run)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` with a function that records a span per
        call. ``count(args, kwargs, result)`` returns counts for the span;
        it runs after the span has closed."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if count is not None:
                sp.counts.update(count(args, kwargs, result))
            spent = time.perf_counter() - entered - sp.duration
            self.overhead[sp.run] = self.overhead.get(sp.run, 0.0) + spent
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original, traced))

    def unwrap(self) -> None:
        while self._patches:
            module, attr, original, _ = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def suspended(self):
        """Calls made inside reach the original functions, untraced."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        try:
            yield
        finally:
            for module, attr, _, traced in self._patches:
                setattr(module, attr, traced)

    def select(self, name: str, run: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (run is None or s.run == run)]

    def total(self, name: str, run: str | None = None) -> float:
        return sum(s.duration for s in self.select(name, run))

    def counted(self, name: str, key: str, run: str | None = None) -> float:
        return sum(s.counts.get(key, 0) for s in self.select(name, run))

    def self_times(self, run: str) -> dict[str, float]:
        """Per layer: span durations minus the time their direct children
        cover. Spans nest without overlap (one thread), so summing the
        children's durations gives the covered time."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.run == run:
                out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time[i]
        return out

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.spans]
