"""Span tracer for the benchmark's traced runs.

A span wraps one library function at the module attribute its callers
resolve (for example `cmpchess.search.legal_moves`, not the definition in
`cmpchess.board`), so only calls that cross a layer boundary are timed.
A span's self time is its duration minus the time of the spans opened
directly inside it. Spans are folded into per-name totals (calls, self
seconds) as they close; no per-call record is kept, so a traced run holds
a few dozen numbers however many calls it makes.

Wrappers are installed by `Tracer.patch` and removed by `Tracer.restore`;
untraced runs never install them.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self._open: list = []  # child time accumulated by each open span
        self._patches: list = []

    def reset(self) -> None:
        for name in self.calls:
            self.calls[name] = 0
            self.self_s[name] = 0.0

    def _close(self, name: str, began: float) -> None:
        took = time.perf_counter() - began
        self.calls[name] += 1
        self.self_s[name] += took - self._open.pop()
        if self._open:
            self._open[-1] += took

    def wrap(self, name: str, fn, on_call=None):
        """`fn` as a span; `on_call(args)` runs first, untimed by it."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            self._open.append(0.0)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, began)

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose every `next()` is one span."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open.append(0.0)
                began = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, began)
                yield item

        return traced

    def patch(self, owner, attr: str, name: str, on_call=None,
              generator: bool = False) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        wrapped = (self.wrap_generator(name, original) if generator
                   else self.wrap(name, original, on_call))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
