"""In-memory span tracer that instruments latefuse from the outside.

`install` replaces module functions and provider methods with wrappers
that record one span per call (name, start, end, parent span); `uninstall`
puts the originals back, so an untraced iteration runs the unmodified
program. Spans live in flat arrays until the phase ends; self time is a
span's duration minus the time its direct children cover (the client is
single-threaded, so children nest inside their parent).
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = Counter()   # exceptions that escaped a span, by span name
        self.counts = Counter()   # result-derived counters
        self.samples: dict[str, list] = {}
        self._stack = [-1]
        self._patches = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def sample(self, key: str, value):
        self.samples.setdefault(key, []).append(value)

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Record a `name` span around every call of owner.attr.

        `before(tracer, args)` runs ahead of the span and
        `after(tracer, args, result)` after it closes, so neither adds to
        the wrapped call's own time.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._intern(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = self._open(nid)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, parent, dur, dur - child

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, each duration,
        and how many of its spans sit directly under each parent name."""
        nid, parent, dur, self_t = self.arrays()
        parent_name = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
        out = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            under = Counter(parent_name[mask].tolist())
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_t[mask].sum()),
                "durations": dur[mask],
                "under": {self.names[p]: n for p, n in under.items() if p >= 0},
            }
        return out

    def write(self, path):
        """Save every span (name table, name id, parent index, start, end)."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64),
        )
