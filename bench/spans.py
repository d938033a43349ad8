"""In-memory span tracer and counting random generator for the traced run.

Spans are recorded from the benchmark's own files only: the tracer
replaces a module attribute that the library looks up at call time
(for example `qsense.protocol.alpha_cpmg`, which `run_adaptive` reads
from its module globals) with a wrapper that opens a span, calls the
original and closes the span. Nothing inside `src/` is edited. A name
that a later version of the library no longer has is skipped, so its
metrics read zero calls instead of failing the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1


class Tracer:
    """Spans (name, start, end, parent, rep) kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.reps: list[int] = []
        self.rep = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.reps.append(self.rep)
        self.ends.append(float("nan"))
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, module, attr: str, name: str) -> None:
        """Route calls through module.attr into a span called name."""
        orig = getattr(module, attr, None)
        if orig is None:
            return

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(i)

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    @contextmanager
    def wrapped(self, targets):
        """Install wrappers for (module, attr, span name) triples, then remove them."""
        for module, attr, name in targets:
            self.wrap(module, attr, name)
        try:
            yield
        finally:
            while self._patched:
                module, attr, orig = self._patched.pop()
                setattr(module, attr, orig)

    def arrays(self):
        """Spans as arrays: name table, name index, start, end, parent, rep, self time."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        name_idx = np.array([index[n] for n in self.names], dtype=np.int32)
        start = np.array(self.starts)
        end = np.array(self.ends)
        parent = np.array(self.parents, dtype=np.int64)
        rep = np.array(self.reps, dtype=np.int64)
        dur = end - start
        has = parent != NO_PARENT
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return table, name_idx, start, end, parent, rep, dur - child

    def stats(self, reps=None) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, total self seconds).

        reps restricts the tally to spans recorded under those rep ids.
        """
        table, name_idx, start, end, _, rep, self_s = self.arrays()
        keep = np.ones(len(name_idx), bool) if reps is None else np.isin(rep, list(reps))
        out = {}
        for k, name in enumerate(table):
            sel = keep & (name_idx == k)
            out[name] = (int(sel.sum()), float((end - start)[sel].sum()), float(self_s[sel].sum()))
        return out

    def save(self, path: str) -> None:
        table, name_idx, start, end, parent, rep, self_s = self.arrays()
        np.savez(path, names=np.array(table), name=name_idx, start=start, end=end,
                 parent=parent, rep=rep, self_time=self_s)


class CountingRng:
    """Generator proxy that counts binomial draws (measure calls) and shots."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.calls = 0
        self.shots = 0

    def binomial(self, n, p, size=None):
        self.calls += 1
        self.shots += int(np.sum(n))
        return self._rng.binomial(n, p, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)
