"""Thread-aware span tracing around the calls into each layer.

The benchmark does not edit the program: :func:`traced` swaps each layer's
public entry points (the :data:`SPANS` table) for a wrapper that records a
span, and restores them on exit.  Simulated ranks are threads, so every
thread keeps its own span stack; a span records its id, its parent's id,
the id of the op it belongs to (the outermost layer call below the rank's
root span), the rank, its name and its start and end on the host clock.
Spans stay in memory in flat arrays; they are summarised when the pass
ends and written out when the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from contextlib import ExitStack, contextmanager
from typing import Iterator

import numpy as np

from repro.core.eviction import EvictionEngine
from repro.core.cuckoo import CuckooIndex
from repro.core.storage import Storage
from repro.core.window import CachedWindow
from repro.mpi.window import Window
from repro.rma.cache import CachePipeline
from repro.rma.pipeline import Pipeline
from repro.runtime.scheduler import SimProcess, SimWorld

ROOT = "rank"

#: (owner class, method, self-time metric) for every traced entry point.
#: ``CachedWindow._on_epoch_close`` is the hook the cache registers on the
#: wrapped window: the cache's own work at every flush/fence/unlock.
SPANS: list[tuple[type, str, str]] = [
    (EvictionEngine, "sample_capacity_victim", "core.evict_s"),
    (EvictionEngine, "select_conflict_victim", "core.evict_s"),
    (Storage, "allocate", "core.storage_s"),
    (Storage, "release", "core.storage_s"),
    (Storage, "write", "core.storage_s"),
    (Storage, "read", "core.storage_s"),
    (CuckooIndex, "lookup", "core.index_s"),
    (CuckooIndex, "insert", "core.index_s"),
    (CuckooIndex, "remove", "core.index_s"),
    (CachedWindow, "get", "core.get_self_s"),
    (CachedWindow, "put", "core.write_guard_s"),
    (CachedWindow, "flush", "core.epoch_close_s"),
    (CachedWindow, "fence", "core.epoch_close_s"),
    (CachedWindow, "unlock_all", "core.epoch_close_s"),
    (CachedWindow, "invalidate", "core.epoch_close_s"),
    (CachedWindow, "_on_epoch_close", "core.epoch_close_s"),
    (CachePipeline, "serve", "rma.serve_s"),
    (Pipeline, "issue", "rma.issue_s"),
    (Window, "get", "mpi.get_s"),
    (Window, "put", "mpi.put_s"),
    (Window, "flush", "mpi.sync_s"),
    (Window, "fence", "mpi.sync_s"),
    (Window, "lock_all", "mpi.sync_s"),
    (Window, "unlock_all", "mpi.sync_s"),
    (SimProcess, "sync", "runtime.sync_s"),
]

SELF_METRICS = sorted({m for _, _, m in SPANS} | {"apps.self_s"})
GET_SPAN = "CachedWindow.get"
PUT_SPAN = "CachedWindow.put"
SYNC_SPAN = "SimProcess.sync"


class Tracer:
    """Span store for one traced pass."""

    def __init__(self) -> None:
        self.names = [ROOT] + [f"{cls.__name__}.{meth}" for cls, meth, _ in SPANS]
        self._name_idx = {n: i for i, n in enumerate(self.names)}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.span_id = array("q")
        self.parent_id = array("q")
        self.op_id = array("q")
        self.rank = array("h")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")

    def _stack(self) -> list[tuple[int, int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call."""
        idx = self._name_idx[name]
        stack_of = self._stack
        ids = self._ids
        now = time.perf_counter
        local = self._local
        p_id, p_parent, p_op = self.span_id.append, self.parent_id.append, self.op_id.append
        p_rank, p_name = self.rank.append, self.name.append
        p_start, p_end = self.start.append, self.end.append

        def traced(*args, **kwargs):
            st = stack_of()
            sid = next(ids)
            parent, op = st[-1] if st else (0, 0)
            # The outermost layer call under the rank's root opens an op.
            if not op and parent:
                op = sid
            st.append((sid, op))
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                st.pop()
                p_id(sid)
                p_parent(parent)
                p_op(op)
                p_rank(getattr(local, "rank", -1))
                p_name(idx)
                p_start(t0)
                p_end(t1)

        return traced

    def root(self, target):
        """Rank body ``target`` wrapped in the rank's root span."""
        body = self.wrap(target, ROOT)
        local = self._local

        def rooted(proc, *args, **kwargs):
            local.rank = proc.rank
            return body(proc, *args, **kwargs)

        return rooted

    # -- summaries -------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "span_id": np.frombuffer(self.span_id, dtype=np.int64),
            "parent_id": np.frombuffer(self.parent_id, dtype=np.int64),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64),
            "rank": np.frombuffer(self.rank, dtype=np.int16),
            "name": np.frombuffer(self.name, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, float]:
        """Self time per layer metric, op latency percentiles, span counts.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        nmax = int(a["span_id"].max()) + 1 if dur.size else 1
        child = np.bincount(a["parent_id"], weights=dur, minlength=nmax)
        self_t = dur - child[a["span_id"]]
        by_name = np.bincount(a["name"], weights=self_t, minlength=len(self.names))
        counts = np.bincount(a["name"], minlength=len(self.names))

        out = {m: 0.0 for m in SELF_METRICS}
        out["apps.self_s"] = float(by_name[0])
        for i, (_, _, metric) in enumerate(SPANS, start=1):
            out[metric] += float(by_name[i])
        outermost = a["op_id"] == a["span_id"]
        for label, span in (("get", GET_SPAN), ("put", PUT_SPAN)):
            sel = outermost & (a["name"] == self.names.index(span))
            us = dur[sel] * 1e6
            out[f"op.{label}_us.p50"] = float(np.percentile(us, 50)) if us.size else 0.0
            out[f"op.{label}_us.p99"] = float(np.percentile(us, 99)) if us.size else 0.0
        out["core.puts"] = float(counts[self.names.index(PUT_SPAN)])
        out["runtime.syncs"] = float(counts[self.names.index(SYNC_SPAN)])
        return out

    def save(self, path) -> None:
        """Write every span of the pass as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextmanager
def patched(cls: type, attr: str, make) -> Iterator[None]:
    """Replace ``cls.attr`` by ``make(original)`` for the ``with`` block."""
    orig = cls.__dict__[attr]
    setattr(cls, attr, make(orig))
    try:
        yield
    finally:
        setattr(cls, attr, orig)


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Trace every entry point of :data:`SPANS` and each rank's body."""

    def make_main(orig):
        def thread_main(self, proc, target, args, kwargs, results):
            orig(self, proc, tracer.root(target), args, kwargs, results)

        return thread_main

    with ExitStack() as stack:
        stack.enter_context(patched(SimWorld, "_thread_main", make_main))
        for cls, meth, _ in SPANS:
            name = f"{cls.__name__}.{meth}"
            stack.enter_context(
                patched(cls, meth, lambda f, n=name: tracer.wrap(f, n))
            )
        yield tracer


@contextmanager
def counting(cls: type, attr: str) -> Iterator[list[int]]:
    """Count calls of ``cls.attr`` in the ``with`` block (``box[0]``).

    The scheduler runs exactly one rank thread at a time, so the unlocked
    increment cannot lose an update.
    """
    box = [0]

    def make(orig):
        def counted(*args, **kwargs):
            box[0] += 1
            return orig(*args, **kwargs)

        return counted

    with patched(cls, attr, make):
        yield box


@contextmanager
def collecting_windows() -> Iterator[list[Window]]:
    """Every plain :class:`Window` constructed in the ``with`` block."""
    made: list[Window] = []

    def make(orig):
        def init(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            made.append(self)

        return init

    with patched(Window, "__init__", make):
        yield made
