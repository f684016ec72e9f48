"""The pipeline behind CLaMPI's ``get_c`` processing engine.

:meth:`CachePipeline.serve` runs one cached get through the paper's fixed
sequence (Sec. III, III-B) as straight-line code, in this order (see
``docs/architecture.md``)::

    sequence bookkeeping (seq, size sum)
    crash-stop handling for dead targets      (only if ranks can fail)
    quarantine entry + degraded direct serve
    cost-charged index consult: full / partial hit serve
    miss: remote issue + insert/evict
    --
    cache.access emission + fault-counter fold (always)
    probe countdown / re-enable                (degraded gets)
    adaptive controller check                  (all other gets)

The order is a telemetry contract: ``cache.access`` must precede the
degradation probe's ``cache.degraded`` re-enable event.  Nothing may
raise between the bookkeeping and the closing passes; a get that must
fail records the exception on ``req.failure``, and ``serve`` raises it
only after the closing passes have run.

The pipeline orchestrates; the structural machinery (cuckoo index,
storage, eviction engine) stays on :class:`repro.core.window.CachedWindow`,
which ``serve`` is handed.

Batched requests (``quiet=True``) serve element-by-element through the
same sequence — identical classification, cost charges and adaptation
points, hence bit-identical virtual time — but collect their access
records and raw-transfer descriptors into shared sinks so the batch entry
point can emit one ``cache.access_batch`` + one ``rma.get_batch`` event
for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.mpi.datatypes import Datatype
from repro.obs import CACHE_ACCESS_BATCH
from repro.rma.descriptor import OpDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.window import CachedWindow


@dataclass(slots=True)
class CacheGetRequest:
    """One ``get_c`` flowing through the cache pipeline."""

    origin: np.ndarray
    target: int
    disp: int
    count: int
    dtype: Datatype
    size: int                #: transfer size in bytes
    quiet: bool = False      #: batch element: suppress the per-op event
    #: deferred failure: raised by serve() after the closing passes ran,
    #: so accounting/telemetry stay ordered even for refused gets
    failure: Exception | None = None
    #: batch sinks (shared across one get_batch); None on the scalar path
    access_sink: list[dict[str, Any]] | None = None
    net_sink: list[OpDescriptor] | None = None


class CachePipeline:
    """The ``get_c`` sequence of one :class:`CachedWindow`."""

    def serve(self, cw: "CachedWindow", req: CacheGetRequest) -> int:
        """Serve ``req`` on ``cw``; returns payload bytes."""
        cw._seq += 1
        cw._size_sum += req.size
        proc = cw._win._comm.proc
        dead = False
        if proc.can_fail:
            cw._observe_failures()
            dead = req.target in proc.failed_ranks
        degraded = False
        if dead:
            nbytes = cw._serve_failed_target(req)
        else:
            if (
                not cw._quarantined
                and cw._fault_streak >= cw.config.quarantine_threshold
            ):
                cw._enter_quarantine()
            if cw._quarantined:
                degraded = True
                nbytes = cw._serve_degraded(req)
            else:
                nbytes = cw._consult(req)
                if nbytes is None:
                    nbytes = cw._serve_miss(req)

        if req.quiet:
            if req.access_sink is not None:
                assert cw.stats.last_access is not None
                req.access_sink.append(
                    {
                        "access": cw.stats.last_access.value,
                        "target": req.target,
                        "disp": req.disp,
                        "nbytes": req.size,
                        "base": req.disp
                        * cw._win._group.disp_units[req.target],
                    }
                )
        else:
            cw._emit_access(req.target, req.disp, req.size)
        cw._sync_fault_counters()
        if degraded:
            cw._probe_countdown -= 1
            if cw._probe_countdown <= 0:
                cw._leave_quarantine()
        else:
            cw._maybe_adapt()
        if req.failure is not None:
            raise req.failure
        return nbytes


def describe_cached_get(
    cw: "CachedWindow",
    origin: np.ndarray,
    target_rank: int,
    target_disp: int,
    count: int | None,
    datatype: Datatype | None,
    *,
    quiet: bool = False,
    access_sink: list[dict[str, Any]] | None = None,
    net_sink: list[OpDescriptor] | None = None,
) -> CacheGetRequest:
    dtype, count = cw._win._resolve_dtype(origin, count, datatype)
    return CacheGetRequest(
        origin=origin,
        target=target_rank,
        disp=target_disp,
        count=count,
        dtype=dtype,
        size=dtype.transfer_size(count),
        quiet=quiet,
        access_sink=access_sink,
        net_sink=net_sink,
    )


def serve_write(
    cw: "CachedWindow",
    kind: str,
    origin: np.ndarray,
    target_rank: int,
    target_disp: int,
    count: int | None,
    datatype: Datatype | None,
    acc_op: str = "sum",
) -> int:
    """Write-through path for cached puts/accumulates.

    Writes are never cached (paper Sec. II): pass through to the wrapped
    window's pipeline, then drop any cached entries overlapping the
    written range so a later epoch cannot serve stale bytes.
    """
    dtype, count = cw._win._resolve_dtype(origin, count, datatype)
    if kind == "put":
        nbytes = cw._win.put(origin, target_rank, target_disp, count, dtype)
    else:
        nbytes = cw._win.accumulate(
            origin, target_rank, target_disp, acc_op, count, dtype
        )
    du = cw._win._group.disp_units[target_rank]
    start = target_disp * du
    cw._invalidate_overlapping(
        target_rank, start, start + dtype.extent * count
    )
    return nbytes


def emit_cache_batch(
    cw: "CachedWindow", records: list[dict[str, Any]]
) -> None:
    """One ``cache.access_batch`` accounting event for a ``get_batch``."""
    if not records or not cw.obs.wants(CACHE_ACCESS_BATCH):
        return
    cw._emit(
        CACHE_ACCESS_BATCH,
        count=len(records),
        nbytes=sum(r["nbytes"] for r in records),
        ops=records,
    )
