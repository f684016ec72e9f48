"""The standard interceptors: one cross-cutting concern each.

Extracted from the pre-pipeline ``repro.mpi.window.Window`` monolith;
every virtual-time charge, injector consultation and telemetry emission
happens in the same order it did inline, so benchmark results and chaos
runs are bit-identical across the refactor (asserted by the golden and
chaos test suites).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.errors import (
    RMATimeoutError,
    TargetFailedError,
    TransientNetworkError,
    WindowError,
)
from repro.obs import FAULT_INJECTED, FAULT_RETRY, NET_TRANSFER, RMA_GET_BATCH
from repro.rma.descriptor import OpDescriptor, _origin_bytes
from repro.rma.pipeline import Handler, Interceptor, Pipeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.window import Window


class Recovery(Interceptor):
    """Crash-stop fail-fast: refuse operations towards dead ranks.

    Outermost interceptor of both chains on a world that *can* lose ranks
    (a crash plan is active): data ops and epoch-opening locks towards a
    crashed target raise :class:`TargetFailedError` immediately — no time
    is charged and no retry fires, because a crash-stop failure never
    heals.  Completion syncs (flush/unlock) towards dead targets pass
    through and complete gracefully: completion is local in this
    simulation, and survivors must be able to close epochs that still
    have entries cached from the victim (``serve-stale`` recovery mode).
    On a crash-free world the frame is elided at bind time, keeping
    fault-free runs bit-identical.
    """

    name = "recovery"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        proc = window._comm.proc
        if not proc.can_fail:
            return call_next

        def run(desc: OpDescriptor) -> OpDescriptor:
            target = desc.target
            if (
                target is not None
                and (desc.is_data or desc.kind == "lock")
                and target in proc.failed_ranks
            ):
                raise TargetFailedError(target, desc.kind)
            return call_next(desc)

        return run


class Retry(Interceptor):
    """Retry/backoff: re-issue transient failures, charging virtual time.

    The single owner of the resilience loop (policy:
    :class:`repro.faults.RetryPolicy`): retries
    :class:`TransientNetworkError` / :class:`RMATimeoutError` up to the
    attempt budget, charging each backoff delay to the rank's clock from
    the injector's deterministic ``backoff`` stream.
    """

    name = "retry"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        if window._faults is None:
            # Fault-free window: nothing can ever raise a retryable error,
            # so skip the wrapper frame on the per-op hot path entirely.
            return call_next

        def run(desc: OpDescriptor) -> OpDescriptor:
            faults = window._faults
            if faults is None or not desc.retryable:
                return call_next(desc)
            policy = window._retry
            attempt = 1
            while True:
                try:
                    return call_next(desc)
                except (TransientNetworkError, RMATimeoutError) as exc:
                    if attempt >= policy.max_attempts:
                        raise
                    delay = policy.delay(attempt, faults.draw("backoff"))
                    window._comm.proc.advance(delay)
                    window.retries += 1
                    if window._obs.wants(FAULT_RETRY):
                        window._emit(
                            FAULT_RETRY,
                            op=desc.fault_site,
                            target=desc.target,
                            attempt=attempt,
                            delay=delay,
                            error=type(exc).__name__,
                        )
                    attempt += 1

        return run


class Move(Interceptor):
    """Simulated transport, data half: move payload bytes (zero time).

    Payloads move at issue time (single address space — see the window
    module docstring); only the pricing interceptor charges clocks.  Bounds
    are checked here, against the target buffer, before any byte moves.
    """

    name = "move"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        def run(desc: OpDescriptor) -> OpDescriptor:
            tbuf = window._group.buffers[desc.target]
            if desc.kind == "accumulate":
                self._bounds_accumulate(desc, tbuf)
                self._apply_accumulate(desc, tbuf)
            else:
                self._bounds(desc, tbuf)
                if desc.kind == "get":
                    self._gather(desc, tbuf)
                else:
                    self._scatter(desc, tbuf)
            desc.result = desc.nbytes
            return call_next(desc)

        return run

    @staticmethod
    def _bounds(desc: OpDescriptor, tbuf: np.ndarray) -> None:
        if desc.base + desc.span > tbuf.nbytes:
            raise WindowError(
                f"{desc.kind} out of bounds: disp {desc.base} + span "
                f"{desc.span} > window size {tbuf.nbytes} at rank {desc.target}"
            )

    @staticmethod
    def _bounds_accumulate(desc: OpDescriptor, tbuf: np.ndarray) -> None:
        if desc.base + desc.nbytes > tbuf.nbytes:
            raise WindowError(
                f"accumulate out of bounds: [{desc.base}, "
                f"{desc.base + desc.nbytes}) > window size {tbuf.nbytes} "
                f"at rank {desc.target}"
            )

    @staticmethod
    def _gather(desc: OpDescriptor, tbuf: np.ndarray) -> None:
        blocks = desc.blocks
        base = desc.base
        if len(blocks) == 1:
            off, size = blocks[0]
            payload = tbuf[base + off : base + off + size]
        else:
            parts = [tbuf[base + o : base + o + s] for o, s in blocks]
            payload = np.concatenate(parts) if parts else np.empty(0, np.uint8)
        obuf = _origin_bytes(desc.origin)
        nbytes = len(payload)
        if obuf.nbytes < nbytes:
            raise WindowError(
                f"origin buffer too small: {obuf.nbytes} < {nbytes}"
            )
        obuf[:nbytes] = payload
        desc.obuf = obuf
        desc.nbytes = nbytes

    @staticmethod
    def _scatter(desc: OpDescriptor, tbuf: np.ndarray) -> None:
        payload = desc.obuf[: desc.nbytes]
        cursor = 0
        for off, size in desc.blocks:
            tbuf[desc.base + off : desc.base + off + size] = payload[
                cursor : cursor + size
            ]
            cursor += size

    @staticmethod
    def _apply_accumulate(desc: OpDescriptor, tbuf: np.ndarray) -> None:
        np_dtype = desc.origin.dtype
        src = desc.obuf.view(np_dtype)
        dst = tbuf[desc.base : desc.base + desc.nbytes].view(np_dtype)
        op = desc.acc_op
        # Float payloads may hold any bit pattern (NaN, inf); the IEEE
        # result is the defined outcome, so numpy's warnings are noise.
        with np.errstate(invalid="ignore", over="ignore"):
            if op == "sum":
                dst += src
            elif op == "max":
                np.maximum(dst, src, out=dst)
            elif op == "min":
                np.minimum(dst, src, out=dst)
            elif op == "replace":
                dst[:] = src
            else:
                raise WindowError(f"unknown accumulate op: {op}")


class FaultInjection(Interceptor):
    """Fault injection: consult the plan at the op's site; raise on fire.

    Data sites sit *after* the byte move (a transient failure still moved
    the bytes — re-issuing moves the same ones, keeping faulted runs
    bit-identical) and charge the wasted round trip, capped at the per-op
    timeout.  Sync sites fire before completion and waste the timeout.
    """

    name = "fault-injection"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        if window._faults is None:
            return call_next  # no injector: elide the per-op frame
        from repro.mpi.window import SYNC_OVERHEAD

        def run(desc: OpDescriptor) -> OpDescriptor:
            inj = window._faults
            site = desc.fault_site
            if inj is None or site is None or inj.fire(site, desc.target) is None:
                return call_next(desc)
            if desc.is_data:
                perf = window._comm.perf
                rank = window._comm.rank
                wasted = perf.issue_time(
                    rank, desc.target, desc.nbytes
                ) + perf.get_time(rank, desc.target, desc.nbytes)
                timeout = window._retry.op_timeout
                if timeout is not None:
                    wasted = min(wasted, timeout)
                window._comm.proc.advance(wasted)
                window.faults_injected += 1
                if window._obs.wants(FAULT_INJECTED):
                    window._emit(
                        FAULT_INJECTED,
                        op=site,
                        target=desc.target,
                        nbytes=desc.nbytes,
                        wasted=wasted,
                    )
                raise TransientNetworkError(
                    f"injected transient {site} failure towards rank "
                    f"{desc.target} ({desc.nbytes} B)"
                )
            wasted = window._retry.op_timeout or 10 * SYNC_OVERHEAD
            window._comm.proc.advance(wasted)
            window.faults_injected += 1
            if window._obs.wants(FAULT_INJECTED):
                window._emit(
                    FAULT_INJECTED, op=site, target=desc.target, wasted=wasted
                )
            where = (
                "all ranks" if desc.target is None else f"rank {desc.target}"
            )
            raise RMATimeoutError(
                f"injected synchronisation timeout towards {where}"
            )

        return run


class Pricing(Interceptor):
    """Simulated transport, time half: charge the network cost model.

    Charges the issue overhead, prices the transfer duration, applies
    congestion jitter (which lives here, not in the fault interceptor,
    because it perturbs the priced duration — a stall past the op timeout
    degenerates into a retryable timeout), posts the pending op and keeps
    the byte-accounting diagnostics.
    """

    name = "pricing"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        from repro.mpi.window import _PendingOp

        perf = window._comm.perf
        rank = window._comm.rank
        # Per-target price memo: distance, issue overhead and the transfer
        # (alpha, bandwidth) are pure functions of the rank pair, so caching
        # them per window cannot change any charged time.
        links: dict[int, tuple] = {}

        def run(desc: OpDescriptor) -> OpDescriptor:
            proc = window._comm.proc
            target = desc.target
            nbytes = desc.nbytes
            link = links.get(target)
            if link is None:
                link = links[target] = perf.link(rank, target)
            dist, issue, alpha, bw = link
            proc.advance(issue)
            duration = alpha + nbytes / bw
            if window._faults is not None:
                stall = window._faults.stall_for(target, duration)
                if stall > 0.0:
                    duration += stall
                    if window._obs.wants(FAULT_INJECTED):
                        window._emit(
                            FAULT_INJECTED,
                            op="jitter",
                            target=target,
                            stall=stall,
                        )
                    timeout = window._retry.op_timeout
                    if timeout is not None and duration > timeout:
                        proc.advance(timeout)
                        window.faults_injected += 1
                        if window._obs.wants(FAULT_INJECTED):
                            window._emit(
                                FAULT_INJECTED,
                                op="timeout",
                                target=target,
                                wasted=timeout,
                            )
                        raise RMATimeoutError(
                            f"transfer of {nbytes} B to rank {target} stalled "
                            f"{stall:.3e}s past the {timeout:.3e}s op timeout"
                        )
            desc.pending_op = _PendingOp(target, proc.clock, duration)
            window._pending.append(desc.pending_op)
            window._bytes_transferred += nbytes
            window._bytes_by_distance[dist] = (
                window._bytes_by_distance.get(dist, 0) + nbytes
            )
            if window._obs.wants(NET_TRANSFER):
                window._emit(
                    NET_TRANSFER,
                    duration=duration,
                    target=target,
                    nbytes=nbytes,
                    distance=dist.name,
                    issue=issue,
                )
            return call_next(desc)

        return run


class Completion(Interceptor):
    """Simulated transport, sync half: complete selected pending ops.

    Advances the clock past the completion of the descriptor's target set,
    runs the optional epoch-state ``finalize`` hook (lock release, PSCW
    access-group reset) and records the synchronisation's extent for the
    obs interceptor.  Locks (``completes=False``) pass straight through.
    """

    name = "completion"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        def run(desc: OpDescriptor) -> OpDescriptor:
            if not desc.completes:
                return call_next(desc)
            proc = window._comm.proc
            t0 = proc.clock
            window._complete(desc.targets)
            if desc.barrier:
                window._comm.barrier()
            if desc.finalize is not None:
                desc.finalize()
            desc.duration = proc.clock - t0
            return call_next(desc)

        return run


class Obs(Interceptor):
    """Telemetry emission: exactly one event per op, none when disabled.

    Data ops carry the sanitizer footprint (``base``/``span`` at the
    target, ``origin``/``onbytes`` identity); sync ops carry their
    pre-built attrs plus the measured completion extent.  Batched ops
    (``quiet=True``) skip their per-op event — the batch entry point emits
    one accounting event for the whole batch instead.
    """

    name = "obs"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        def run(desc: OpDescriptor) -> OpDescriptor:
            if desc.quiet or not window._obs.wants(desc.emit_kind):
                return call_next(desc)
            if desc.is_data:
                attrs = {
                    "target": desc.target,
                    "disp": desc.disp,
                    "nbytes": desc.nbytes,
                }
                if desc.kind == "accumulate":
                    attrs["op"] = desc.acc_op
                attrs["base"] = desc.base
                attrs["span"] = desc.span
                attrs["origin"] = int(
                    desc.obuf.__array_interface__["data"][0]
                )
                attrs["onbytes"] = desc.nbytes
                window._emit(desc.emit_kind, **attrs)
            else:
                window._emit(
                    desc.emit_kind, duration=desc.duration, **desc.emit_attrs
                )
            return call_next(desc)

        return run


class EpochClose(Interceptor):
    """Epoch closure: fire the CLaMPI materialisation hooks, bump ``eph``."""

    name = "epoch-close"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        def run(desc: OpDescriptor) -> OpDescriptor:
            desc = call_next(desc)
            if desc.epoch_close:
                window._close_epoch(desc.close_targets)
            return desc

        return run


def build_data_pipeline(window: "Window") -> Pipeline:
    """The standard data-op chain (see module docstring for ordering)."""
    return Pipeline(
        window, [Recovery(), Retry(), Move(), FaultInjection(), Pricing(), Obs()]
    )


def build_sync_pipeline(window: "Window") -> Pipeline:
    """The standard sync-op chain."""
    return Pipeline(
        window,
        [Recovery(), Retry(), FaultInjection(), Completion(), Obs(), EpochClose()],
    )


def emit_get_batch(window: "Window", descs: list[OpDescriptor]) -> None:
    """One batched accounting event for a completed ``get_batch``.

    Carries the per-op footprints so the :mod:`repro.analysis` sanitizer
    can interval-check every element of the batch exactly as it does
    scalar gets.
    """
    if not descs or not window._obs.wants(RMA_GET_BATCH):
        return
    window._emit(
        RMA_GET_BATCH,
        count=len(descs),
        nbytes=sum(d.result for d in descs),
        ops=[d.footprint() for d in descs],
    )
