"""Composable interceptor pipelines for RMA operations.

A :class:`Pipeline` is an ordered chain of :class:`Interceptor`\\ s bound
once per window; issuing an :class:`~repro.rma.descriptor.OpDescriptor`
runs it through every stage.  Each cross-cutting concern — retry/backoff,
fault injection, the simulated transport and its cost charging, telemetry
emission, epoch closure — lives in exactly one interceptor class
(:mod:`repro.rma.interceptors`); the two standard chains compose them in
the order the concern semantics require (see ``docs/architecture.md``):

* **data chain** (get/put/accumulate)::

      Retry -> Move -> FaultInjection -> Pricing -> Obs

* **sync chain** (flush/unlock/fence/complete, and epoch-opening locks)::

      Retry -> FaultInjection -> Completion -> Obs -> EpochClose

Binding happens ahead of time (``bind`` returns a closure over the next
stage), so issuing an op costs one call per interceptor and zero
per-issue allocation beyond the descriptor itself.  An interceptor whose
concern cannot fire on a window (no fault injector, no crash plan)
returns ``call_next`` from ``bind`` and costs nothing per op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.rma.descriptor import OpDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.window import Window

#: A bound pipeline stage: runs its concern, then calls the next stage.
Handler = Callable[[OpDescriptor], OpDescriptor]


class Interceptor:
    """One cross-cutting concern of the RMA op path."""

    #: stable identifier, used by introspection and the docs
    name = "interceptor"

    def bind(self, window: "Window", call_next: Handler) -> Handler:
        """Return the stage closure for ``window`` chaining to ``call_next``."""
        raise NotImplementedError


def _terminal(desc: OpDescriptor) -> OpDescriptor:
    return desc


class Pipeline:
    """An interceptor chain bound to one window."""

    def __init__(self, window: "Window", interceptors: list[Interceptor]):
        self.interceptors = tuple(interceptors)
        handler: Handler = _terminal
        for icpt in reversed(self.interceptors):
            handler = icpt.bind(window, handler)
        self._handler = handler

    def issue(self, desc: OpDescriptor) -> OpDescriptor:
        """Run ``desc`` through the chain; returns the same descriptor."""
        return self._handler(desc)
