"""``repro.rma`` — op descriptors and the composable interceptor pipeline.

The architectural seam between window APIs and everything that happens to
an RMA operation.  Ops are *described* once
(:class:`~repro.rma.descriptor.OpDescriptor`: kind, target footprint,
dtype, origin identity, policy switches) and *issued* through a pipeline
whose interceptors each own exactly one concern — retry/backoff, fault
injection, simulated transport (byte movement + cost-model pricing),
telemetry emission, epoch closure.  The CLaMPI cached get runs one
fixed straight-line sequence (:mod:`repro.rma.cache`).

Future backends (sharding, async progress, multi-transport) plug in here:
a new transport is one interceptor swap, not a window rewrite.  See
``docs/architecture.md`` for the layering diagram and ordering
invariants, ``docs/api.md`` for the descriptor / ``get_batch`` API.
"""

from repro.rma.cache import (
    CacheGetRequest,
    CachePipeline,
    describe_cached_get,
    emit_cache_batch,
    serve_write,
)
from repro.rma.descriptor import (
    DATA_KINDS,
    SYNC_KINDS,
    OpDescriptor,
    describe_accumulate,
    describe_get,
    describe_get_batch,
    describe_lock,
    describe_put,
    describe_sync,
)
from repro.rma.interceptors import (
    Completion,
    EpochClose,
    FaultInjection,
    Move,
    Obs,
    Pricing,
    Recovery,
    Retry,
    build_data_pipeline,
    build_sync_pipeline,
    emit_get_batch,
)
from repro.rma.pipeline import Handler, Interceptor, Pipeline

__all__ = [
    "CacheGetRequest",
    "CachePipeline",
    "Completion",
    "DATA_KINDS",
    "EpochClose",
    "FaultInjection",
    "Handler",
    "Interceptor",
    "Move",
    "Obs",
    "OpDescriptor",
    "Pipeline",
    "Pricing",
    "Recovery",
    "Retry",
    "SYNC_KINDS",
    "build_data_pipeline",
    "build_sync_pipeline",
    "describe_accumulate",
    "describe_cached_get",
    "describe_get",
    "describe_get_batch",
    "describe_lock",
    "describe_put",
    "describe_sync",
    "emit_cache_batch",
    "emit_get_batch",
    "serve_write",
]
