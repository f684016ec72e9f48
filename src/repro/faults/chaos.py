"""Chaos harness: prove the stack is fault-transparent.

Runs each workload twice — once fault-free, once under a
:class:`~repro.faults.FaultPlan` — and checks the *computed results are
bit-identical*.  That is the correctness contract of the resilience layer
(docs/resilience.md): injected transient failures, flush timeouts, latency
jitter and cache-storage pressure may change timing and the stats
counters, but never a single output byte.

Workloads:

* ``micro``  — synthetic get/flush loop with heavy reuse over a
  caching-enabled window, including storage faults aggressive enough to
  quarantine the cache;
* ``lcc``    — the Local Clustering Coefficient application (Sec. IV-C);
* ``barnes`` — the Barnes-Hut force phase (Sec. IV-B).

Run it via ``python -m repro.faults [--seed N] [--obs capture.jsonl]``;
exit status is non-zero when any workload diverges.  Like
:mod:`repro.obs.report`, this module needs the application layer and is
therefore *not* imported by ``repro.faults.__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import clampi
from repro.apps.cachespec import CacheSpec
from repro.apps.lcc import LCCApp
from repro.apps.barnes_hut import BarnesHutApp
from repro.core.config import Config
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.retry import RetryPolicy
from repro.mpi.simmpi import MPIProcess, SimMPI

#: fraction of gets that fail transiently in the default plan (the
#: acceptance bar is >= 5%)
DEFAULT_GET_FAILURE_RATE = 0.08


@dataclass
class ChaosOutcome:
    """Result of one clean-vs-faulted workload comparison."""

    name: str
    identical: bool                 #: faulted results == clean results, bitwise
    clean_elapsed: float            #: virtual makespan, fault-free run
    faulty_elapsed: float           #: virtual makespan, faulted run
    stats: dict[str, float] = field(default_factory=dict)  #: merged, faulted run

    @property
    def ok(self) -> bool:
        """Identical results *and* the plan demonstrably fired."""
        return self.identical and self.stats.get("faults_injected", 0) > 0


def default_plan(seed: int) -> FaultPlan:
    """The standard chaos mix: lost gets, flush timeouts, jitter, pressure."""
    return FaultPlan.of(
        FaultRule("get", probability=DEFAULT_GET_FAILURE_RATE),
        FaultRule("flush", probability=0.02),
        FaultRule("jitter", probability=0.10, stall=2e-6, stall_factor=0.5),
        FaultRule("alloc", probability=0.02),
        seed=seed,
    )


def default_retry() -> RetryPolicy:
    return RetryPolicy(max_attempts=8)


def merge_stats(per_rank: list[dict]) -> dict[str, float]:
    """Sum per-rank snapshot counters (dropping the schema tag).

    Non-numeric snapshot values (the v3 ``policy`` name) are skipped —
    only counters can be summed across ranks.
    """
    merged: dict[str, float] = {}
    for snap in per_rank:
        for k, v in snap.items():
            if k != "schema_version" and isinstance(v, (int, float)):
                merged[k] = merged.get(k, 0) + v
    return merged


# ----------------------------------------------------------------------
# micro-benchmark workload
# ----------------------------------------------------------------------
def _micro_program(mpi: MPIProcess, seed: int):
    """Reuse-heavy get/flush loop over a small caching-enabled window."""
    comm = mpi.comm_world
    cfg = Config(
        index_entries=64,
        storage_bytes=8 * 1024,
        mode=clampi.Mode.ALWAYS_CACHE,
        quarantine_threshold=2,
        quarantine_probe_interval=8,
    )
    win = clampi.window_allocate(comm, 4096, config=cfg)
    view = win.local_view(np.float64)
    rng = np.random.default_rng(seed + mpi.rank)
    view[:] = rng.normal(size=view.size)
    comm.barrier()

    # Zipf-ish access stream over all peers: hubs get refetched a lot.
    offsets = (rng.zipf(1.5, size=200) - 1) % (view.size // 8)
    peers = rng.integers(0, mpi.size, size=200)
    buf = np.empty(8)
    acc = np.zeros(8)
    with win.lock_all_epoch():
        for off, peer in zip(offsets, peers):
            if peer == mpi.rank:
                continue
            win.get(buf, int(peer), int(off) * 8 * 8)
            win.flush(int(peer))
            acc += buf
    t = mpi.time
    return acc, clampi.stats(win).snapshot(), t


def run_micro(
    plan: FaultPlan,
    retry: RetryPolicy | None = None,
    nprocs: int = 4,
    seed: int = 1,
) -> ChaosOutcome:
    retry = retry or default_retry()
    # A burst of guaranteed allocation failures early in the run drives the
    # cache through its full quarantine -> probe -> re-enable cycle, so the
    # suite exercises graceful degradation, not just retries.
    plan = plan.with_rules(
        FaultRule("alloc", probability=1.0, t_start=1e-5, t_end=5e-5)
    )
    clean = SimMPI(nprocs=nprocs).run(_micro_program, seed)
    faulty = SimMPI(nprocs=nprocs, faults=plan, retry=retry).run(
        _micro_program, seed
    )
    identical = all(
        np.array_equal(a, b) for (a, _, _), (b, _, _) in zip(clean, faulty)
    )
    return ChaosOutcome(
        name="micro",
        identical=identical,
        clean_elapsed=max(t for _, _, t in clean),
        faulty_elapsed=max(t for _, _, t in faulty),
        stats=merge_stats([s for _, s, _ in faulty]),
    )


# ----------------------------------------------------------------------
# application workloads
# ----------------------------------------------------------------------
def run_lcc(
    plan: FaultPlan,
    retry: RetryPolicy | None = None,
    nprocs: int = 4,
    scale: int = 7,
) -> ChaosOutcome:
    retry = retry or default_retry()
    app = LCCApp(scale=scale, edge_factor=8, seed=2)
    spec = CacheSpec.clampi_fixed(256, 64 * 1024)
    clean = app.run(nprocs, spec)
    faulty = app.run(nprocs, spec, faults=plan, retry=retry)
    return ChaosOutcome(
        name="lcc",
        identical=bool(np.array_equal(clean.lcc, faulty.lcc)),
        clean_elapsed=clean.elapsed,
        faulty_elapsed=faulty.elapsed,
        stats=merge_stats(faulty.cache_stats),
    )


def run_barnes_hut(
    plan: FaultPlan,
    retry: RetryPolicy | None = None,
    nprocs: int = 4,
    nbodies: int = 192,
) -> ChaosOutcome:
    retry = retry or default_retry()
    app = BarnesHutApp(nbodies=nbodies, seed=3)
    spec = CacheSpec.clampi_fixed(256, 64 * 1024)
    clean = app.run(nprocs, spec)
    faulty = app.run(nprocs, spec, faults=plan, retry=retry)
    return ChaosOutcome(
        name="barnes-hut",
        identical=bool(np.array_equal(clean.forces, faulty.forces)),
        clean_elapsed=clean.elapsed,
        faulty_elapsed=faulty.elapsed,
        stats=merge_stats(faulty.cache_stats),
    )


# ----------------------------------------------------------------------
# crash-stop scenario (docs/resilience.md, "crash" failure model)
# ----------------------------------------------------------------------
@dataclass
class CrashOutcome:
    """Result of one crash-stop workload run (clean / armed / crashed)."""

    name: str
    nprocs: int
    victim: int                    #: rank killed in the crashed run
    completed: bool                #: crashed run finished on the survivors
    survivors: int                 #: ranks that returned a result
    #: armed-but-unfired run (crash planned far past the end) stayed
    #: bit-identical to the clean run in results AND virtual time
    unfired_identical: bool
    schema_ok: bool                #: survivor snapshots carry schema v4
    clean_elapsed: float
    crashed_elapsed: float
    stats: dict[str, float] = field(default_factory=dict)  #: merged, crashed run

    @property
    def ok(self) -> bool:
        """Survivors completed, recovery demonstrably engaged, no drift."""
        return (
            self.completed
            and self.survivors == self.nprocs - 1
            and self.unfired_identical
            and self.schema_ok
            and self.stats.get("rank_failures", 0) > 0
        )


def crash_plan(seed: int, victim: int, t_start: float) -> FaultPlan:
    """A plan that kills exactly ``victim`` at virtual time ``t_start``."""
    return FaultPlan.of(
        FaultRule("crash", probability=1.0, ranks=(victim,), t_start=t_start),
        seed=seed,
    )


def _run_crash_app(
    name: str,
    run,
    results_of,
    seed: int,
    nprocs: int,
) -> CrashOutcome:
    """Shared clean / armed-unfired / crashed protocol for one app.

    ``run(faults)`` executes the app; ``results_of(outcome)`` extracts the
    computed array compared for bit-identity.
    """
    clean = run(None)
    victim = (seed + nprocs // 2) % nprocs
    # Armed but unfired: the crash machinery is active (failure detector,
    # Recovery interceptor, the cache's crash handling) but the victim
    # would die long after the run ends -- results and virtual times must
    # stay bit-identical to the clean run.
    unfired = run(crash_plan(seed, victim, t_start=clean.makespan * 10.0))
    unfired_identical = (
        bool(np.array_equal(results_of(clean), results_of(unfired)))
        and clean.rank_times == unfired.rank_times
        and clean.makespan == unfired.makespan
    )
    # The real crash: mid-force/traversal-phase, after setup completed.
    setup = clean.makespan - clean.elapsed
    try:
        crashed = run(crash_plan(seed, victim, setup + 0.45 * clean.elapsed))
    except Exception:
        # Deadlock, an escaped RankFailedError, a survivor dying on an
        # unhandled revocation -- exactly what this scenario guards against.
        return CrashOutcome(
            name=name,
            nprocs=nprocs,
            victim=victim,
            completed=False,
            survivors=0,
            unfired_identical=unfired_identical,
            schema_ok=False,
            clean_elapsed=clean.elapsed,
            crashed_elapsed=float("nan"),
        )
    return CrashOutcome(
        name=name,
        nprocs=nprocs,
        victim=victim,
        completed=True,
        survivors=len(crashed.cache_stats),
        unfired_identical=unfired_identical,
        schema_ok=all(
            s.get("schema_version") == 4 for s in crashed.cache_stats
        ),
        clean_elapsed=clean.elapsed,
        crashed_elapsed=crashed.elapsed,
        stats=merge_stats(crashed.cache_stats),
    )


def run_crash_lcc(seed: int = 0, nprocs: int = 8, scale: int = 7) -> CrashOutcome:
    """LCC with one rank dying mid-traversal; survivors must finish."""
    app = LCCApp(scale=scale, edge_factor=8, seed=2)
    spec = CacheSpec.clampi_fixed(256, 64 * 1024, recovery="serve-stale")
    return _run_crash_app(
        "lcc-crash",
        lambda faults: app.run(nprocs, spec, faults=faults),
        lambda r: r.lcc,
        seed,
        nprocs,
    )


def run_crash_barnes_hut(
    seed: int = 0, nprocs: int = 8, nbodies: int = 192
) -> CrashOutcome:
    """Barnes-Hut with one rank dying mid-force-phase."""
    app = BarnesHutApp(nbodies=nbodies, seed=3)
    spec = CacheSpec.clampi_fixed(256, 64 * 1024, recovery="serve-stale")
    return _run_crash_app(
        "barnes-crash",
        lambda faults: app.run(nprocs, spec, faults=faults),
        lambda r: r.forces,
        seed,
        nprocs,
    )


def run_crash_suite(seed: int = 0) -> list[CrashOutcome]:
    """Both applications under the crash-stop scenario."""
    return [run_crash_lcc(seed=seed), run_crash_barnes_hut(seed=seed)]


def render_crash(outcomes: list[CrashOutcome]) -> str:
    """Human-readable crash-scenario report (one block per workload)."""
    lines = []
    for o in outcomes:
        verdict = "OK " if o.ok else "FAIL"
        lines.append(
            f"[{verdict}] {o.name:<12} survivors={o.survivors}/{o.nprocs} "
            f"(rank {o.victim} crashed) unfired-identical="
            f"{str(o.unfired_identical):<5} "
            f"elapsed {o.clean_elapsed * 1e3:8.3f} ms -> "
            f"{o.crashed_elapsed * 1e3:8.3f} ms"
        )
        s = o.stats
        lines.append(
            f"       rank_failures={s.get('rank_failures', 0):.0f} "
            f"failed_target_gets={s.get('failed_target_gets', 0):.0f} "
            f"recovered_gets={s.get('recovered_gets', 0):.0f} "
            f"recovery_pinned={s.get('recovery_pinned', 0):.0f} "
            f"recovery_dropped={s.get('recovery_dropped', 0):.0f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def run_suite(seed: int = 0) -> list[ChaosOutcome]:
    """All workloads under the default chaos mix for ``seed``."""
    plan = default_plan(seed)
    retry = default_retry()
    return [
        run_micro(plan, retry),
        run_lcc(plan, retry),
        run_barnes_hut(plan, retry),
    ]


def render(outcomes: list[ChaosOutcome]) -> str:
    """Human-readable chaos report (one block per workload)."""
    lines = []
    for o in outcomes:
        verdict = "OK " if o.ok else "FAIL"
        slowdown = (
            o.faulty_elapsed / o.clean_elapsed if o.clean_elapsed else float("nan")
        )
        lines.append(
            f"[{verdict}] {o.name:<11} bit-identical={str(o.identical):<5} "
            f"elapsed {o.clean_elapsed * 1e3:8.3f} ms -> "
            f"{o.faulty_elapsed * 1e3:8.3f} ms ({slowdown:.2f}x)"
        )
        s = o.stats
        lines.append(
            f"       faults={s.get('faults_injected', 0):.0f} "
            f"retries={s.get('retries', 0):.0f} "
            f"storage_faults={s.get('storage_faults', 0):.0f} "
            f"quarantines={s.get('quarantines', 0):.0f} "
            f"degraded_gets={s.get('degraded_gets', 0):.0f}"
        )
    return "\n".join(lines)
