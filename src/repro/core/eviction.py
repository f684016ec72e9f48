"""Victim selection and eviction (paper Sec. III-D).

Two eviction triggers exist:

* **conflicting** — a cuckoo insertion walk cycled; the victim is chosen
  among the entries on the *insertion path* (plus the homeless tail), by
  lowest score;
* **capacity** — the storage allocator found no fitting hole; the victim is
  sampled from a circular window of ``M`` index slots starting at a random
  position ("if the sample is empty, the procedure keeps scanning until at
  least one non-empty entry is found"), again by lowest score.

Only CACHED entries are evictable: a PENDING entry's payload is not in
``S_w`` yet and its destination buffers are still owed data at epoch close.
Entries pinned by crash recovery (``recovery="serve-stale"``) are likewise
never victims — they are the only remaining source of a dead rank's data.

The eviction engine reports how many slots it visited and how many of them
were non-empty — the sparsity signal ``q`` consumed by the adaptive
controller (Sec. III-E1) and plotted in Fig. 11.

Since the policy redesign the engine is pure *mechanism*: sampling walks,
insertion-path scans and the RNG stream live here, while scoring and
admission decisions are delegated to a pluggable
:class:`repro.core.policy.CachePolicy`.  The victim sample's randomness
comes from a **per-engine seeded stream** (``Random(seed)``, one instance
per window/engine, never the module-level RNG), so two caching-enabled
windows in one run can never perturb each other's eviction choices and a
given seed always replays the same eviction trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.core.cuckoo import CuckooIndex
from repro.core.entry import CacheEntry
from repro.core.policy import CachePolicy, PolicyContext, make_policy
from repro.core.states import EntryState
from repro.core.storage import Storage


@dataclass
class SampleResult:
    """Outcome of a capacity-victim sampling walk."""

    victim: CacheEntry | None
    visited: int      #: total slots visited (v_i = max(M, k_i) in the paper)
    nonempty: int     #: slots holding any entry
    score: float = float("inf")  #: the victim's score under the policy


class EvictionEngine:
    """Samples candidates and applies one policy's scores/decisions.

    ``policy`` may be a :class:`~repro.core.policy.CachePolicy` instance
    or a registry name.  ``miss_cost`` — when the engine serves a window —
    estimates the virtual-time refetch penalty of an entry for cost-aware
    policies.
    """

    def __init__(
        self,
        index: CuckooIndex,
        storage: Storage,
        policy: CachePolicy | str,
        sample_size: int,
        seed: int = 0,
        miss_cost: Callable[[CacheEntry], float] | None = None,
    ):
        self.index = index
        self.storage = storage
        if not isinstance(policy, CachePolicy):
            policy = make_policy(policy, seed=seed)
        self.policy = policy
        policy.bind(index.capacity, seed)
        self.sample_size = sample_size
        self.miss_cost = miss_cost
        #: per-engine seeded stream — one independent RNG per window
        self._rng = random.Random(seed)
        # One reusable context per engine: policy hooks fire once or more
        # per get, so a fresh PolicyContext per decision costs millions of
        # throwaway allocations per run.  Hooks treat the context as
        # ephemeral (see PolicyContext docstring), so in-place field
        # updates are observationally identical.
        self._pooled_ctx = PolicyContext(
            seq_index=0, avg_get_size=0.0, miss_cost=miss_cost
        )

    # ------------------------------------------------------------------
    def _ctx(
        self, seq_index: int, avg_get_size: float, entry: CacheEntry | None = None
    ) -> PolicyContext:
        ctx = self._pooled_ctx
        ctx.seq_index = seq_index
        ctx.avg_get_size = avg_get_size
        ctx.adjacent_free = (
            self.storage.adjacent_free(entry.desc)
            if entry is not None and entry.desc
            else 0
        )
        return ctx

    def score(self, entry: CacheEntry, seq_index: int, avg_get_size: float) -> float:
        """Entry score under the configured policy (lower = better victim)."""
        return self.policy.victim_score(
            entry, self._ctx(seq_index, avg_get_size, entry)
        )

    # -- policy observation forwarding ---------------------------------
    def notify_hit(
        self, entry: CacheEntry, seq_index: int, avg_get_size: float
    ) -> None:
        self.policy.on_hit(entry, self._ctx(seq_index, avg_get_size, entry))

    def notify_miss(
        self,
        key: tuple[int, int],
        nbytes: int,
        seq_index: int,
        avg_get_size: float,
    ) -> None:
        self.policy.on_miss(key, nbytes, self._ctx(seq_index, avg_get_size))

    def notify_insert(
        self, entry: CacheEntry, seq_index: int, avg_get_size: float
    ) -> None:
        self.policy.on_insert(entry, self._ctx(seq_index, avg_get_size, entry))

    def notify_free(self, entry: CacheEntry, reason: str) -> None:
        self.policy.on_free(entry, reason)

    def admit(
        self, entry: CacheEntry, seq_index: int, avg_get_size: float
    ) -> bool:
        """Admission decision for a miss (before any index/storage work)."""
        return self.policy.admit(entry, self._ctx(seq_index, avg_get_size))

    # ------------------------------------------------------------------
    def sample_capacity_victim(
        self, seq_index: int, avg_get_size: float
    ) -> SampleResult:
        """Pick the lowest-score CACHED entry in a random circular sample.

        Visits ``M`` consecutive slots of ``I_w`` (modelled as a circular
        array) starting at a random position; if none of them holds an
        evictable entry it keeps scanning until one is found or the whole
        table has been visited.
        """
        cap = self.index.capacity
        start = self._rng.randrange(cap)
        visited = 0
        nonempty = 0
        best: CacheEntry | None = None
        best_score = float("inf")
        i = start
        while visited < cap:
            entry = self.index.entry_at(i)
            visited += 1
            if entry is not None:
                nonempty += 1
                assert isinstance(entry, CacheEntry)
                if entry.state is EntryState.CACHED and not entry.pinned:
                    s = self.score(entry, seq_index, avg_get_size)
                    if s < best_score:
                        best_score = s
                        best = entry
            i = (i + 1) % cap
            # Paper stopping rule: v_i = max(M, k_i) — visit M entries, and
            # keep scanning only while the sample is still empty.  A sample
            # containing only PENDING (non-evictable) entries yields no
            # victim; the access then fails (weak caching).
            if visited >= self.sample_size and nonempty > 0:
                break
        return SampleResult(best, visited, nonempty, best_score)

    def select_conflict_victim(
        self,
        path: list[CacheEntry],
        seq_index: int,
        avg_get_size: float,
        exclude: CacheEntry | None = None,
    ) -> CacheEntry | None:
        """Lowest-score evictable entry on a cuckoo insertion path."""
        best: CacheEntry | None = None
        best_score = float("inf")
        for e in path:
            if e is exclude:
                continue
            if e.state is not EntryState.CACHED or e.pinned:
                continue
            s = self.score(e, seq_index, avg_get_size)
            if s < best_score:
                best_score = s
                best = e
        return best
