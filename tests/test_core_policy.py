"""Tests for the pluggable eviction/admission policy subsystem.

Covers the registry (names, aliases, deprecation), the behaviour of each
built-in policy in isolation, the property-style invariant check — every
registered policy must preserve storage/index invariants and data
correctness under a randomized get/invalidate workload — and the
determinism guarantee (same seed ⇒ same eviction trace, observed through
``cache.evict`` telemetry).
"""

import numpy as np
import pytest

from repro import clampi, obs
from repro.core import policy as pol
from repro.core.entry import CacheEntry
from repro.mpi.datatypes import BYTE
from repro.mpi import SimMPI
from repro.util import KiB

BUILTINS = {
    "clampi-full",
    "clampi-temporal",
    "clampi-positional",
    "lru",
    "slru",
    "gdsf",
    "tinylfu",
}


def entry(trg=1, dsp=0, size=64, last=0) -> CacheEntry:
    e = CacheEntry(trg, dsp, BYTE, size)
    e.last = last
    return e


def ctx(seq=100, ags=64.0, adjacent_free=0) -> pol.PolicyContext:
    return pol.PolicyContext(
        seq_index=seq, avg_get_size=ags, adjacent_free=adjacent_free
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert BUILTINS <= set(pol.available_policies())

    def test_available_is_sorted(self):
        names = pol.available_policies()
        assert names == sorted(names)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            pol.register("lru", pol.LRUPolicy)

    def test_register_replace(self):
        pol.register("test-replace-me", pol.LRUPolicy)
        try:
            pol.register("test-replace-me", pol.SegmentedLRUPolicy, replace=True)
            p = pol.make_policy("test-replace-me")
            assert isinstance(p, pol.SegmentedLRUPolicy)
        finally:
            pol._REGISTRY.pop("test-replace-me", None)

    def test_register_rejects_legacy_alias_names(self):
        with pytest.raises(ValueError, match="reserved legacy alias"):
            pol.register("full", pol.LRUPolicy)

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError):
            pol.register("", pol.LRUPolicy)

    def test_canonical_passthrough(self):
        assert pol.canonical_policy_name("gdsf") == "gdsf"

    def test_canonical_bare_score_aliases(self):
        assert pol.canonical_policy_name("full") == "clampi-full"
        assert pol.canonical_policy_name("temporal") == "clampi-temporal"
        assert pol.canonical_policy_name("positional") == "clampi-positional"

    def test_canonical_unknown_raises_with_listing(self):
        with pytest.raises(ValueError, match="registered"):
            pol.canonical_policy_name("no-such-policy")

    def test_canonical_rejects_non_string(self):
        with pytest.raises(TypeError):
            pol.canonical_policy_name(42)

    def test_make_policy_stamps_factory_name(self):
        pol.register("test-stamped", lambda seed=0: pol.LRUPolicy(seed))
        try:
            p = pol.make_policy("test-stamped")
            assert p.name == "test-stamped"
        finally:
            pol._REGISTRY.pop("test-stamped", None)


# ---------------------------------------------------------------------------
# per-policy unit behaviour
# ---------------------------------------------------------------------------
class TestLRU:
    def test_score_is_recency(self):
        p = pol.make_policy("lru")
        old, new = entry(dsp=0, last=3), entry(dsp=64, last=90)
        assert p.victim_score(old, ctx()) < p.victim_score(new, ctx())


class TestSegmentedLRU:
    def test_probation_evicted_before_protected(self):
        p = pol.make_policy("slru")
        p.bind(64, seed=1)
        protected, probation = entry(dsp=0, last=50), entry(dsp=64, last=80)
        p.on_hit(protected, ctx())  # promote
        assert p.victim_score(probation, ctx()) < p.victim_score(
            protected, ctx()
        )

    def test_free_demotes(self):
        p = pol.make_policy("slru")
        p.bind(64, seed=1)
        e = entry(last=50)
        p.on_hit(e, ctx())
        promoted = p.victim_score(e, ctx())
        p.on_free(e, "evicted")
        assert p.victim_score(e, ctx()) < promoted

    def test_rebind_clears_segments(self):
        p = pol.make_policy("slru")
        p.bind(64, seed=1)
        e = entry(last=50)
        p.on_hit(e, ctx())
        p.bind(64, seed=1)
        assert p.victim_score(e, ctx()) == pytest.approx(50.0)


class TestGDSF:
    def test_frequency_raises_priority(self):
        p = pol.make_policy("gdsf")
        p.bind(64, seed=1)
        hot, cold = entry(dsp=0, size=64), entry(dsp=128, size=64)
        for e in (hot, cold):
            p.on_miss(e.key, e.size, ctx())
            p.on_insert(e, ctx())
        for _ in range(5):
            p.on_hit(hot, ctx())
        assert p.victim_score(cold, ctx()) < p.victim_score(hot, ctx())

    def test_cheap_big_entries_go_first(self):
        # equal frequency: the lower refetch-cost-per-byte entry loses
        p = pol.make_policy("gdsf")
        p.bind(64, seed=1)
        small, big = entry(dsp=0, size=64), entry(dsp=128, size=4096)
        cost = lambda e: 1e-6  # flat cost -> per-byte favours small  # noqa: E731
        c = pol.PolicyContext(seq_index=10, avg_get_size=64.0, miss_cost=cost)
        for e in (small, big):
            p.on_miss(e.key, e.size, c)
            p.on_insert(e, c)
        assert p.victim_score(big, c) < p.victim_score(small, c)

    def test_eviction_advances_aging_clock(self):
        p = pol.make_policy("gdsf")
        p.bind(64, seed=1)
        e = entry(size=64)
        p.on_miss(e.key, e.size, ctx())
        p.on_insert(e, ctx())
        assert p._clock == 0.0
        p.on_free(e, "evicted")
        assert p._clock > 0.0

    def test_invalidation_does_not_age(self):
        p = pol.make_policy("gdsf")
        p.bind(64, seed=1)
        e = entry(size=64)
        p.on_insert(e, ctx())
        p.on_free(e, "invalidated")
        assert p._clock == 0.0


class TestTinyLFU:
    def test_rejects_first_touch_admits_second(self):
        p = pol.make_policy("tinylfu")
        p.bind(64, seed=1)
        e = entry()
        p.on_miss(e.key, e.size, ctx())
        assert not p.admit(e, ctx())
        p.on_miss(e.key, e.size, ctx())
        assert p.admit(e, ctx())

    def test_sketch_deterministic_across_instances(self):
        a = pol._CountMinSketch(256, seed=7)
        b = pol._CountMinSketch(256, seed=7)
        for k in range(500):
            a.add(k * 17)
            b.add(k * 17)
        assert all(a.estimate(k * 17) == b.estimate(k * 17) for k in range(500))

    def test_sketch_estimate_upper_bounds_count(self):
        s = pol._CountMinSketch(256, seed=3)
        for _ in range(5):
            s.add(1234)
        assert s.estimate(1234) >= 5

    def test_sketch_halving_keeps_estimates_fresh(self):
        s = pol._CountMinSketch(16, seed=3)
        for _ in range(s.sample_period):
            s.add(99)
        # the aging pass ran: counters were halved at least once
        assert s.estimate(99) < s.sample_period

    def test_frequency_beats_recency_in_victim_score(self):
        p = pol.make_policy("tinylfu")
        p.bind(64, seed=1)
        hot, cold = entry(dsp=0, last=10), entry(dsp=64, last=90)
        for _ in range(8):
            p.on_hit(hot, ctx())
        assert p.victim_score(cold, ctx()) < p.victim_score(hot, ctx())


# ---------------------------------------------------------------------------
# property-style: every registered policy preserves the cache invariants
# ---------------------------------------------------------------------------
def _fill_pattern(mpi, nbytes):
    return ((np.arange(nbytes) * 13) % 251).astype(np.uint8)


@pytest.mark.parametrize("policy_name", sorted(BUILTINS))
def test_policy_preserves_invariants_under_random_workload(policy_name):
    def program(m):
        nbytes = 8 * KiB
        # pre-fill the target window before wrapping
        cfg = clampi.Config(
            index_entries=32,
            storage_bytes=1 * KiB,
            sample_size=4,
            policy=policy_name,
        )
        local = _fill_pattern(m, nbytes) if m.rank == 1 else np.zeros(
            nbytes, np.uint8
        )
        win = clampi.window_create(
            m.comm_world, local, mode=clampi.Mode.USER_DEFINED, config=cfg
        )
        m.comm_world.barrier()
        if m.rank != 0:
            return None
        rng = np.random.default_rng(42)
        win.lock_all()
        for i in range(400):
            dsp = int(rng.integers(0, nbytes - 1))
            n = int(rng.integers(1, min(256, nbytes - dsp) + 1))
            expected = ((np.arange(dsp, dsp + n) * 13) % 251).astype(np.uint8)
            buf = np.empty(n, np.uint8)
            win.get_blocking(buf, 1, dsp)
            assert np.array_equal(buf, expected), policy_name
            if i % 50 == 49:
                win.check_invariants()
            if i % 120 == 119:
                win.invalidate()
                win.check_invariants()
        win.check_invariants()
        win.unlock_all()
        return win.stats.snapshot()

    results = SimMPI(nprocs=2).run(program)
    snap = results[0]
    assert snap["gets"] == 400
    assert snap["policy"] == policy_name


def _evict_trace(policy_name: str) -> list[tuple]:
    """The cache.evict event stream fingerprint of one fixed workload."""
    trace: list[tuple] = []
    sink = obs.CallbackSink(
        lambda e: trace.append(
            (
                round(e.time, 12),
                e.attrs["reason"],
                e.attrs["visited"],
                round(e.attrs["score"], 12),
            )
        ),
        kinds=[obs.CACHE_EVICT],
    )

    def program(m):
        nbytes = 8 * KiB
        cfg = clampi.Config(
            index_entries=16, storage_bytes=1 * KiB, policy=policy_name
        )
        win = clampi.window_allocate(
            m.comm_world, nbytes, mode=clampi.Mode.ALWAYS_CACHE, config=cfg
        )
        m.comm_world.barrier()
        if m.rank != 0:
            return None
        rng = np.random.default_rng(7)
        win.lock_all()
        # a small, skewed key space: repeats happen, so even an admission
        # filter caches entries and capacity evictions occur
        for _ in range(300):
            dsp = int(rng.integers(0, 30)) * 256
            n = int(rng.integers(1, 257))
            win.get_blocking(np.empty(n, np.uint8), 1, dsp)
        win.unlock_all()
        return True

    with obs.capture(sink):
        SimMPI(nprocs=2).run(program)
    return trace


@pytest.mark.parametrize("policy_name", ["clampi-full", "slru", "tinylfu"])
def test_same_seed_same_eviction_trace(policy_name):
    first = _evict_trace(policy_name)
    second = _evict_trace(policy_name)
    assert first, "workload must actually evict"
    assert first == second

def test_evict_events_carry_policy_and_score():
    events = []
    sink = obs.CallbackSink(events.append, kinds=[obs.CACHE_EVICT])

    def program(m):
        cfg = clampi.Config(index_entries=16, storage_bytes=1 * KiB, policy="lru")
        win = clampi.window_allocate(
            m.comm_world, 8 * KiB, mode=clampi.Mode.ALWAYS_CACHE, config=cfg
        )
        m.comm_world.barrier()
        if m.rank != 0:
            return None
        win.lock_all()
        rng = np.random.default_rng(3)
        for _ in range(200):
            dsp = int(rng.integers(0, 8 * KiB - 128))
            win.get_blocking(np.empty(128, np.uint8), 1, dsp)
        win.unlock_all()

    with obs.capture(sink):
        SimMPI(nprocs=2).run(program)
    assert events
    for e in events:
        assert e.attrs["policy"] == "lru"
        assert "score" in e.attrs


def test_admission_reject_counted_and_emitted():
    events = []
    sink = obs.CallbackSink(events.append, kinds=[obs.CACHE_ADMIT])

    def program(m):
        cfg = clampi.Config(
            index_entries=32, storage_bytes=4 * KiB, policy="tinylfu"
        )
        win = clampi.window_allocate(
            m.comm_world, 8 * KiB, mode=clampi.Mode.ALWAYS_CACHE, config=cfg
        )
        m.comm_world.barrier()
        if m.rank != 0:
            return None
        win.lock_all()
        # distinct first-touch gets: tinylfu must reject them all
        for i in range(16):
            win.get_blocking(np.empty(64, np.uint8), 1, i * 256)
        win.unlock_all()
        return win.stats.snapshot()

    with obs.capture(sink):
        results = SimMPI(nprocs=2).run(program)
    snap = results[0]
    assert snap["admission_rejects"] == 16
    assert snap["failing"] == 16
    assert len(events) == 16
    assert all(e.attrs["admitted"] is False for e in events)
    assert all(e.attrs["policy"] == "tinylfu" for e in events)


def test_rejected_misses_still_return_correct_data():
    def program(m):
        nbytes = 4 * KiB
        local = _fill_pattern(m, nbytes) if m.rank == 1 else np.zeros(
            nbytes, np.uint8
        )
        win = clampi.window_create(
            m.comm_world,
            local,
            mode=clampi.Mode.ALWAYS_CACHE,
            config=clampi.Config(
                index_entries=32, storage_bytes=2 * KiB, policy="tinylfu"
            ),
        )
        m.comm_world.barrier()
        if m.rank != 0:
            return None
        win.lock_all()
        for i in range(16):
            dsp = i * 128
            buf = np.empty(64, np.uint8)
            win.get_blocking(buf, 1, dsp)
            expected = ((np.arange(dsp, dsp + 64) * 13) % 251).astype(np.uint8)
            assert np.array_equal(buf, expected)
        win.unlock_all()
        return True

    assert SimMPI(nprocs=2).run(program)[0]


def test_default_policy_virtual_time_unchanged_by_subsystem():
    """clampi-full through the policy engine == the historical engine.

    The legacy bare alias and the registry name must produce identical
    virtual times and stats (bit-identical figures guarantee).
    """

    def run_once(policy_spec):
        def program(m):
            cfg = clampi.Config(
                index_entries=64, storage_bytes=2 * KiB, policy=policy_spec
            )
            win = clampi.window_allocate(
                m.comm_world, 8 * KiB, mode=clampi.Mode.ALWAYS_CACHE, config=cfg
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            win.lock_all()
            rng = np.random.default_rng(11)
            for _ in range(300):
                dsp = int(rng.integers(0, 8 * KiB - 256))
                n = int(rng.integers(1, 257))
                win.get_blocking(np.empty(n, np.uint8), 1, dsp)
            win.unlock_all()
            return m.time, win.stats.snapshot()

        return SimMPI(nprocs=2).run(program)[0]

    t_name, snap_name = run_once("clampi-full")
    t_alias, snap_alias = run_once("full")
    assert t_name == t_alias
    assert snap_name == snap_alias
