"""The golden invariant: caching must never change what a get returns.

For any sequence of gets, under any mode, eviction policy, cache sizing,
invalidation pattern and adaptive resizing, a CachedWindow must return
byte-identical data to a plain window.  This is the property that makes
CLaMPI *transparent*.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import clampi
from repro.mpi import SimMPI
from repro.util import KiB

NBYTES = 16 * KiB

#: The paper's three victim-selection scores, by registry name.
SCORE_POLICIES = ["clampi-full", "clampi-temporal", "clampi-positional"]


def _golden_program(m, ops, config, mode):
    cached = clampi.window_allocate(m.comm_world, NBYTES, mode=mode, config=config)
    cached.local_view(np.uint8)[:] = ((np.arange(NBYTES) * (m.rank + 7)) % 253).astype(
        np.uint8
    )
    m.comm_world.barrier()
    cached.lock_all()
    ok = True
    for kind, trg, dsp, n in ops:
        trg %= m.size
        dsp %= NBYTES
        n = max(1, n % (NBYTES - dsp))
        expected = ((np.arange(dsp, dsp + n) * (trg + 7)) % 253).astype(np.uint8)
        buf = np.empty(n, np.uint8)
        if kind == 0:
            cached.get(buf, trg, dsp)
            cached.flush(trg)
        elif kind == 1:  # get without immediate flush (pending window)
            cached.get(buf, trg, dsp)
            cached.flush_all()
        else:  # invalidate then get
            cached.invalidate()
            cached.get_blocking(buf, trg, dsp)
        if not np.array_equal(buf, expected):
            ok = False
            break
        cached.check_invariants()  # full structural audit after every op
    cached.unlock_all()
    cached.check_invariants()
    return ok


ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),          # op kind
        st.integers(0, 3),          # target rank (mod size)
        st.integers(0, NBYTES - 1),  # displacement
        st.integers(1, 4 * KiB),    # length
    ),
    min_size=1,
    max_size=40,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=ops_strategy,
    mode=st.sampled_from(list(clampi.Mode)),
    policy=st.sampled_from(SCORE_POLICIES),
    index_entries=st.sampled_from([4, 64, 1024]),
    storage_kib=st.sampled_from([1, 8, 64]),
    adaptive=st.booleans(),
)
def test_property_cached_equals_uncached(
    ops, mode, policy, index_entries, storage_kib, adaptive
):
    config = clampi.Config(
        index_entries=index_entries,
        storage_bytes=storage_kib * KiB,
        policy=policy,
        adaptive=adaptive,
        adaptive_params=clampi.AdaptiveParams(
            check_interval=8, min_storage_bytes=KiB, min_index_entries=4
        ),
    )
    results = SimMPI(nprocs=2).run(_golden_program, ops, config, mode)
    assert all(results), "cached gets diverged from ground truth"


@pytest.mark.parametrize("policy", SCORE_POLICIES)
def test_long_random_workload_stays_correct(policy):
    """A longer deterministic soak per eviction policy."""

    def program(m):
        config = clampi.Config(
            index_entries=64, storage_bytes=4 * KiB, policy=policy
        )
        win = clampi.window_allocate(
            m.comm_world, NBYTES, mode=clampi.Mode.ALWAYS_CACHE, config=config
        )
        win.local_view(np.uint8)[:] = ((np.arange(NBYTES) * (m.rank + 7)) % 253).astype(
            np.uint8
        )
        m.comm_world.barrier()
        rng = np.random.default_rng(m.rank)
        win.lock_all()
        for _ in range(500):
            trg = int(rng.integers(0, m.size))
            dsp = int(rng.integers(0, NBYTES - 1))
            n = int(rng.integers(1, min(2 * KiB, NBYTES - dsp) + 1))
            expected = ((np.arange(dsp, dsp + n) * (trg + 7)) % 253).astype(np.uint8)
            buf = np.empty(n, np.uint8)
            win.get_blocking(buf, trg, dsp)
            assert np.array_equal(buf, expected)
        win.check_invariants()
        win.unlock_all()
        return win.stats.snapshot()

    results = SimMPI(nprocs=3).run(program)
    # sanity: the workload actually exercised the cache machinery
    merged = {
        k: sum(r[k] for r in results)
        for k, v in results[0].items()
        if isinstance(v, (int, float)) and k != "schema_version"
    }
    assert merged["gets"] == 1500
    assert merged["hits" if "hits" in merged else "hit_full"] >= 0
    assert merged["evictions"] > 0
