"""rw-fence: a double-buffered record table read and written in fence epochs.

The program is owned by the benchmark and uses only the public facade:
``Window.create`` for the plain window, ``clampi.wrap`` to cache-enable it
in TRANSPARENT mode, ``get``/``put`` and one ``fence_epoch`` per epoch.

Every rank exposes the same table layout: two halves of ``RECORDS`` records
each, record sizes drawn from 2^3 .. 2^10 bytes.  Epoch ``e`` reads half
``e % 2`` and writes the other half, so the next epoch reads what this one
wrote (a stale cache entry would show in the checksums).  Gets pick
(target, record) pairs from a Zipf distribution; puts go to distinct write
slots, each with exactly one writer per epoch.  That makes the program
MPI-legal: no location is both read and written in an epoch, and no two
puts in an epoch touch the same location.

:func:`generate` is pure in its seed; the program receives only the
generated :class:`Script`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro import clampi
from repro.mpi.simmpi import SimMPI
from repro.mpi.window import Window
from repro.net import PerfModel

NPROCS = 4
GET, PUT = 0, 1

#: default instance: ~300 ops per fence epoch over 4 ranks
RECORDS = 48
EPOCHS = 60
OPS_PER_RANK = 75
PUT_SHARE = 0.35
ZIPF_S = 1.1
MIN_LOG2, MAX_LOG2 = 3, 10
POOL_BYTES = 1 << 16


@dataclass(frozen=True)
class Script:
    """Everything the rw-fence program needs; built by :func:`generate`."""

    nprocs: int
    sizes: np.ndarray         #: (records,) record size in bytes
    offsets: np.ndarray       #: (records,) record offset inside a half
    half_bytes: int
    init: np.ndarray          #: (nprocs, 2 * half_bytes) initial window bytes
    pool: np.ndarray          #: put payload bytes
    #: ops[epoch][rank] -> int64 (n, 4): kind, target, record, buffer offset
    #: (scratch offset for a get, pool offset for a put)
    ops: list[list[np.ndarray]]
    scratch_bytes: np.ndarray  #: (epochs, nprocs) get bytes per rank-epoch

    def count(self, kind: int) -> int:
        return sum(int((o[:, 0] == kind).sum()) for ep in self.ops for o in ep)


def generate(seed: int, *, epochs: int = EPOCHS, ops_per_rank: int = OPS_PER_RANK) -> Script:
    """Build the rw-fence inputs from ``seed`` (same seed, same script).

    ``epochs`` and ``ops_per_rank`` shrink the instance for tests.
    """
    rng = np.random.default_rng(seed)
    sizes = (1 << rng.integers(MIN_LOG2, MAX_LOG2 + 1, RECORDS)).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    half = int(sizes.sum())
    init = rng.integers(0, 256, (NPROCS, 2 * half), dtype=np.uint8)
    pool = rng.integers(0, 256, POOL_BYTES, dtype=np.uint8)

    nkeys = NPROCS * RECORDS
    weights = 1.0 / np.arange(1, nkeys + 1) ** ZIPF_S
    popularity = rng.permutation(nkeys)  # key popularity rank -> (target, record)
    puts_per_epoch = int(round(PUT_SHARE * ops_per_rank * NPROCS))

    ops: list[list[np.ndarray]] = []
    scratch = np.zeros((epochs, NPROCS), dtype=np.int64)
    for e in range(epochs):
        # Distinct write slots, one writer each.
        slots = rng.choice(nkeys, puts_per_epoch, replace=False)
        writers = rng.integers(0, NPROCS, puts_per_epoch)
        epoch_ops = []
        for r in range(NPROCS):
            mine = slots[writers == r]
            nget = max(ops_per_rank - mine.size, 0)
            keys = popularity[rng.choice(nkeys, nget, p=weights / weights.sum())]
            get_sizes = sizes[keys % RECORDS]
            get_offs = np.concatenate(([0], np.cumsum(get_sizes)[:-1]))
            scratch[e, r] = int(get_sizes.sum())
            put_sizes = sizes[mine % RECORDS]
            put_offs = rng.integers(0, POOL_BYTES - put_sizes + 1)
            rows = np.concatenate(
                [
                    np.column_stack(
                        [np.full(nget, GET), keys // RECORDS, keys % RECORDS, get_offs]
                    ),
                    np.column_stack(
                        [np.full(mine.size, PUT), mine // RECORDS, mine % RECORDS, put_offs]
                    ),
                ]
            ).astype(np.int64)
            epoch_ops.append(rows[rng.permutation(len(rows))])
        ops.append(epoch_ops)
    return Script(NPROCS, sizes, offsets, half, init, pool, ops, scratch)


def legality_problems(script: Script) -> list[str]:
    """The generator's two invariants, checked byte by byte on the script.

    * one writer per write slot per epoch: no two puts of an epoch touch
      the same byte of a target;
    * read and write halves stay disjoint: no get of an epoch touches a
      byte that a put of the same epoch writes.
    """
    problems: list[str] = []
    half = script.half_bytes
    for e, epoch_ops in enumerate(script.ops):
        rbase = (e % 2) * half
        wbase = half - rbase
        writes = np.zeros((script.nprocs, 2 * half), dtype=np.int64)
        reads = []
        for r, rows in enumerate(epoch_ops):
            for kind, trg, rec, _ in rows.tolist():
                lo = (rbase if kind == GET else wbase) + int(script.offsets[rec])
                hi = lo + int(script.sizes[rec])
                if kind == PUT:
                    writes[trg, lo:hi] += 1
                else:
                    reads.append((r, trg, lo, hi))
        for trg in np.flatnonzero((writes > 1).any(axis=1)).tolist():
            problems.append(f"epoch {e}: target {trg} has bytes with two writers")
        for r, trg, lo, hi in reads:
            if writes[trg, lo:hi].any():
                problems.append(
                    f"epoch {e}: rank {r} reads target {trg} bytes "
                    f"[{lo}, {hi}) that are written in the same epoch"
                )
    return problems


def transparent_config() -> clampi.Config:
    """TRANSPARENT mode, sized so no capacity eviction can happen.

    Entries live only within an epoch (closure drops them), so the index
    and storage only need to hold one epoch's distinct keys.
    """
    return clampi.Config(
        mode=clampi.Mode.TRANSPARENT,
        index_entries=2048,
        storage_bytes=1 << 20,
    )


def run(script: Script, cached: bool):
    """One pass over ``script``; returns (per-rank results, makespan)."""
    mpi = SimMPI(nprocs=script.nprocs, perf=PerfModel.spread(script.nprocs))
    results = mpi.run(_rank_program, script, cached)
    return results, mpi.elapsed


def _rank_program(mpi, script: Script, cached: bool):
    me = mpi.rank
    local = script.init[me].copy()
    raw = Window.create(mpi.comm_world, local)
    win = clampi.wrap(raw, config=transparent_config()) if cached else raw
    sizes = script.sizes.tolist()
    offsets = script.offsets.tolist()
    pool = script.pool
    half = script.half_bytes
    sums: list[int] = []
    for e, epoch_ops in enumerate(script.ops):
        scratch = np.empty(int(script.scratch_bytes[e, me]), dtype=np.uint8)
        rbase = (e % 2) * half
        wbase = half - rbase
        with win.fence_epoch():
            for kind, trg, rec, off in epoch_ops[me].tolist():
                n = sizes[rec]
                if kind == GET:
                    win.get(scratch[off : off + n], trg, rbase + offsets[rec])
                else:
                    win.put(pool[off : off + n], trg, wbase + offsets[rec])
        sums.append(zlib.crc32(scratch))
    stats = clampi.stats(win).snapshot() if cached else {}
    return np.array(sums, dtype=np.uint32), local.copy(), stats
