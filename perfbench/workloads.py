"""The benchmark's workloads: inputs from a seed, one pass, one check.

Each workload builds its inputs from the seed, runs them once on plain
windows as the reference, and then runs timed passes on cached windows.
A pass is correct when its outputs are bit-identical to the reference's
and its ranks classified exactly as many gets as the reference issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

import rwfence
from repro import clampi
from repro.apps import BarnesHutApp, CacheSpec, LCCApp
from repro.apps.barnes_hut import NODE_BYTES
from repro.mpi.window import Window
from tracing import counting


@dataclass
class PassResult:
    outputs: list[np.ndarray]
    virtual_s: float
    stats: list[dict]  #: per-rank cache statistics snapshots


@dataclass
class Instance:
    inputs: Any
    reference: PassResult
    gets: int  #: RMA gets one pass issues
    puts: int  #: RMA puts one pass issues

    @property
    def ops(self) -> int:
        return self.gets + self.puts


def outputs_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


class Workload:
    name = ""

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def execute(self, inputs: Any, cached: bool) -> PassResult:
        raise NotImplementedError

    def setup(self, seed: int) -> Instance:
        """Inputs from ``seed`` plus the plain-window reference pass."""
        inputs = self.build(seed)
        with counting(Window, "get") as gets, counting(Window, "put") as puts:
            ref = self.execute(inputs, cached=False)
        return Instance(inputs, ref, gets[0], puts[0])

    def check(self, inst: Instance, res: PassResult) -> list[str]:
        """Why ``res`` is wrong (empty when it matches the reference)."""
        problems = []
        if not outputs_equal(res.outputs, inst.reference.outputs):
            problems.append("outputs differ from the plain-window reference")
        classified = sum(int(s.get("gets", 0)) for s in res.stats)
        if classified != inst.gets:
            problems.append(
                f"cache classified {classified} gets, program issued {inst.gets}"
            )
        return problems


class LCCEvict(Workload):
    """LCC (paper Sec. IV-C), serial get+flush per neighbour, ALWAYS_CACHE,
    |I|/|S| at fig15's small configuration (|S| = adjacency bytes / 8)."""

    name = "lcc-evict"
    nprocs = 8
    scale = 10
    edge_factor = 16

    def build(self, seed: int):
        app = LCCApp(scale=self.scale, edge_factor=self.edge_factor, seed=seed)
        adj_bytes = app.csr.nedges * 8
        spec = CacheSpec.clampi_fixed(max(256, app.nvertices // 8), adj_bytes // 8)
        return app, spec

    def execute(self, inputs, cached: bool) -> PassResult:
        app, spec = inputs
        r = app.run(self.nprocs, spec if cached else CacheSpec.fompi())
        return PassResult([r.lcc], r.makespan, r.cache_stats)


class BHHit(Workload):
    """Barnes-Hut force phase (paper Sec. IV-B), USER_DEFINED mode with one
    invalidate per phase, |S| = twice the tree footprint."""

    name = "bh-hit"
    nprocs = 8
    nbodies = 400
    index_entries = 4096

    def build(self, seed: int):
        app = BarnesHutApp(nbodies=self.nbodies, seed=seed)
        spec = CacheSpec.clampi_fixed(
            self.index_entries,
            2 * app.tree.nnodes * NODE_BYTES,
            mode=clampi.Mode.USER_DEFINED,
        )
        return app, spec

    def execute(self, inputs, cached: bool) -> PassResult:
        app, spec = inputs
        r = app.run(self.nprocs, spec if cached else CacheSpec.fompi())
        return PassResult([r.forces], r.makespan, r.cache_stats)


class RWFence(Workload):
    """The benchmark's own put/get program in TRANSPARENT mode (rwfence)."""

    name = "rw-fence"

    def build(self, seed: int):
        return rwfence.generate(seed)

    def execute(self, script, cached: bool) -> PassResult:
        results, makespan = rwfence.run(script, cached)
        sums = np.concatenate([r[0] for r in results])
        images = np.concatenate([r[1] for r in results])
        return PassResult([sums, images], makespan, [r[2] for r in results])


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (LCCEvict(), BHHit(), RWFence())
}
