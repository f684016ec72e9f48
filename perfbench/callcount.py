"""Python calls per op, by layer, from a profiled pass.

Uses the repository's per-rank-thread profiler
(:func:`repro.bench.profile.rank_profilers`) and sums each row's call count
into the layer its code lives in.  The simulator is deterministic, so the
counts repeat exactly from pass to pass, except in the thread machinery
(lock and condition waits depend on the host's thread timing); those rows,
and the calls they make, are left out.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import repro
from repro.bench.profile import aggregate, rank_profilers

LAYERS = ("core", "rma", "mpi", "runtime", "obs", "apps", "graph", "net", "numpy", "other")

_REPRO_LAYERS = {
    "core": "core",
    "clampi.py": "core",
    "rma": "rma",
    "mpi": "mpi",
    "runtime": "runtime",
    "obs": "obs",
    "apps": "apps",
    "graph": "graph",
    "net": "net",
}
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def is_threading(fname: str, func: str) -> bool:
    return fname.endswith("threading.py") or "_thread." in func


def layer_of(fname: str, func: str) -> str:
    """The layer a profiled row belongs to."""
    if not fname.endswith(".py"):
        # Built-in functions carry no file; NumPy's show in their name.
        return "numpy" if "numpy" in func else "other"
    path = os.path.abspath(fname)
    if path.startswith(_REPRO_DIR):
        head = path[len(_REPRO_DIR) :].split(os.sep, 1)[0]
        return _REPRO_LAYERS.get(head, "other")
    if os.path.dirname(path) == _BENCH_DIR:
        # The benchmark's own rank program (rw-fence) is application code.
        return "apps"
    if f"{os.sep}numpy{os.sep}" in path:
        return "numpy"
    return "other"


def calls_by_layer(fn: Callable[[], Any]) -> dict[str, int]:
    """Run ``fn`` under per-rank profilers; return the call counts by layer."""
    with rank_profilers() as profs:
        fn()
    counts = dict.fromkeys(LAYERS, 0)
    st = aggregate(profs)
    if st is not None:
        for (fname, _line, func), (_cc, nc, _tt, _ct, callers) in st.stats.items():
            if is_threading(fname, func):
                continue
            if callers:
                # Calls made by the thread machinery (condition predicates,
                # waiter queues) are as timing-dependent as the waits.
                nc = sum(
                    c[0] for (cf, _cl, cfn), c in callers.items()
                    if not is_threading(cf, cfn)
                )
            counts[layer_of(fname, func)] += nc
    return counts
