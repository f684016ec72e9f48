"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lcc-evict --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes:

* ``wall_s``      host seconds of one cached pass, median over the passes
* ``virtual_s``   the pass's simulated makespan (identical in every pass)
* ``setup_s``     host seconds to build the inputs from the seed plus the
                  plain-window reference pass, median of several set-ups
* ``peak_rss_mib`` peak resident memory of this process (the lines above
                  the result also print the peak before set-up, i.e. the
                  interpreter, numpy and the program's modules)

``--trace 1`` reports the per-layer metrics instead: span self times from
traced passes (see ``tracing.py``), latency percentiles per op, counts from
the cache statistics, Python calls per op by layer from two profiled passes
(``callcount.py``) and the tracing overhead.  The spans of the last traced
pass are written to ``.perfbench/spans-<workload>.npz``.

Every pass is checked bit-for-bit against the plain-window reference.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count RMA data ops, and a pass that raises or differs from the reference
counts all its ops as failed.  If set-up itself fails, the run still ends
with that line, ``correct`` false and one attempted, failed op; metrics
that could not be measured read 0.  The lines above it print every metric
by name with its unit, plus ``failed_op_ratio``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 3
MIN_PASSES = 3


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class SetupFailed(Exception):
    """The inputs or the plain-window reference pass could not be built."""


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Checks passes against the reference and counts attempted/failed ops."""

    def __init__(self, workload, inst, problems: list[str]):
        self.workload = workload
        self.inst = inst
        self.attempted = 0
        self.failed = 0
        self.problems = list(problems)
        self.virtual: set[float] = set()

    def run(self, fn):
        """Run one cached pass via ``fn``; returns (result or None, wall)."""
        self.attempted += self.inst.ops
        gc.collect()
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception:  # noqa: BLE001 - a failing pass is a measured outcome
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.failed += self.inst.ops
            self._note("a pass raised")
            return None, wall
        wall = time.perf_counter() - t0
        found = self.workload.check(self.inst, res)
        if found:
            self.failed += self.inst.ops
            for p in found:
                self._note(p)
        self.virtual.add(res.virtual_s)
        if len(self.virtual) > 1:
            self._note("virtual_s differs between passes")
        return res, wall

    def _note(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)
            print(f"perfbench: {problem}", file=sys.stderr)


def _timed_passes(tally, fn, seconds: float, minimum: int) -> list[float]:
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < minimum or time.perf_counter() - start < seconds:
        walls.append(tally.run(fn)[1])
    return walls


def _setup(workload, seed: int, repeats: int):
    """Set up ``repeats`` times; returns the first instance and the times."""
    from workloads import outputs_equal

    times = []
    inst = None
    problems = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        try:
            cand = workload.setup(seed)
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            traceback.print_exc(file=sys.stderr)
            raise SetupFailed from exc
        times.append(time.perf_counter() - t0)
        if inst is None:
            inst = cand
        elif (
            cand.ops != inst.ops
            or cand.reference.virtual_s != inst.reference.virtual_s
            or not outputs_equal(cand.reference.outputs, inst.reference.outputs)
        ):
            problems.append("set-up is not deterministic")
        del cand  # only the first instance stays alive
    return inst, times, problems


def measure_end_to_end(workload, seed: int, seconds: float):
    inst, setup_times, problems = _setup(workload, seed, SETUP_REPEATS)
    tally = Tally(workload, inst, problems)
    cached = lambda: workload.execute(inst.inputs, cached=True)  # noqa: E731
    tally.run(cached)  # warm-up: lazy imports and allocator growth
    walls = _timed_passes(tally, cached, seconds, MIN_PASSES)
    metrics = {
        "wall_s": statistics.median(walls),
        "virtual_s": min(tally.virtual) if tally.virtual else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": _rss_mib(),
    }
    info = (
        f"{len(walls)} timed passes of {inst.gets} gets + {inst.puts} puts, "
        f"wall min/median/max {min(walls):.4f}/{metrics['wall_s']:.4f}/{max(walls):.4f} s"
    )
    return tally, metrics, info


def _stats_metrics(stats: list[dict], bytes_remote: int) -> dict[str, float]:
    def total(key: str) -> int:
        return sum(int(s.get(key, 0)) for s in stats)

    gets = total("gets")
    visited = total("eviction_visited")
    return {
        "core.gets": float(gets),
        "core.hit_ratio": (total("hit_full") + total("hit_partial") + total("hit_pending"))
        / max(gets, 1),
        "core.failing_ratio": total("failing") / max(gets, 1),
        "core.evictions_per_get": total("evictions") / max(gets, 1),
        "core.eviction_useful_ratio": total("eviction_nonempty") / visited if visited else 0.0,
        "core.bytes_from_cache": float(total("bytes_from_cache")),
        "mpi.bytes_remote": float(bytes_remote),
    }


def measure_layers(workload, seed: int, seconds: float):
    from callcount import LAYERS, calls_by_layer
    from repro.obs.events import Event
    from tracing import Tracer, collecting_windows, counting, traced

    inst, _, problems = _setup(workload, seed, 1)
    tally = Tally(workload, inst, problems)
    cached = lambda: workload.execute(inst.inputs, cached=True)  # noqa: E731
    metrics: dict[str, float] = {}

    with counting(Event, "__init__") as events:
        with collecting_windows() as windows:
            res, _ = tally.run(cached)  # warm-up, also gathers the counts
        if res is not None:
            metrics.update(
                _stats_metrics(res.stats, sum(w.bytes_transferred for w in windows))
            )
        untraced = _timed_passes(tally, cached, seconds / 2, 2)
    metrics["obs.events"] = float(events[0])

    summaries = []
    traced_walls: list[float] = []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds / 2:
        tracer = Tracer()
        with traced(tracer):
            _, wall = tally.run(cached)
        traced_walls.append(wall)
        summaries.append(tracer.summary())
    for key in summaries[0]:
        metrics[key] = statistics.median(s[key] for s in summaries)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload.name}.npz")
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        untraced
    )

    counts = []
    for _ in range(2):  # two profiled passes must agree call for call
        counts.append(calls_by_layer(lambda: tally.run(cached)))
    differing = [l for l in LAYERS if counts[0][l] != counts[1][l]]
    if differing:
        print(
            "perfbench: calls per layer differ between profiled passes: "
            + ", ".join(f"{l} {counts[0][l]} vs {counts[1][l]}" for l in differing),
            file=sys.stderr,
        )
    ops = max(inst.ops, 1)
    for layer in LAYERS:
        metrics[f"calls_per_op.{layer}"] = counts[0][layer] / ops
    metrics["calls_per_op.total"] = sum(counts[0].values()) / ops

    info = (
        f"{len(untraced)} untraced + {len(traced_walls)} traced + 2 profiled passes, "
        f"{inst.gets} gets + {inst.puts} puts each"
        + (f"; calls differ in {', '.join(differing)}" if differing else "")
    )
    return tally, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "clampi.py").is_file():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    units = declared_units(bool(args.trace))
    measure = measure_layers if args.trace else measure_end_to_end
    rss_before = _rss_mib()
    try:
        tally, metrics, info = measure(workload, args.seed, args.seconds)
    except SetupFailed:
        print("perfbench: set-up failed", file=sys.stderr)
        attempted = failed = 1
        correct, metrics, info = False, {}, "set-up failed"
    else:
        attempted, failed = tally.attempted, tally.failed
        correct = not tally.problems and failed == 0
    unknown = set(metrics) - set(units)
    missing = set(units) - set(metrics)
    if unknown or (missing and correct):
        print(
            "perfbench: measured metrics do not match BENCHMARK.json: "
            f"{sorted(unknown | missing)}",
            file=sys.stderr,
        )
        return 1
    metrics = {name: metrics.get(name, 0.0) for name in units}
    print(
        f"{workload.name} seed={args.seed}: {info}; "
        f"peak RSS before set-up {rss_before:.1f} MiB"
    )
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_op_ratio':<28} {failed / attempted if attempted else 1.0:.6g} ratio")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
