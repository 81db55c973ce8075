"""Lifecycle benchmark: boot, serve, churn, replan and restart, repeated.

Run from the repository root::

    python3 lifebench/run.py --workload courses_repeat --seed 1 --seconds 40 --trace 0

The run repeats whole cycles of one workload (see ``lifecycle.py``)
until ``--seconds`` is spent, checks every output, and prints each
metric by name with its unit and sample count.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer ledger with ``--trace 1``.  A traced run alternates traced
and untraced cycles, reports the difference between them as the tracing
overhead, and writes its spans under ``lifebench/.work/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Callable, Dict, List, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Modules the serving stack imports lazily on its first boot; importing
#: them up front keeps one-off import time out of the first boot.
LAZY_MODULES = ("repro.core.learners", "repro.core.planner", "repro.serving.replan",
                "repro.core.serialization", "repro.runner.manifest")

#: The CPU probe: a fixed Python loop, timed this many times on each CPU.
PROBE_LOOP = 50_000
PROBE_REPEATS = 5


def _probe_ms() -> float:
    """Best of ``PROBE_REPEATS`` timings of a fixed Python loop, in ms."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def pin_fastest(cpus: Sequence[int]) -> Dict[int, float]:
    """Pin the calling thread to whichever of ``cpus`` runs the probe fastest.

    Called between cycles, when the main thread is the only thread, so
    every thread the next cycle starts inherits the choice.  Returns the
    probe time of each CPU.
    """
    probes = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        probes[cpu] = _probe_ms()
    os.sched_setaffinity(0, {min(probes, key=probes.get)})
    return probes


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _over_cycles(samples, name: str, stat: Callable[[Sequence[float]], float]) -> float:
    """``stat`` of each cycle's samples of ``name``, averaged over cycles.

    The host's speed shifts by up to 2x for seconds at a time, and a
    cycle's samples share its phase.  A median over the pooled samples
    jumps to whichever phase held most cycles; this average moves in
    proportion to the share of slow cycles (README, "Estimators").
    """
    groups = samples.per_cycle(name)
    return statistics.fmean(stat(group) for group in groups) if groups else 0.0


def end_to_end(run) -> Dict[str, tuple]:
    """name -> (value, unit, samples) from an untraced run."""
    s = run.samples
    tail = run.workload.tail_pct
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fmean, median = statistics.fmean, statistics.median
    return {
        "setup_s": (_median(s.setup_s), "s", len(s.setup_s)),
        "plans_per_s": (s.batch_replies / s.batch_wall_s if s.batch_wall_s else 0.0,
                        "plans/s", s.batch_replies),
        "serve_p50_ms": (1e3 * _over_cycles(s, "plan_rtt", median), "ms", len(s.plan_rtt)),
        "serve_tail_ms": (1e3 * _over_cycles(s, "plan_rtt", lambda g: percentile(g, tail)),
                          "ms", len(s.plan_rtt)),
        "plan_score_mean": (fmean(s.scores) if s.scores else 0.0, "score", len(s.scores)),
        "delta_ack_mean_ms": (1e3 * _over_cycles(s, "delta_ack", fmean), "ms",
                              len(s.delta_ack)),
        "refit_s": (_over_cycles(s, "refit_s", fmean), "s", len(s.refit_s)),
        "replan_p50_ms": (1e3 * _over_cycles(s, "replan_rtt", median), "ms",
                          len(s.replan_rtt)),
        "recover_s": (_over_cycles(s, "recover_s", median), "s", len(s.recover_s)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def _overhead_pct(run) -> tuple:
    """Median plan round trip of traced cycles over untraced ones, in %."""
    traced = [rtt for kind, rtt, _, on in run.exchanges.values() if kind == "plan" and on]
    plain = [rtt for kind, rtt, _, on in run.exchanges.values() if kind == "plan" and not on]
    if not traced or not plain:
        return 0.0, 0
    return 100.0 * (_median(traced) / _median(plain) - 1.0), len(traced) + len(plain)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"lifebench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import importlib

    from lifecycle import OPS, Run
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"lifebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    for name in LAZY_MODULES:
        importlib.import_module(name)

    # One CPU at a time: on a two-vCPU host, thread hand-offs and GIL
    # hand-offs between cores spread run-to-run figures by 10-50%.  Which
    # CPU is chosen again before every cycle, because one vCPU can run
    # twice as slow as the other for minutes (README, "Host").  Automatic
    # garbage collection is off while cycles run; each cycle ends with a
    # full collection instead.
    cpus = sorted(os.sched_getaffinity(0))
    probes: List[Dict[int, float]] = []
    gc.disable()

    work_root = HERE / ".work"
    work_dir = work_root / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    inputs = workload.make_inputs(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    run = Run(workload, inputs, args.seed, work_dir, tracer)
    started = time.perf_counter()
    try:
        while True:
            probes.append(pin_fastest(cpus))
            run.traced_cycle = tracer is not None and run.cycle % 2 == 0
            if run.traced_cycle:
                tracer.cycle = run.cycle
                tracer.install()
            try:
                run.cycle_once()
            finally:
                if run.traced_cycle:
                    tracer.uninstall()
            elapsed = time.perf_counter() - started
            if elapsed + max(run.samples.cycle_s) > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    elapsed = time.perf_counter() - started
    s = run.samples

    if tracer is None:
        table = end_to_end(run)
    else:
        from tracing import PER_LAYER, layer_metrics

        traced = {x: (kind, rtt) for x, (kind, rtt, _, on) in run.exchanges.items() if on}
        traced_cycles = sum(1 for c in range(run.cycle) if c % 2 == 0)
        ledger = layer_metrics(
            tracer.spans, traced, traced_cycles, traced_cycles,
            tracer.refit_keys, tracer.adopted_keys, _overhead_pct(run),
        )
        table = {name: (ledger[name][0], unit, ledger[name][1])
                 for name, unit in PER_LAYER}
        trace_path = work_root / f"trace-{workload.name}-s{args.seed}.jsonl"
        tracer.dump(trace_path)

    print(f"lifebench {workload.name} seed {args.seed}: {run.cycle} cycles "
          f"in {elapsed:.1f} s ({'traced' if tracer else 'untraced'})")
    for name, (value, unit, count) in table.items():
        print(f"  {name:30s} {value:14.4f} {unit:12s} n={count}")
    littles = None
    if s.plan_rtt and s.batch_wall_s:
        littles = (s.batch_replies / s.batch_wall_s) * statistics.fmean(s.plan_rtt)
    detail = {
        "workload": workload.name, "seed": args.seed, "cycles": run.cycle,
        "seconds": round(elapsed, 3),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "cycle_cpus": [min(p, key=p.get) for p in probes],
                 "probe_ms": {cpu: round(_median([p[cpu] for p in probes]), 3)
                              for cpu in cpus},
                 "probe_ms_max": {cpu: round(max(p[cpu] for p in probes), 3)
                                  for cpu in cpus}},
        "ops": {op: {"attempted": s.attempted[op], "failed": s.failed[op]}
                for op in OPS},
        "samples": {name: count for name, (_, _, count) in table.items()},
        "tail_pct": workload.tail_pct,
        "memo_hit_share": s.memo_hits / s.batch_replies if s.batch_replies else 0.0,
        "littles_law_in_flight": littles,
        "problems": s.problems[:20],
    }
    if littles is not None and abs(littles - 1.0) > 0.1:
        s.problems.append(
            f"Little's law: plans/s x mean round trip = {littles:.3f}, not 1 +/- 10%")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not s.problems,
        "attempted": sum(s.attempted.values()),
        "failed": sum(s.failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in table.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
