"""Micro-benchmark of the batched incremental reward engine.

One behaviour-policy step of Algorithm 1 scores every remaining item
with Equation 2.  The scalar path recomputes similarity and the
feasibility lookahead per candidate — O(|I| * (|I| + k*|IT|)) per step —
while the batched engine (``RewardFunction.reward_batch``) pools the
step-invariant state once and scores all candidates vectorized,
O(|I|) per step.  This bench times both on the same partial plans,
asserts they agree exactly, and records the speedup to
``BENCH_reward_engine.json`` at the repo root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_reward_engine.py

or with custom sizes / output::

    PYTHONPATH=src python benchmarks/bench_reward_engine.py \
        --sizes 50 200 500 --repeats 30 --output BENCH_reward_engine.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.config import PlannerConfig
from repro.core.env import TPPEnvironment
from repro.core.plan import PlanBuilder
from repro.core.planner import RLPlanner
from repro.core.qtable import SparseQTable
from repro.core.reward import RewardFunction, batch_rewards
from repro.core.sarsa import SarsaLearner
from repro.datasets.synthetic import SyntheticSpec, generate_instance

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_reward_engine.json"
DEFAULT_SIZES = (50, 200, 500)
DEFAULT_SCALE_SIZES = (5_000, 20_000, 50_000)


def _make_step(num_items: int, seed: int = 0):
    """One mid-episode learning step: a partial plan plus candidate
    indices."""
    catalog, task = generate_instance(
        num_items=num_items,
        num_primary_items=max(12, num_items // 4),
        seed=seed,
    )
    reward = RewardFunction(task, PlannerConfig())
    builder = PlanBuilder(catalog)
    # Greedily grow a short prefix so similarity/feasibility state is
    # non-trivial (mirrors the hot loop a few steps into an episode).
    builder.add(catalog.item_at(0))
    for _ in range(3):
        candidates = builder.remaining_indices()
        scores = reward.reward_batch(builder, candidates)
        builder.add(catalog.item_at(int(candidates[int(np.argmax(scores))])))
    return reward, builder, builder.remaining_indices()


def _time_call(fn, repeats: int) -> float:
    """Mean wall-clock seconds per call over ``repeats`` calls."""
    repeats = max(1, repeats)
    fn()  # warm caches (catalog columns, similarity trackers, views)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    repeats: int = 30,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Time scalar-loop vs batched scoring at each catalog size."""
    results: List[Dict[str, float]] = []
    for num_items in sizes:
        reward, builder, candidates = _make_step(num_items, seed=seed)
        items = [builder.catalog.item_at(i) for i in candidates.tolist()]

        def scalar() -> List[float]:
            return [reward(builder, item) for item in items]

        def batched() -> np.ndarray:
            return reward.reward_batch(builder, candidates)

        # The two engines must agree exactly before timing means much.
        np.testing.assert_allclose(
            batched(), np.array(scalar()), atol=1e-12, rtol=0.0
        )

        scalar_s = _time_call(scalar, repeats)
        batch_s = _time_call(batched, repeats)
        results.append(
            {
                "num_items": int(num_items),
                "num_candidates": len(candidates),
                "scalar_step_us": scalar_s * 1e6,
                "batch_step_us": batch_s * 1e6,
                "speedup": scalar_s / batch_s,
            }
        )
    return results


def obs_overhead(
    num_items: int = 500, repeats: int = 300, seed: int = 0
) -> Dict[str, float]:
    """Span-instrumentation overhead on one batched reward step.

    ``SarsaLearner`` wraps every ``batch_rewards`` call in a recording
    span when observability is enabled, so the per-call overhead is
    exactly one span enter/exit.  Timing "bare step" vs "wrapped step"
    head-to-head cannot resolve a ~1us delta on a ~300us step through
    scheduler noise, so this measures the span cost in its own tight
    loop and asserts span_cost / step_cost < 5% — the same ratio, with
    both terms measured where they are actually measurable.
    """
    reward, builder, candidates = _make_step(num_items, seed=seed)

    def bare() -> np.ndarray:
        return reward.reward_batch(builder, candidates)

    registry = obs.enable()

    def span_only() -> None:
        with registry.span("sarsa.batch_rewards"):
            pass

    try:
        bare_s = min(_time_call(bare, repeats) for _ in range(3))
        span_s = min(
            _time_call(span_only, repeats * 30) for _ in range(3)
        )
    finally:
        obs.disable()

    overhead = span_s / bare_s
    assert overhead < 0.05, (
        "span instrumentation costs more than 5% of a batched reward "
        f"step: {overhead:.2%} ({span_s * 1e6:.2f}us span on a "
        f"{bare_s * 1e6:.1f}us step)"
    )
    return {
        "num_items": int(num_items),
        "bare_step_us": bare_s * 1e6,
        "span_us": span_s * 1e6,
        "overhead_fraction": overhead,
        "overhead_under_5pct": float(overhead < 0.05),
    }


def _assert_pruning_bit_identity(
    catalog, task, top_k: int = 32, steps: int = 3, start: str = "item000"
) -> int:
    """Greedy-rollout check that pruned selection matches the full argmax.

    Walks ``steps`` reward-greedy steps with two environments over the
    same universe — one with ``candidate_top_k`` set, one without — and
    asserts the exact argmax winner *sets* (catalog indices, in order)
    agree at every step.  Returns the number of steps compared.
    """
    env_full = TPPEnvironment(catalog, task, PlannerConfig())
    env_pruned = TPPEnvironment(
        catalog, task, PlannerConfig(candidate_top_k=top_k)
    )
    env_full.reset(start)
    env_pruned.reset(start)
    compared = 0
    for _ in range(steps):
        if env_full.is_done():
            break
        full = env_full.action_indices()
        pruned = env_pruned.action_indices()
        if not full.size:
            assert not pruned.size
            break
        r_full = batch_rewards(env_full.reward, env_full.builder, full)
        r_pruned = batch_rewards(
            env_pruned.reward, env_pruned.builder, pruned
        )
        winners_full = full[r_full == r_full.max()].tolist()
        winners_pruned = pruned[r_pruned == r_pruned.max()].tolist()
        assert winners_pruned == winners_full, (
            f"pruned argmax diverged at step {compared}: "
            f"{winners_pruned[:3]} vs {winners_full[:3]}"
        )
        env_full.step(winners_full[0])
        env_pruned.step(winners_full[0])
        compared += 1
    return compared


def run_scale(
    sizes: Sequence[int] = DEFAULT_SCALE_SIZES,
    episodes: int = 8,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Large-catalog training: the sparse backend where dense cannot fit.

    At each |I| the ``auto`` backend (sparse above the threshold) trains
    a SARSA policy end to end and the row records the wall clock, the
    stored-entry count, and the dense-table footprint the run *avoided*
    (``8 * |I|^2`` bytes — 20 GB at 50k, far beyond the worker's RAM).
    Each row also re-asserts in-bench that two-stage candidate pruning
    is bit-identical to the unpruned argmax on that universe.
    """
    rows: List[Dict[str, object]] = []
    for num_items in sizes:
        t0 = time.perf_counter()
        catalog, task = generate_instance(
            num_items=num_items,
            num_primary_items=max(12, num_items // 4),
            seed=seed,
        )
        generate_s = time.perf_counter() - t0
        config = PlannerConfig(
            seed=seed,
            exploration=0.1,
            qtable_backend="auto",
            mask_invalid_actions=False,
        )
        learner = SarsaLearner(
            TPPEnvironment(catalog, task, config), config
        )
        t0 = time.perf_counter()
        result = learner.learn(episodes=episodes)
        train_s = time.perf_counter() - t0
        table = result.qtable
        assert isinstance(table, SparseQTable), (
            f"auto backend must go sparse at |I|={num_items}"
        )
        pruned_steps = _assert_pruning_bit_identity(catalog, task)
        rows.append(
            {
                "num_items": int(num_items),
                "episodes": int(episodes),
                "backend": type(table).__name__,
                "generate_s": generate_s,
                "train_s": train_s,
                "updates": int(table.update_count),
                "nnz": int(table.nnz),
                "dense_bytes_estimate": int(8 * num_items * num_items),
                "pruning_bit_identical_steps": int(pruned_steps),
            }
        )
    return rows


def run_serving(
    num_items: int = 5_000, plans: int = 8, seed: int = 1
) -> Dict[str, object]:
    """A served plan at catalog scale, as lifebench's ``catalog_churn``.

    The synthetic catalog at ``seed`` with that workload's training
    recipe (sparse table, ``candidate_top_k=32``, 6 episodes), then
    ``RLPlanner.recommend`` from the first ``plans`` openers: the
    two-rollout lookahead portfolio, masking every candidate at every
    step (serving never prunes).  Records wall time per plan, steps per
    plan and candidates scanned per step.
    """
    catalog, task = generate_instance(
        SyntheticSpec(num_items=num_items, seed=seed)
    )
    config = PlannerConfig(
        qtable_backend="auto", candidate_top_k=32, episodes=6, seed=0
    )
    planner = RLPlanner(catalog, task, config=config)
    planner.fit()
    reward = planner.env.reward
    scanned: List[int] = []
    mask = reward.mask_actions

    def counting_mask(builder, candidates):
        scanned.append(len(candidates))
        return mask(builder, candidates)

    starts = [
        item.item_id
        for item in catalog.primaries()
        if item.prerequisites.is_empty
    ][:plans]
    planner.recommend(starts[0])  # warm the per-catalog views
    reward.mask_actions = counting_mask
    times = []
    try:
        for start in starts:
            t0 = time.perf_counter()
            planner.recommend(start)
            times.append(time.perf_counter() - t0)
    finally:
        del reward.mask_actions
    return {
        "num_items": int(num_items),
        "plans": len(starts),
        "ms_per_plan_median": 1e3 * statistics.median(times),
        "ms_per_plan_min": 1e3 * min(times),
        "steps_per_plan": len(scanned) / len(starts),
        "candidates_per_step": sum(scanned) / len(scanned),
    }


def run_backends(
    num_items: int = 500, episodes: int = 16, seed: int = 0
) -> Dict[str, object]:
    """Dense vs sparse backend head-to-head on one training run.

    Same universe, same seed, same episode schedule; the two backends
    must learn bit-identical entries (asserted) — the row records the
    wall-clock of each plus the sparse occupancy, i.e. what fraction of
    the dense |I|^2 table training actually touched.
    """
    catalog, task = generate_instance(
        num_items=num_items,
        num_primary_items=max(12, num_items // 4),
        seed=seed,
    )
    timings: Dict[str, float] = {}
    entries = {}
    for backend in ("dense", "sparse"):
        config = PlannerConfig(seed=seed, qtable_backend=backend)
        learner = SarsaLearner(
            TPPEnvironment(catalog, task, config), config
        )
        t0 = time.perf_counter()
        result = learner.learn(episodes=episodes)
        timings[backend] = time.perf_counter() - t0
        entries[backend] = result.qtable.to_entries()
        if backend == "sparse":
            nnz = result.qtable.nnz
    assert entries["dense"] == entries["sparse"], (
        "dense and sparse backends diverged on identical training"
    )
    return {
        "num_items": int(num_items),
        "episodes": int(episodes),
        "dense_train_s": timings["dense"],
        "sparse_train_s": timings["sparse"],
        "entries": len(entries["dense"]),
        "nnz": int(nnz),
        "occupancy": len(entries["dense"]) / float(num_items * num_items),
        "bit_identical": True,
    }


def render_scale(rows: Sequence[Dict[str, object]]) -> str:
    """Plain-text table of the large-catalog training rows."""
    lines = [
        "Sparse-backend training at catalog scale "
        "(dense footprint avoided)",
        f"{'|I|':>7} {'train s':>9} {'nnz':>8} {'dense GB':>9} "
        f"{'prune ok':>9}",
    ]
    for row in rows:
        dense_gb = row["dense_bytes_estimate"] / 1e9
        lines.append(
            f"{row['num_items']:>7} {row['train_s']:>9.2f} "
            f"{row['nnz']:>8} {dense_gb:>9.1f} "
            f"{row['pruning_bit_identical_steps']:>8}ok"
        )
    return "\n".join(lines)


def render(results: Sequence[Dict[str, float]]) -> str:
    """Plain-text table of the measured speedups."""
    lines = [
        "Reward engine: scalar loop vs batched (mean step time)",
        f"{'|I|':>6} {'cands':>6} {'scalar us':>12} "
        f"{'batch us':>12} {'speedup':>9}",
    ]
    for row in results:
        lines.append(
            f"{row['num_items']:>6} {row['num_candidates']:>6} "
            f"{row['scalar_step_us']:>12.1f} {row['batch_step_us']:>12.1f} "
            f"{row['speedup']:>8.1f}x"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="catalog sizes |I| to benchmark",
    )
    parser.add_argument(
        "--repeats", type=int, default=30,
        help="timed calls per engine per size",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--obs", action="store_true",
        help="also measure span-instrumentation overhead on a batched "
        "step (asserts < 5%%; always at |I|=500 so the step is large "
        "enough for the ratio to mean something)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="also run the large-catalog sections: sparse-backend "
        "training at --scale-sizes (with the in-bench pruning "
        "bit-identity check), the dense-vs-sparse backend "
        "head-to-head, and a served plan at the smallest scale size",
    )
    parser.add_argument(
        "--scale-sizes", type=int, nargs="+",
        default=list(DEFAULT_SCALE_SIZES),
        help="catalog sizes |I| for the --scale training section",
    )
    args = parser.parse_args(argv)

    results = run(sizes=args.sizes, repeats=args.repeats, seed=args.seed)
    print(render(results))
    payload: Dict[str, object] = {
        "bench": "reward_engine",
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "sizes": results,
    }
    if args.scale:
        scale_rows = run_scale(sizes=args.scale_sizes, seed=args.seed)
        payload["scale"] = scale_rows
        print()
        print(render_scale(scale_rows))
        payload["qtable_backends"] = run_backends(seed=args.seed)
        print(
            "backend head-to-head at |I|="
            f"{payload['qtable_backends']['num_items']}: dense "
            f"{payload['qtable_backends']['dense_train_s']:.2f}s vs "
            f"sparse {payload['qtable_backends']['sparse_train_s']:.2f}s "
            "(bit-identical entries asserted)"
        )
        serving_size = min(args.scale_sizes)
        serving = run_serving(num_items=serving_size)
        payload["serving"] = serving
        print(
            f"served plan at |I|={serving_size}: "
            f"{serving['ms_per_plan_median']:.1f} ms median, "
            f"{serving['steps_per_plan']:.0f} steps, "
            f"{serving['candidates_per_step']:.0f} candidates per step"
        )
    if args.obs:
        payload["obs_overhead"] = obs_overhead(seed=args.seed)
        print(
            "obs span overhead: "
            f"{payload['obs_overhead']['overhead_fraction']:.2%} "
            "(< 5% asserted)"
        )
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
