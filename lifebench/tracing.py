"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (and the few
private step functions the policy traversal is made of) by replacing
class attributes and module names at run time; :meth:`Tracer.uninstall`
puts the originals back.  Nothing in ``src/`` changes.

Every span records its layer, start, end, parent, thread and the client
exchange it belongs to.  Within a thread, parents come from a
thread-local stack.  A span that opens a thread's stack while the client
has an exchange in flight is parented to that exchange's open root in
another thread, so ``PlanningService.serve`` on a pool worker nests
under ``PlanningServer.handle`` on the connection thread.  Background
refit threads open their own roots and never join an exchange, so their
time is never charged to a request.  Inside ``SarsaLearner.learn`` no
further spans are recorded: training is one span.

Spans stay in memory and are written out as JSON lines when the run
ends.  :func:`layer_metrics` turns them into the per-layer ledger.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Per-layer metrics reported by a traced run: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("server.wire_us", "us"),
    ("server.dispatch_us", "us"),
    ("admission.screen_us", "us"),
    ("admission.screens_per_plan", "count"),
    ("admission.audit_ms", "ms"),
    ("facade.serve_self_us", "us"),
    ("facade.delta_self_us", "us"),
    ("registry.memo_hit_ratio", "ratio"),
    ("registry.acquire_us", "us"),
    ("registry.refits_started", "count/burst"),
    ("registry.refit_useful_ratio", "ratio"),
    ("registry.publish_ms", "ms"),
    ("registry.disk_load_ms", "ms"),
    ("fingerprint.calls", "count/cycle"),
    ("fingerprint.ms", "ms"),
    ("deltas.apply_ms", "ms"),
    ("deltas.restore_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("journal.snapshot_ms", "ms"),
    ("journal.replay_ms", "ms"),
    ("replan.ingest_us", "us"),
    ("replan.self_ms", "ms"),
    ("planner.rollouts_per_plan", "count"),
    ("policy.steps", "count/plan"),
    ("policy.step_self_us", "us"),
    ("reward.mask_candidates", "count"),
    ("reward.mask_us_per_candidate", "us"),
    ("reward.batch_us", "us"),
    ("qtable.continuation_us", "us"),
    ("validation.us", "us"),
    ("scoring.self_us", "us"),
    ("eda.calls", "count/cycle"),
    ("eda.ms", "ms"),
    ("repair.calls", "count/cycle"),
    ("repair.ms", "ms"),
    ("sarsa.episodes_per_s", "1/s"),
    ("trace.spans_per_cycle", "count"),
    ("trace.overhead_pct", "%"),
)


class Span:
    __slots__ = ("layer", "start", "end", "parent", "thread", "exchange",
                 "kind", "extra")

    def __init__(self, layer, parent, thread, exchange, kind):
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.exchange = exchange
        self.kind = kind
        self.extra = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets():
    """(owner, attribute, layer, hook) for every wrapped entry point."""
    from repro.baselines.eda import EDAPlanner
    from repro.core import policy as policy_module
    from repro.core.deltas import CatalogView
    from repro.core.planner import RLPlanner
    from repro.core.policy import GreedyPolicy
    from repro.core.qtable import QTable, QTableBase, SparseQTable
    from repro.core.reward import RewardFunction
    from repro.core.sarsa import SarsaLearner
    from repro.core.scoring import PlanScorer
    from repro.core.validation import PlanValidator
    from repro.serving import facade as facade_module
    from repro.serving import server as server_module
    from repro.serving.facade import PlanningService
    from repro.serving.journal import DeltaJournal
    from repro.serving.registry import CacheEntry, PolicyRegistry
    from repro.serving.repair import RepairPlanner
    from repro.serving.replan import ReplanSession
    from repro.serving.server import PlanningServer

    def result_is_set(span, args, kwargs, result):
        span.extra = result is not None

    def acquire_source(span, args, kwargs, result):
        span.extra = result[1]

    def candidates(span, args, kwargs, result):
        span.extra = len(args[2] if len(args) > 2 else kwargs["candidates"])

    def episodes(span, args, kwargs, result):
        span.extra = result.episodes

    targets = [
        (PlanningServer, "handle", "server.handle", None),
        (PlanningServer, "apply_delta", "server.delta", None),
        (server_module, "screen_request", "admission.screen", None),
        (facade_module, "screen_request", "admission.screen", None),
        (facade_module, "audit_catalog", "admission.audit", None),
        (PlanningService, "serve", "facade.serve", None),
        (PlanningService, "apply_delta", "facade.delta", None),
        (CacheEntry, "cached_plan", "registry.memo", result_is_set),
        (PolicyRegistry, "acquire", "registry.acquire", acquire_source),
        (PolicyRegistry, "publish", "registry.publish", None),
        (PolicyRegistry, "_load_entry", "registry.load", result_is_set),
        (PolicyRegistry, "key_for", "fingerprint", None),
        (CatalogView, "apply", "deltas.apply", None),
        (CatalogView, "restore", "deltas.restore", None),
        (DeltaJournal, "append", "journal.append", None),
        (DeltaJournal, "write_snapshot", "journal.snapshot", None),
        (DeltaJournal, "replay", "journal.replay", None),
        (ReplanSession, "ingest", "replan.ingest", None),
        (ReplanSession, "replan", "replan.replan", None),
        (RLPlanner, "recommend_anytime", "planner.anytime", None),
        (RLPlanner, "complete_plan", "planner.complete", None),
        (GreedyPolicy, "recommend", "policy.rollout", None),
        (GreedyPolicy, "complete", "policy.rollout", None),
        (GreedyPolicy, "_allowed_actions", "policy.filter", None),
        (GreedyPolicy, "_lookahead_choice", "policy.choice", None),
        (GreedyPolicy, "_q_only_choice", "policy.choice", None),
        (RewardFunction, "mask_actions", "reward.mask", candidates),
        (policy_module, "batch_rewards", "reward.batch", None),
        (PlanValidator, "validate", "validation", None),
        (PlanScorer, "score", "scoring", None),
        (EDAPlanner, "recommend", "eda", None),
        (EDAPlanner, "complete", "eda", None),
        (RepairPlanner, "recommend", "repair", None),
        (SarsaLearner, "learn", "sarsa", episodes),
    ]
    for cls in (QTableBase, QTable, SparseQTable):
        if "best_continuation" in vars(cls):
            targets.append((cls, "best_continuation", "qtable.continuation", None))
    return targets, PlanningService, PolicyRegistry


class Tracer:
    """Installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.context: Tuple[Optional[int], str] = (None, "idle")
        #: The cycle being traced; refits and adoptions are matched within
        #: it, because a world (and so its policy key) can recur across
        #: cycles.
        self.cycle = 0
        self.adopted_keys: set = set()
        self.refit_keys: List[Tuple[int, str]] = []
        self._tls = threading.local()
        self._roots: Dict[int, List[Span]] = {}
        self._roots_lock = threading.Lock()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        targets, service_cls, registry_cls = _targets()
        for owner, attr, layer, hook in targets:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), layer, hook))
        self._patch(service_cls, "_adopt_refit",
                    self._wrap_adopt(service_cls._adopt_refit))
        self._patch(registry_cls, "_refit_worker",
                    self._wrap_refit(registry_cls._refit_worker))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- span plumbing --------------------------------------------------

    def _open(self, layer: str) -> Optional[Span]:
        tls = self._tls
        if getattr(tls, "suppress", False):
            return None
        stack = getattr(tls, "stack", None)
        if stack is None:
            stack = tls.stack = []
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
            span = Span(layer, parent, thread, parent.exchange, parent.kind)
        elif getattr(tls, "refit", False):
            span = Span(layer, None, thread, None, "refit")
        else:
            exchange, kind = self.context
            with self._roots_lock:
                roots = self._roots.setdefault(exchange, [])
                parent = roots[-1] if roots else None
                span = Span(layer, parent, thread, exchange, kind)
                roots.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._tls.stack.pop()
        if not self._tls.stack and span.kind != "refit":
            with self._roots_lock:
                self._roots[span.exchange].remove(span)
        self.spans.append(span)

    def _wrap(self, fn: Callable, layer: str, hook) -> Callable:
        tracer = self
        suppress = layer == "sarsa"

        def traced(*args, **kwargs):
            span = tracer._open(layer)
            if span is None:
                return fn(*args, **kwargs)
            if suppress:
                tracer._tls.suppress = True
            try:
                result = fn(*args, **kwargs)
            finally:
                if suppress:
                    tracer._tls.suppress = False
                tracer._close(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_adopt(self, fn: Callable) -> Callable:
        tracer = self

        def adopt(service, key, entry):
            result = fn(service, key, entry)
            if service._policy_key == key:
                tracer.adopted_keys.add((tracer.cycle, key))
            return result

        return adopt

    def _wrap_refit(self, fn: Callable) -> Callable:
        tracer = self

        def refit_worker(registry, key, *args, **kwargs):
            tracer._tls.refit = True
            tracer.refit_keys.append((tracer.cycle, key))
            span = tracer._open("registry.refit")
            try:
                return fn(registry, key, *args, **kwargs)
            finally:
                tracer._close(span)

        return refit_worker

    # -- output ---------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line (parents by index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "layer": span.layer,
                    "start": span.start, "end": span.end,
                    "parent": None if span.parent is None else index.get(id(span.parent)),
                    "thread": span.thread, "exchange": span.exchange,
                    "kind": span.kind,
                    "extra": span.extra if isinstance(span.extra, (bool, int, str)) else None,
                }) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[id(span)] = span.duration - covered
    return out


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans: Sequence[Span],
    exchanges: Dict[int, Tuple[str, float]],
    cycles: int,
    bursts: int,
    refit_keys: Sequence[Tuple[int, str]],
    adopted_keys: set,
    overhead_pct: Tuple[float, int],
) -> Dict[str, Tuple[float, int]]:
    """The per-layer ledger of a traced run: name -> (value, samples).

    ``exchanges`` maps exchange id to (kind, client round trip in s).
    Serve-path layers count spans under plan and replan exchanges only;
    training, restarts and refits are reported by their own layers.
    """
    own = self_times(spans)
    by_layer: Dict[str, List[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def layer(name: str, kinds: Optional[Tuple[str, ...]] = None) -> List[Span]:
        found = by_layer.get(name, [])
        if kinds is None:
            return found
        return [s for s in found if s.kind in kinds]

    serving = ("plan", "replan")
    plan_ids = {x for x, (kind, _) in exchanges.items() if kind == "plan"}
    handles = {s.exchange: s for s in layer("server.handle", ("plan",))}
    serves = {s.exchange: s for s in layer("facade.serve", ("plan",))}
    wire = [exchanges[x][1] - h.duration for x, h in handles.items()]
    dispatch = [own[id(h)] for h in handles.values()]
    screens = layer("admission.screen", ("plan",))
    memo = layer("registry.memo", ("plan",))
    warm = [s for s in layer("registry.acquire", ("plan",)) if s.extra == "cache"]
    loads = [s for s in layer("registry.load") if s.extra]
    rollouts = layer("policy.rollout", ("plan",))
    choices = layer("policy.choice", serving)
    step_self = sum(own[id(s)] for s in choices + layer("policy.filter", serving))
    masks = layer("reward.mask", serving)
    mask_candidates = sum(s.extra for s in masks)
    learns = layer("sarsa")
    learn_time = sum(s.duration for s in learns)
    refits = len(refit_keys)
    useful = sum(1 for key in refit_keys if key in adopted_keys)

    def median_ms(name, kinds=None):
        found = layer(name, kinds)
        return 1e3 * _median([s.duration for s in found]), len(found)

    def mean_us(name, kinds=serving, own_time=False):
        found = layer(name, kinds)
        values = [own[id(s)] if own_time else s.duration for s in found]
        return 1e6 * _mean(values), len(found)

    def ratio(num, den):
        return (num / den if den else 0.0), den

    loaded = [s.duration for s in loads]
    return {
        "server.wire_us": (1e6 * _median(wire), len(wire)),
        "server.dispatch_us": (1e6 * _median(dispatch), len(dispatch)),
        "admission.screen_us": (1e6 * _median([s.duration for s in screens]),
                                len(screens)),
        "admission.screens_per_plan": ratio(len(screens), len(plan_ids)),
        "admission.audit_ms": median_ms("admission.audit"),
        "facade.serve_self_us": (
            1e6 * _median([own[id(s)] for s in serves.values()]), len(serves)),
        "facade.delta_self_us": (
            1e6 * _median([own[id(s)] for s in layer("facade.delta")]),
            len(layer("facade.delta"))),
        "registry.memo_hit_ratio": ratio(sum(1 for s in memo if s.extra), len(memo)),
        "registry.acquire_us": (1e6 * _median([own[id(s)] for s in warm]), len(warm)),
        "registry.refits_started": ratio(refits, bursts),
        "registry.refit_useful_ratio": ratio(useful, refits),
        "registry.publish_ms": median_ms("registry.publish"),
        "registry.disk_load_ms": (1e3 * _median(loaded), len(loaded)),
        "fingerprint.calls": ratio(len(layer("fingerprint")), cycles),
        "fingerprint.ms": median_ms("fingerprint"),
        "deltas.apply_ms": median_ms("deltas.apply"),
        "deltas.restore_ms": median_ms("deltas.restore"),
        "journal.append_ms": median_ms("journal.append"),
        "journal.snapshot_ms": median_ms("journal.snapshot"),
        "journal.replay_ms": median_ms("journal.replay"),
        "replan.ingest_us": (
            1e3 * median_ms("replan.ingest")[0], len(layer("replan.ingest"))),
        "replan.self_ms": (
            1e3 * _median([own[id(s)] for s in layer("replan.replan")]),
            len(layer("replan.replan"))),
        "planner.rollouts_per_plan": ratio(len(rollouts), len(plan_ids)),
        "policy.steps": ratio(len(layer("policy.choice", ("plan",))), len(plan_ids)),
        "policy.step_self_us": (
            1e6 * step_self / len(choices) if choices else 0.0, len(choices)),
        "reward.mask_candidates": ratio(mask_candidates, len(masks)),
        "reward.mask_us_per_candidate": (
            1e6 * sum(own[id(s)] for s in masks) / mask_candidates
            if mask_candidates else 0.0, len(masks)),
        "reward.batch_us": mean_us("reward.batch"),
        "qtable.continuation_us": mean_us("qtable.continuation"),
        "validation.us": mean_us("validation"),
        "scoring.self_us": mean_us("scoring", own_time=True),
        "eda.calls": ratio(len(layer("eda")), cycles),
        "eda.ms": (1e3 * _mean([s.duration for s in layer("eda")]), len(layer("eda"))),
        "repair.calls": ratio(len(layer("repair")), cycles),
        "repair.ms": (1e3 * _mean([s.duration for s in layer("repair")]),
                      len(layer("repair"))),
        "sarsa.episodes_per_s": (
            sum(s.extra or 0 for s in learns) / learn_time if learn_time else 0.0,
            len(learns)),
        "trace.spans_per_cycle": ratio(len(spans), cycles),
        "trace.overhead_pct": overhead_pct,
    }
