"""The lifecycle cycle: boot, serve, churn, refit, replan, restart, serve.

One :class:`Run` drives the production serving stack in-process, as
``rl-planner serve --listen --registry --journal`` builds it: a
``PlanningService`` with a ``PolicyRegistry`` and a ``DeltaJournal``
behind a ``PlanningServer`` JSON-lines listener on loopback.  A single
closed-loop client on one connection sends plan requests and
``{"delta": ...}`` lines; replans go through ``open_session`` and
``submit_replan``.  Every cycle repeats the same seven steps, so every
timing is a statistic over samples spread across the whole run.

Every reply is checked by :mod:`checks` against the client's own
record of the world; checks run after each timed batch, never inside
it.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from checks import World, check_plan_reply, check_recovery, check_replan
from workloads import Inputs, Workload, plan_burst

#: Operation types counted in the per-run accounting.
OPS = ("boot", "plan", "delta", "replan", "restart")

#: How often the client polls the registry for the post-burst policy.
REFIT_POLL_S = 0.002

#: Per-sample timings, which the run also keeps split by cycle.
TIMED = ("setup_s", "recover_s", "plan_rtt", "delta_ack", "refit_s", "replan_rtt")


def _served(reply: Dict) -> bool:
    """A plan request succeeded when a valid plan came back."""
    return reply.get("outcome") in ("ok", "degraded") and bool(reply.get("valid"))


class Client:
    """One JSON-lines connection; one request in flight at a time."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rwb")

    def exchange(self, payload: Dict) -> Tuple[Dict, float]:
        """Send one line, wait for its reply; returns (reply, seconds)."""
        line = (json.dumps(payload) + "\n").encode("utf-8")
        start = time.perf_counter()
        self.stream.write(line)
        self.stream.flush()
        raw = self.stream.readline()
        elapsed = time.perf_counter() - start
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw), elapsed

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


@dataclass
class Samples:
    """Everything one run measured, plus its accounting."""

    setup_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    plan_rtt: List[float] = field(default_factory=list)
    batch_wall_s: float = 0.0
    batch_replies: int = 0
    scores: List[float] = field(default_factory=list)
    delta_ack: List[float] = field(default_factory=list)
    refit_s: List[float] = field(default_factory=list)
    replan_rtt: List[float] = field(default_factory=list)
    attempted: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(OPS, 0))
    failed: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(OPS, 0))
    problems: List[str] = field(default_factory=list)
    cycle_s: List[float] = field(default_factory=list)
    #: Length of each ``TIMED`` list at the end of every cycle.
    marks: List[Dict[str, int]] = field(default_factory=list)
    memo_hits: int = 0

    def per_cycle(self, name: str) -> List[List[float]]:
        """The samples of timing ``name``, one list per cycle that took any."""
        values = getattr(self, name)
        ends = [mark[name] for mark in self.marks]
        return [values[a:b] for a, b in zip([0] + ends, ends) if b > a]


class Stack:
    """One server process's worth of serving objects."""

    def __init__(self, catalog, inputs: Inputs, workload: Workload,
                 registry_dir: pathlib.Path, journal_dir: pathlib.Path) -> None:
        from repro.serving import (
            DeltaJournal, PlanningServer, PlanningService, PolicyRegistry,
        )

        self.catalog = catalog
        self.service = PlanningService(
            catalog, inputs.task, inputs.config, mode=inputs.mode,
        )
        self.registry = PolicyRegistry(registry_dir)
        self.service.attach_registry(self.registry, label=inputs.name)
        self.journal = DeltaJournal(journal_dir, compact_every=workload.compact_every)
        self.recovery = self.service.attach_journal(self.journal)
        self.server = PlanningServer(self.service, ready=False)
        address = self.server.listen("127.0.0.1", 0)
        self.server.mark_ready()
        self.client = Client(address)

    def close(self) -> None:
        self.client.close()
        self.server.close()
        self.journal.close()
        self.registry.drain()


class Run:
    """Repeats whole cycles of one workload until the run time is spent."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int,
                 work_dir: pathlib.Path, tracer=None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.world = World(inputs.records)
        self.samples = Samples()
        self.tracer = tracer
        self.traced_cycle = False
        self.exchange_id = 0
        #: exchange id -> (kind, client round trip, cycle, traced)
        self.exchanges: Dict[int, Tuple[str, float, int, bool]] = {}
        self.cycle = 0

    # -- bookkeeping ----------------------------------------------------

    def _begin(self, kind: str) -> int:
        self.exchange_id += 1
        if self.tracer is not None:
            self.tracer.context = (self.exchange_id, kind)
        return self.exchange_id

    def _end(self, exchange: int, kind: str, rtt: float) -> None:
        self.exchanges[exchange] = (kind, rtt, self.cycle, self.traced_cycle)
        if self.tracer is not None:
            self.tracer.context = (None, "idle")

    def _problem(self, op: str, text: str) -> None:
        self.samples.problems.append(f"cycle {self.cycle} {op}: {text}")

    # -- steps ----------------------------------------------------------

    def _start(self, kind: str, registry_dir, journal_dir,
               closed: frozenset, acked: int) -> Tuple[Stack, float]:
        """Cold boot or warm restart: construction to first plan reply."""
        s = self.samples
        s.attempted[kind] += 1
        catalog = self.inputs.fresh_catalog()
        exchange = self._begin(kind)
        start = time.perf_counter()
        stack = Stack(catalog, self.inputs, self.workload, registry_dir, journal_dir)
        reply, rtt = stack.client.exchange({"start": None})
        elapsed = time.perf_counter() - start
        self._end(exchange, kind, rtt)
        if _served(reply):
            s.scores.append(reply["score"])
            for text in check_plan_reply(
                    reply, self.inputs.task_record, self.world, closed, acked):
                self._problem(kind, text)
        else:
            s.failed[kind] += 1
        return stack, elapsed

    def _batch(self, stack: Stack, index: int, closed: frozenset,
               acked: int) -> List[Dict]:
        """One timed plan batch; replies are checked after the clock stops."""
        s = self.samples
        live = list(self.world.live(closed))  # base catalog order
        starts = self.workload.batch(self.rng, self.inputs, live, index)
        # No timed plan request may overlap a background refit.
        stack.registry.drain()
        replies = []
        client = stack.client
        batch_start = time.perf_counter()
        for start in starts:
            exchange = self._begin("plan")
            reply, rtt = client.exchange({"start": start})
            self._end(exchange, "plan", rtt)
            replies.append((reply, rtt))
        wall = time.perf_counter() - batch_start
        s.batch_wall_s += wall
        s.batch_replies += len(replies)
        served = []
        for reply, rtt in replies:
            s.attempted["plan"] += 1
            s.plan_rtt.append(rtt)
            if not _served(reply):
                s.failed["plan"] += 1
                continue
            for text in check_plan_reply(
                    reply, self.inputs.task_record, self.world, closed, acked):
                self._problem("plan", text)
            s.scores.append(reply["score"])
            s.memo_hits += bool(reply.get("plan_cache_hit"))
            served.append(reply)
        return served

    def _open_sessions(self, stack: Stack, replies: Sequence[Dict]):
        """Replan sessions over served plans, and the burst that hits them."""
        from repro.core.plan import Plan

        plans, deltas = plan_burst(self.rng, self.inputs, self.workload,
                                   [tuple(reply["plan"]) for reply in replies])
        catalog = stack.catalog
        sessions = []
        for ids in plans:
            plan = Plan(tuple(catalog[i] for i in ids), catalog_name=catalog.name)
            session = stack.server.open_session(plan, executed=self.workload.executed)
            sessions.append((session, ids))
        return sessions, deltas

    def _burst(self, stack: Stack, deltas) -> Tuple[frozenset, int, List[str], float]:
        """Send one delta burst; returns (closed, acked, closed-in-burst, last ack)."""
        s = self.samples
        closed: set = set()
        acked = 0
        hit: List[str] = []
        last_ack = time.perf_counter()
        for delta in deltas:
            s.attempted["delta"] += 1
            exchange = self._begin("delta")
            reply, rtt = stack.client.exchange({"delta": delta})
            last_ack = time.perf_counter()
            self._end(exchange, "delta", rtt)
            if reply.get("outcome") != "delta_applied":
                s.failed["delta"] += 1
                continue
            acked += 1
            s.delta_ack.append(rtt)
            if delta["kind"] == "close":
                closed.add(delta["item"])
                hit.append(delta["item"])
            else:
                closed.discard(delta["item"])
            if reply.get("catalog_version") != acked or reply.get("seq") != acked:
                self._problem("delta", f"ack {reply} after {acked} acked deltas")
        return frozenset(closed), acked, hit, last_ack

    def _wait_refit(self, stack: Stack, last_ack: float) -> None:
        """Time until the registry holds the policy for the post-burst world."""
        pending = stack.service.pending_policy_key
        if pending is None:
            self._problem("delta", "burst left no refit pending")
            return
        while stack.registry.peek(pending) is None:
            time.sleep(REFIT_POLL_S)
        self.samples.refit_s.append(time.perf_counter() - last_ack)
        stack.registry.drain()

    def _replans(self, stack: Stack, sessions, hit: Sequence[str],
                 closed: frozenset) -> None:
        s = self.samples
        executed = self.workload.executed
        for session, ids in sessions:
            if not set(ids[executed:]) & set(hit):
                continue
            s.attempted["replan"] += 1
            exchange = self._begin("replan")
            start = time.perf_counter()
            result = stack.server.submit_replan(session).result()
            rtt = time.perf_counter() - start
            self._end(exchange, "replan", rtt)
            s.replan_rtt.append(rtt)
            valid = result.score is not None and result.score.is_valid
            if result.outcome not in ("ok", "degraded") or not valid:
                s.failed["replan"] += 1
                continue
            after = list(result.plan.item_ids)
            for text in check_replan(ids, executed, after, valid, result.score.value,
                                     self.inputs.task_record, self.world, closed):
                self._problem("replan", text)

    def _probe(self, stack: Stack, acked: int) -> None:
        exchange = self._begin("probe")
        health, rtt = stack.client.exchange({"op": "health"})
        self._end(exchange, "probe", rtt)
        for text in check_recovery(health, acked):
            self._problem("restart", text)

    def cycle_once(self) -> None:
        """One whole cycle, in fresh registry and journal directories."""
        s = self.samples
        cycle_start = time.perf_counter()
        root = self.work_dir / f"cycle-{self.cycle}"
        registry_dir, journal_dir = root / "registry", root / "journal"
        pristine: frozenset = frozenset()
        # 1. cold boot
        stack, elapsed = self._start("boot", registry_dir, journal_dir, pristine, 0)
        s.setup_s.append(elapsed)
        try:
            # 2. plan batch
            served = self._batch(stack, 0, pristine, 0)
            sessions, deltas = self._open_sessions(stack, served)
            # 3. delta burst
            closed, acked, hit, last_ack = self._burst(stack, deltas)
            # 4. wait for the fresh policy
            self._wait_refit(stack, last_ack)
            # 5. replans of the disrupted sessions
            self._replans(stack, sessions, hit, closed)
        except BaseException:
            stack.close()
            raise
        # 6. warm restarts over the same directories.  A stopped stack
        # closes on its own thread: PlanningServer.close waits for the
        # listener's next poll (up to 0.5 s), which is not restart time.
        closers = [threading.Thread(target=stack.close)]
        closers[-1].start()
        try:
            for restart in range(self.workload.restarts):
                stack, elapsed = self._start("restart", registry_dir, journal_dir,
                                             closed, acked)
                s.recover_s.append(elapsed)
                self._probe(stack, acked)
                if restart < self.workload.restarts - 1:
                    closers.append(threading.Thread(target=stack.close))
                    closers[-1].start()
            # 7. second plan batch, after the last restart
            self._batch(stack, 1, closed, acked)
        finally:
            stack.close()
            for closer in closers:
                closer.join()
        shutil.rmtree(root, ignore_errors=True)
        # Automatic collection is off for the run (see run.py): garbage
        # is collected here, between cycles, never inside a timed step.
        gc.collect()
        s.cycle_s.append(time.perf_counter() - cycle_start)
        s.marks.append({name: len(getattr(s, name)) for name in TIMED})
        self.cycle += 1
