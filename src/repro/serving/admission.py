"""Admission control: catalog/constraint auditing before planning.

A planning service that accepts millions of heterogeneous requests
cannot assume the paper's clean catalogs.  The auditor is the gate run
at load time (:func:`repro.datasets.loaders.load`) and at request time
(:meth:`repro.serving.facade.PlanningService.serve`): it checks the raw
item set and the task's hard constraints for the defects that would
otherwise surface mid-search as crashes, hangs, or doomed rollouts.

Checks, in order:

1. **duplicate_id** — two items share an id (the second is quarantined).
2. **bad_credits** — NaN, infinite, or non-positive ``cr_m`` (the Item
   constructor rejects ``<= 0`` but NaN slips through every comparison).
3. **bad_topic** — empty or non-string topic names (they would poison
   the topic vocabulary and every coverage vector built from it).
4. **dangling_prereq** — a prerequisite referencing an id not in the
   item set.  In quarantine mode the *reference* is unsatisfiable, so
   the dependent item is dropped (its own dependents re-audit in the
   next pass).
5. **prereq_cycle** — prerequisite cycles, AND/OR aware: an OR-group is
   satisfiable when *any* member is; an item is unsatisfiable only when
   some group has *no* satisfiable member.  A cycle that every plan can
   route around (``a`` requires ``b OR c`` while ``b`` requires ``a``)
   is therefore **not** flagged; a cycle with no escape is, and the
   report names one witness cycle.
6. **infeasible_credits / infeasible_primary / infeasible_length** —
   fast structural screens against the hard constraints: the surviving
   pool cannot reach ``#cr`` (courses), cannot fill ``#primary``, or is
   smaller than the plan length.  These are *task* defects — quarantine
   cannot repair them, so they always reject.

Two dispositions:

* **strict** — any finding rejects the catalog
  (:meth:`AdmissionReport.raise_if_rejected` raises
  :class:`AdmissionError`, or :class:`~repro.core.exceptions.InfeasibleError`
  when the only findings are infeasibility screens).
* **quarantine** — defective items are dropped, the survivors are
  re-audited (dropping ``a`` may orphan ``b``), and planning continues
  on the clean subset; the report keeps every finding and the
  quarantined ids so the envelope can disclose what was removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.catalog import Catalog
from ..core.constraints import CREDIT_TOLERANCE, TaskSpec
from ..core.env import DomainMode
from ..core.exceptions import DataModelError, InfeasibleError
from ..core.items import Item
from ..obs import get_registry, labelled

#: Finding codes that indicate an unsatisfiable *task* (as opposed to a
#: repairable *catalog*): quarantine mode still rejects on these.
INFEASIBILITY_CODES = (
    "infeasible_credits",
    "infeasible_primary",
    "infeasible_length",
)


class AdmissionError(DataModelError):
    """A catalog or request was rejected by admission control.

    Non-retriable (via :class:`~repro.core.exceptions.DataModelError`):
    the same request can never pass until the catalog itself changes.
    Carries the full :class:`AdmissionReport` for the caller.
    """

    def __init__(self, report: "AdmissionReport") -> None:
        super().__init__(report.describe())
        self.report = report


@dataclass(frozen=True)
class AdmissionFinding:
    """One defect discovered by the auditor.

    Attributes
    ----------
    code:
        Machine-readable defect class (see the module docstring).
    message:
        Human-readable explanation, naming the offending items (and the
        witness cycle for ``prereq_cycle`` findings).
    item_ids:
        The items implicated — the ones quarantine mode would drop.
        Empty for task-level findings (infeasibility screens).
    """

    code: str
    message: str
    item_ids: Tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class AdmissionReport:
    """Outcome of one audit pass (possibly after quarantine rounds).

    Attributes
    ----------
    findings:
        Every defect found, across all quarantine rounds.
    quarantined:
        Item ids dropped in quarantine mode (empty in strict mode).
    mode:
        ``"strict"`` or ``"quarantine"``.
    admitted:
        Number of items that survived.
    """

    findings: Tuple[AdmissionFinding, ...] = ()
    quarantined: Tuple[str, ...] = ()
    mode: str = "strict"
    admitted: int = 0

    @property
    def ok(self) -> bool:
        """True when the catalog passed with no findings at all."""
        return not self.findings

    @property
    def rejected(self) -> bool:
        """True when planning must not proceed.

        Strict mode rejects on any finding; quarantine mode only on
        task-level infeasibility (or when quarantine emptied the pool).
        """
        if not self.findings:
            return False
        if self.mode == "strict":
            return True
        return self.admitted == 0 or any(
            f.code in INFEASIBILITY_CODES for f in self.findings
        )

    def codes(self) -> Tuple[str, ...]:
        """Finding codes in discovery order, for compact assertions."""
        return tuple(f.code for f in self.findings)

    def describe(self) -> str:
        """Multi-line summary for logs and CLI output."""
        if self.ok:
            return f"admitted {self.admitted} items, no findings"
        lines = [
            f"admission ({self.mode}): {len(self.findings)} finding(s), "
            f"{len(self.quarantined)} quarantined, {self.admitted} admitted"
        ]
        lines.extend(str(f) for f in self.findings)
        return "\n".join(lines)

    def raise_if_rejected(self) -> None:
        """Raise the typed rejection when :attr:`rejected` is True.

        :class:`InfeasibleError` when every finding is an infeasibility
        screen (the catalog is clean, the *task* is impossible);
        :class:`AdmissionError` otherwise.
        """
        if not self.rejected:
            return
        obs = get_registry()
        for finding in self.findings:
            obs.inc(labelled("admission_rejects_total", code=finding.code))
        if all(f.code in INFEASIBILITY_CODES for f in self.findings):
            raise InfeasibleError(self.describe())
        raise AdmissionError(self)


@dataclass
class _AuditPass:
    """Mutable working state of one audit round over an item sequence."""

    findings: List[AdmissionFinding] = field(default_factory=list)
    dropped: Set[str] = field(default_factory=set)

    def flag(self, code: str, message: str, *item_ids: str) -> None:
        self.findings.append(AdmissionFinding(code, message, tuple(item_ids)))
        self.dropped.update(item_ids)


def _check_items(items: Sequence[Item], audit: _AuditPass) -> None:
    """Per-item sanity: duplicate ids, credit values, topic names."""
    seen: Set[str] = set()
    for item in items:
        if item.item_id in seen:
            audit.flag(
                "duplicate_id",
                f"item id {item.item_id!r} appears more than once",
                item.item_id,
            )
            continue
        seen.add(item.item_id)
        credits = item.credits
        if (
            not isinstance(credits, (int, float))
            or math.isnan(credits)
            or math.isinf(credits)
            or credits <= 0
        ):
            audit.flag(
                "bad_credits",
                f"item {item.item_id!r} has unusable credits {credits!r}",
                item.item_id,
            )
        for topic in item.topics:
            if not isinstance(topic, str) or not topic.strip():
                audit.flag(
                    "bad_topic",
                    f"item {item.item_id!r} has a blank or non-string "
                    f"topic {topic!r}",
                    item.item_id,
                )
                break


def _check_references(items: Sequence[Item], audit: _AuditPass) -> None:
    """Dangling prerequisite references (AND/OR aware).

    An OR-group needs only one resolvable member, so a group is only a
    defect when *every* member is unknown; a fully-unknown group makes
    the dependent item unsatisfiable.
    """
    known = {item.item_id for item in items} - audit.dropped
    for item in items:
        if item.item_id in audit.dropped:
            continue
        for group in item.prerequisites.groups:
            unknown = group - known
            if unknown == group:
                audit.flag(
                    "dangling_prereq",
                    f"item {item.item_id!r} requires one of "
                    f"{sorted(group)} but none exist in the catalog",
                    item.item_id,
                )
                break


def _find_cycles(items: Sequence[Item], audit: _AuditPass) -> None:
    """AND/OR-aware prerequisite-cycle detection.

    Fixpoint over *satisfiability*: an item is satisfiable iff every
    prerequisite group contains at least one satisfiable member.  Items
    outside the fixpoint are locked behind an inescapable cycle (or
    depend on such an item); a DFS restricted to the unsatisfiable set
    then names one witness cycle for the report.
    """
    alive = [i for i in items if i.item_id not in audit.dropped]
    by_id: Dict[str, Item] = {i.item_id: i for i in alive}
    satisfiable: Set[str] = {
        i.item_id for i in alive if i.prerequisites.is_empty
    }
    # Items whose every group already has a satisfiable member join the
    # set; repeat until nothing changes.  O(rounds * edges), and rounds
    # is bounded by the longest prerequisite chain.
    changed = True
    while changed:
        changed = False
        for item in alive:
            if item.item_id in satisfiable:
                continue
            if all(
                any(m in satisfiable for m in group)
                for group in item.prerequisites.groups
            ):
                satisfiable.add(item.item_id)
                changed = True
    stuck = [i for i in alive if i.item_id not in satisfiable]
    if not stuck:
        return
    cycle = _witness_cycle({i.item_id for i in stuck}, by_id)
    names = " -> ".join(cycle) if cycle else ", ".join(
        sorted(i.item_id for i in stuck)
    )
    audit.flag(
        "prereq_cycle",
        f"{len(stuck)} item(s) are locked behind a prerequisite cycle "
        f"({names})",
        *sorted(i.item_id for i in stuck),
    )


def _witness_cycle(
    stuck: Set[str], by_id: Dict[str, Item]
) -> Optional[List[str]]:
    """Name one concrete cycle inside the unsatisfiable set.

    DFS following only edges into other stuck items — every stuck item
    has at least one fully-stuck group, so such an edge always exists
    and the walk must eventually revisit a node.
    """
    for root in sorted(stuck):
        path: List[str] = []
        index: Dict[str, int] = {}
        node = root
        while node is not None and node not in index:
            index[node] = len(path)
            path.append(node)
            node = _next_stuck(node, stuck, by_id)
        if node is not None:
            return path[index[node]:] + [node]
    return None


def _next_stuck(
    node: str, stuck: Set[str], by_id: Dict[str, Item]
) -> Optional[str]:
    """A stuck member of one of ``node``'s fully-stuck groups."""
    for group in by_id[node].prerequisites.groups:
        # A group blocks the node only when no member is satisfiable:
        # every member is itself stuck or absent from the pool entirely.
        if all(m in stuck or m not in by_id for m in group):
            members = sorted(group & stuck)
            if members:
                return members[0]
    return None


def _check_feasibility(
    items: Sequence[Item],
    task: TaskSpec,
    mode: DomainMode,
    audit: _AuditPass,
) -> None:
    """Structural infeasibility screens over the surviving pool."""
    alive = [i for i in items if i.item_id not in audit.dropped]
    hard = task.hard
    if len(alive) < hard.plan_length:
        audit.flag(
            "infeasible_length",
            f"plan needs {hard.plan_length} items but only {len(alive)} "
            f"are admissible",
        )
    primaries = sum(1 for i in alive if i.is_primary)
    if primaries < hard.num_primary:
        audit.flag(
            "infeasible_primary",
            f"hard constraints require {hard.num_primary} primary items "
            f"but the admissible pool has {primaries}",
        )
    if mode is not DomainMode.TRIP:
        # Courses: the best attainable total is the plan_length largest
        # credit values; if even that misses #cr, every plan fails.
        credits = sorted(
            (i.credits for i in alive if not math.isnan(i.credits)),
            reverse=True,
        )
        attainable = sum(credits[: hard.plan_length])
        if attainable < hard.min_credits - CREDIT_TOLERANCE:
            audit.flag(
                "infeasible_credits",
                f"the {hard.plan_length} largest admissible items total "
                f"{attainable:g} credits, below the required "
                f"{hard.min_credits:g}",
            )


def audit_items(
    items: Sequence[Item],
    task: Optional[TaskSpec] = None,
    mode: DomainMode = DomainMode.COURSE,
    quarantine: bool = False,
) -> Tuple[AdmissionReport, Tuple[Item, ...]]:
    """Audit a raw item sequence; return (report, surviving items).

    In strict mode (``quarantine=False``) the survivors equal the input
    whenever the report is clean and are meaningless otherwise (the
    report rejects).  In quarantine mode defective items are dropped and
    the remainder re-audited until stable — dropping a prerequisite can
    orphan its dependents, so one pass is not enough.
    """
    obs = get_registry()
    with obs.span("admission.audit"):
        pool = list(items)
        all_findings: List[AdmissionFinding] = []
        quarantined: List[str] = []
        for _ in range(len(pool) + 1):
            audit = _AuditPass()
            _check_items(pool, audit)
            _check_references(pool, audit)
            _find_cycles(pool, audit)
            if task is not None:
                _check_feasibility(pool, task, mode, audit)
            all_findings.extend(audit.findings)
            if not quarantine or not audit.dropped:
                break
            quarantined.extend(sorted(audit.dropped))
            pool = [i for i in pool if i.item_id not in audit.dropped]
            # Duplicate-id survivors: the first occurrence stays, later
            # ones were flagged and dropped above.
        report = AdmissionReport(
            findings=tuple(all_findings),
            quarantined=tuple(quarantined),
            mode="quarantine" if quarantine else "strict",
            admitted=len(pool),
        )
    if not report.ok:
        for finding in report.findings:
            obs.inc(
                labelled("admission_findings_total", code=finding.code)
            )
    return report, tuple(pool)


def audit_catalog(
    catalog: Catalog,
    task: Optional[TaskSpec] = None,
    mode: DomainMode = DomainMode.COURSE,
    quarantine: bool = False,
) -> Tuple[AdmissionReport, Catalog]:
    """Audit a built catalog; return (report, admitted catalog).

    Quarantine mode returns a rebuilt catalog containing only the
    survivors (prerequisites referencing dropped items are tolerated the
    same way :meth:`Catalog.subset` tolerates them — they can simply
    never be satisfied, and the cycle/dangling passes already dropped
    items that *require* them).  Strict mode returns the input catalog
    unchanged.
    """
    report, survivors = audit_items(
        catalog.items, task=task, mode=mode, quarantine=quarantine
    )
    if not quarantine or not report.quarantined or not survivors:
        return report, catalog
    admitted = Catalog(
        survivors,
        name=catalog.name,
        validate_prerequisites=False,
    )
    return report, admitted


def screen_request(
    catalog: Catalog,
    task: TaskSpec,
    mode: DomainMode,
    start_item_id: Optional[str] = None,
) -> AdmissionReport:
    """Fast request-time screens (no cycle DFS — that ran at load time).

    Checks the structural feasibility of the task against the catalog
    and that the requested start item exists.  Cheap enough to run on
    every request.
    """
    audit = _AuditPass()
    if start_item_id is not None and start_item_id not in catalog:
        audit.flag(
            "unknown_start",
            f"start item {start_item_id!r} is not in catalog "
            f"{catalog.name!r}",
        )
    _check_feasibility(catalog.items, task, mode, audit)
    return AdmissionReport(
        findings=tuple(audit.findings),
        mode="strict",
        admitted=len(catalog),
    )
