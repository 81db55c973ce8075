"""The benchmark's own output checks reject deliberately broken outputs.

Run from the repository root::

    python3 -m pytest lifebench/tests -q

Each test starts from a correct output, breaks one thing, and shows the
check that must catch it doing so.  The checks import nothing from the
program, so these tests run without it.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from checks import (  # noqa: E402
    ItemRecord,
    TaskRecord,
    World,
    check_plan_reply,
    check_recovery,
    check_replan,
)

# A small course catalog: c3 needs c1; c4 needs (c2 OR c3).
COURSES = [
    ItemRecord("c1", True, 3.0),
    ItemRecord("c2", True, 3.0),
    ItemRecord("c3", False, 3.0, groups=(frozenset({"c1"}),)),
    ItemRecord("c4", False, 3.0, groups=(frozenset({"c2", "c3"}),)),
    ItemRecord("c5", False, 3.0),
    ItemRecord("c6", False, 3.0),
]
COURSE_TASK = TaskRecord(num_primary=2, num_secondary=2, credits=12.0, gap=2)

# Three POIs a few hundred metres apart, one far away.
POIS = [
    ItemRecord("p1", True, 1.0, topics=frozenset({"art"}), lat=48.860, lon=2.337),
    ItemRecord("p2", True, 1.5, topics=frozenset({"park"}), lat=48.862, lon=2.340),
    ItemRecord("p3", False, 1.0, topics=frozenset({"food"}), lat=48.858, lon=2.342),
    ItemRecord("p4", False, 2.0, topics=frozenset({"art"}), lat=48.861, lon=2.345),
]
TRIP_TASK = TaskRecord(num_primary=2, num_secondary=1, credits=4.0, gap=1,
                       trip=True, max_distance=5.0, theme_adjacency=True)


def reply(plan, valid=True, score=None, version=0):
    return {"outcome": "ok", "plan": plan, "valid": valid,
            "score": (len(plan) if valid else 0.0) if score is None else score,
            "catalog_version": version}


def test_correct_course_plan_passes():
    world = World(COURSES)
    assert check_plan_reply(reply(["c1", "c2", "c3", "c4"]), COURSE_TASK,
                            world, frozenset(), 0) == []


def test_plan_holding_a_closed_item_is_rejected():
    world = World(COURSES)
    problems = check_plan_reply(reply(["c1", "c2", "c5", "c6"], version=1),
                                COURSE_TASK, world, frozenset({"c5"}), 1)
    assert any("closed by an acked delta" in p for p in problems)


def test_prerequisite_inside_the_gap_is_rejected():
    world = World(COURSES)
    # c3 sits one slot after c1, but the gap is 2: the plan is invalid,
    # so a reply that calls it valid must be caught.
    problems = check_plan_reply(reply(["c2", "c1", "c3", "c5"]), COURSE_TASK,
                                world, frozenset(), 0)
    assert any("valid flag" in p and "c3 at slot 2" in p for p in problems)
    # The same plan reported as invalid with score 0 is a correct reply.
    assert check_plan_reply(reply(["c2", "c1", "c3", "c5"], valid=False),
                            COURSE_TASK, world, frozenset(), 0) == []


def test_closure_strikes_alternatives_and_cascades():
    world = World(COURSES)
    assert world.live({"c2"})["c4"].groups == (frozenset({"c3"}),)
    # Closing c1 empties c3's only group: c3 becomes unavailable, and c4
    # keeps c2 as its remaining alternative.
    live = world.live({"c1"})
    assert "c3" not in live and live["c4"].groups == (frozenset({"c2"}),)
    problems = check_plan_reply(reply(["c2", "c5", "c3", "c6"], version=1),
                                COURSE_TASK, world, frozenset({"c1"}), 1)
    assert any("c3 is unavailable" in p for p in problems)


def test_trip_over_its_time_budget_is_rejected():
    world = World(POIS)
    problems = check_plan_reply(reply(["p1", "p2", "p4"]), TRIP_TASK, world,
                                frozenset(), 0)
    assert any("over budget" in p for p in problems)
    assert check_plan_reply(reply(["p1", "p2", "p3"]), TRIP_TASK, world,
                            frozenset(), 0) == []


def test_shared_theme_next_to_each_other_is_rejected():
    task = TaskRecord(num_primary=1, num_secondary=1, credits=10.0, gap=1,
                      trip=True, theme_adjacency=True)
    problems = check_plan_reply(reply(["p1", "p4"]), task, World(POIS),
                                frozenset(), 0)
    assert any("share a theme" in p for p in problems)


def test_score_outside_its_range_is_rejected():
    world = World(COURSES)
    problems = check_plan_reply(reply(["c1", "c2", "c3", "c4"], score=4.5),
                                COURSE_TASK, world, frozenset(), 0)
    assert any("outside [0, 4]" in p for p in problems)


def test_replan_with_an_altered_prefix_is_rejected():
    world = World(COURSES)
    before = ["c1", "c2", "c5", "c6"]
    assert check_replan(before, 2, ["c1", "c2", "c3", "c6"], True, 4.0,
                        COURSE_TASK, world, frozenset({"c5"})) == []
    problems = check_replan(before, 2, ["c2", "c1", "c3", "c6"], True, 4.0,
                            COURSE_TASK, world, frozenset({"c5"}))
    assert any("executed prefix changed" in p for p in problems)


def test_replan_keeping_a_closed_suffix_item_is_rejected():
    world = World(COURSES)
    problems = check_replan(["c1", "c2", "c5", "c6"], 2, ["c1", "c2", "c5", "c6"],
                            True, 4.0, COURSE_TASK, world, frozenset({"c5"}))
    assert any("closed by an acked delta" in p for p in problems)


def test_recovered_version_off_by_one_is_rejected():
    assert check_recovery({"catalog_version": 3, "journal_seq": 3}, 3) == []
    problems = check_recovery({"catalog_version": 2, "journal_seq": 3}, 3)
    assert problems == ["recovered catalog_version 2 != 3 acked deltas"]


def test_stale_version_stamp_is_rejected():
    world = World(COURSES)
    problems = check_plan_reply(reply(["c1", "c2", "c3", "c4"], version=2),
                                COURSE_TASK, world, frozenset(), 3)
    assert any("catalog_version 2 != 3" in p for p in problems)
