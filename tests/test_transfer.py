"""Unit tests for cross-catalog policy transfer (repro.core.transfer)."""

import pytest

from repro.core.catalog import Catalog
from repro.core.exceptions import TransferError
from repro.core.qtable import QTable
from repro.core.transfer import (
    build_theme_mapping,
    transfer_by_id,
    transfer_by_theme,
    transfer_policy,
)

from conftest import make_item


@pytest.fixture
def source_catalog():
    return Catalog(
        [
            make_item("a", topics={"x"}),
            make_item("b", topics={"y"}),
            make_item("c", topics={"z"}),
        ],
        name="source",
    )


@pytest.fixture
def source_table(source_catalog):
    table = QTable(source_catalog)
    table.set("a", "b", 1.0)
    table.set("b", "c", 2.0)
    table.update_count = 2
    return table


class TestTransferById:
    def test_shared_entries_carry_over(self, source_table):
        target = Catalog(
            [make_item("a"), make_item("b"), make_item("z")],
            name="target",
        )
        result = transfer_by_id(source_table, target)
        assert result.qtable.get("a", "b") == 1.0
        assert result.report.entries_transferred == 1
        assert result.report.entries_total == 2
        assert result.report.entry_coverage == 0.5

    def test_transferred_table_counts_as_trained(self, source_table):
        target = Catalog([make_item("a"), make_item("b")], name="t")
        result = transfer_by_id(source_table, target)
        assert result.qtable.update_count > 0

    def test_disjoint_catalogs_transfer_nothing(self, source_table):
        target = Catalog([make_item("q"), make_item("r")], name="t")
        result = transfer_by_id(source_table, target)
        assert result.report.entries_transferred == 0
        assert result.qtable.update_count == 0


class TestThemeMapping:
    def test_exact_signature_match(self, source_catalog):
        target = Catalog(
            [
                make_item("a2", topics={"x"}),
                make_item("b2", topics={"y"}),
            ],
            name="target",
        )
        mapping = build_theme_mapping(source_catalog, target)
        assert mapping["a"] == ("a2",)
        assert mapping["b"] == ("b2",)

    def test_best_overlap_fallback(self):
        source = Catalog([make_item("s", topics={"x", "y"})])
        target = Catalog(
            [
                make_item("t1", topics={"x", "z"}),
                make_item("t2", topics={"w"}),
            ]
        )
        mapping = build_theme_mapping(source, target)
        assert mapping["s"] == ("t1",)

    def test_no_overlap_maps_to_nothing(self):
        source = Catalog([make_item("s", topics={"x"})])
        target = Catalog([make_item("t", topics={"w"})])
        assert build_theme_mapping(source, target)["s"] == ()


class TestTransferByTheme:
    def test_values_re_keyed_by_signature(self, source_table):
        target = Catalog(
            [
                make_item("a2", topics={"x"}),
                make_item("b2", topics={"y"}),
                make_item("c2", topics={"z"}),
            ],
            name="target",
        )
        result = transfer_by_theme(source_table, target)
        assert result.qtable.get("a2", "b2") == 1.0
        assert result.qtable.get("b2", "c2") == 2.0
        assert result.report.entries_transferred == 2

    def test_multi_match_averages(self):
        source = Catalog(
            [make_item("a", topics={"x"}), make_item("b", topics={"y"})]
        )
        table = QTable(source)
        table.set("a", "b", 4.0)
        target = Catalog(
            [
                make_item("a2", topics={"x"}),
                make_item("b2", topics={"y"}),
                make_item("b3", topics={"y"}),
            ]
        )
        result = transfer_by_theme(table, target)
        assert result.qtable.get("a2", "b2") == 4.0
        assert result.qtable.get("a2", "b3") == 4.0


class TestTransferPolicy:
    def test_auto_uses_id_when_shared(self, source_table):
        target = Catalog([make_item("a"), make_item("b")], name="t")
        result = transfer_policy(source_table, target, strategy="auto")
        assert result.qtable.get("a", "b") == 1.0

    def test_auto_falls_back_to_theme(self, source_table):
        target = Catalog(
            [
                make_item("a2", topics={"x"}),
                make_item("b2", topics={"y"}),
            ],
            name="t",
        )
        result = transfer_policy(source_table, target, strategy="auto")
        assert result.qtable.get("a2", "b2") == 1.0

    def test_unknown_strategy_rejected(self, source_table):
        target = Catalog([make_item("a")], name="t")
        with pytest.raises(TransferError):
            transfer_policy(source_table, target, strategy="nope")
