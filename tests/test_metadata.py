"""Unit tests for extraction metadata and row patterns."""

import pytest

from repro.core.scenarios import cash_budget_metadata
from repro.wrapping.metadata import (
    AttributeSource,
    ClassificationInfo,
    DomainDescription,
    HierarchyGraph,
    MetadataError,
)
from repro.wrapping.patterns import (
    LexicalCell,
    RowPattern,
    StandardCell,
    StandardDomain,
)


class TestDomainDescription:
    def test_membership(self):
        domain = DomainDescription("Section", ["Receipts", "Balance"])
        assert "Receipts" in domain
        assert "Other" not in domain

    def test_empty_rejected(self):
        with pytest.raises(MetadataError):
            DomainDescription("Empty", [])

    def test_sorted_items(self):
        domain = DomainDescription("D", ["b", "A", "a"])
        assert list(domain.lexicon) == ["A", "a", "b"]
        assert domain.lexicon.lowered == ("a", "a", "b")
        assert domain.lexicon.exact == {"a": "A", "b": "b"}


class TestHierarchyGraph:
    def test_direct_specialization(self):
        graph = HierarchyGraph([("cash sales", "Receipts")])
        assert graph.is_specialization("cash sales", "Receipts")
        assert not graph.is_specialization("Receipts", "cash sales")

    def test_transitive_specialization(self):
        graph = HierarchyGraph([("a", "b"), ("b", "c")])
        assert graph.is_specialization("a", "c")

    def test_cycle_safe(self):
        graph = HierarchyGraph([("a", "b"), ("b", "a")])
        assert not graph.is_specialization("a", "zzz")

    def test_self_edge_rejected(self):
        with pytest.raises(MetadataError):
            HierarchyGraph([("a", "a")])

    def test_figure6_edges(self):
        metadata = cash_budget_metadata()
        graph = metadata.hierarchy
        assert graph.is_specialization("beginning cash", "Receipts")
        assert graph.is_specialization("payment of accounts", "Disbursements")
        assert graph.is_specialization("net cash inflow", "Balance")
        assert not graph.is_specialization("cash sales", "Disbursements")

    def test_len_counts_edges(self):
        assert len(HierarchyGraph([("a", "b"), ("a", "c")])) == 2


class TestClassification:
    def test_classify(self):
        info = ClassificationInfo("role", {"cash sales": "det"})
        assert info.classify("cash sales") == "det"

    def test_unknown_item_raises(self):
        info = ClassificationInfo("role", {})
        with pytest.raises(MetadataError):
            info.classify("nope")


class TestAttributeSource:
    def test_requires_exactly_one_source(self):
        with pytest.raises(MetadataError):
            AttributeSource()  # neither
        with pytest.raises(MetadataError):
            AttributeSource(
                headline="x", classify_attribute="y", classification="z"
            )  # both

    def test_valid_forms(self):
        AttributeSource(headline="Year")
        AttributeSource(classify_attribute="Subsection", classification="role")


class TestRowPattern:
    def test_headline_labels(self):
        pattern = RowPattern(
            "p",
            [
                StandardCell(StandardDomain.INTEGER, headline="Year"),
                LexicalCell("Section"),
                StandardCell(StandardDomain.INTEGER, headline="Value"),
            ],
        )
        assert pattern.headline_labels() == ["Year", "Value"]
        assert pattern.arity == 3

    def test_duplicate_headline_rejected(self):
        with pytest.raises(MetadataError):
            RowPattern(
                "p",
                [
                    StandardCell(StandardDomain.INTEGER, headline="V"),
                    StandardCell(StandardDomain.INTEGER, headline="V"),
                ],
            )

    def test_empty_pattern_rejected(self):
        with pytest.raises(MetadataError):
            RowPattern("p", [])

    def test_hierarchy_reference_validated(self):
        with pytest.raises(MetadataError):
            RowPattern("p", [LexicalCell("D", specialization_of=5)])
        with pytest.raises(MetadataError):
            RowPattern("p", [LexicalCell("D", specialization_of=0)])  # self

    def test_hierarchy_must_point_at_lexical_cell(self):
        with pytest.raises(MetadataError):
            RowPattern(
                "p",
                [
                    StandardCell(StandardDomain.INTEGER),
                    LexicalCell("D", specialization_of=0),
                ],
            )


class TestExtractionMetadataValidation:
    def test_running_example_metadata_valid(self):
        metadata = cash_budget_metadata()
        assert set(metadata.domains) == {"Section", "Subsection"}
        assert metadata.mapping.relation == "CashBudget"

    def test_unknown_headline_in_mapping_rejected(self):
        metadata = cash_budget_metadata()
        from repro.wrapping.metadata import ExtractionMetadata, RelationalMapping

        bad_mapping = RelationalMapping(
            "CashBudget",
            {
                **metadata.mapping.sources,
                "Value": AttributeSource(headline="NotAHeadline"),
            },
        )
        with pytest.raises(MetadataError):
            ExtractionMetadata(
                domains=metadata.domains,
                hierarchy=metadata.hierarchy,
                classifications=metadata.classifications,
                row_patterns=metadata.row_patterns,
                mapping=bad_mapping,
                schema=metadata.schema,
            )

    def test_unpopulated_attribute_rejected(self):
        metadata = cash_budget_metadata()
        from repro.wrapping.metadata import ExtractionMetadata, RelationalMapping

        partial = RelationalMapping(
            "CashBudget", {"Year": AttributeSource(headline="Year")}
        )
        with pytest.raises(MetadataError):
            ExtractionMetadata(
                domains=metadata.domains,
                hierarchy=metadata.hierarchy,
                classifications=metadata.classifications,
                row_patterns=metadata.row_patterns,
                mapping=partial,
                schema=metadata.schema,
            )

    def test_unknown_domain_lookup(self):
        metadata = cash_budget_metadata()
        with pytest.raises(MetadataError):
            metadata.domain("NoSuchDomain")
