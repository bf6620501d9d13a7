"""Extraction metadata (Section 6.2).

The acquisition designer records, per application context:

- *domain descriptions*: named lexical domains (``Section``,
  ``Subsection``, ...) with their lexical items;
- *hierarchical relationships*: specialisation edges between lexical
  items of different domains (Figure 6: "beginning cash" -> "Receipts");
- *classification information*: the role of each lexical item in the
  aggregate constraints (``det`` / ``aggr`` / ``drv`` in the running
  example);
- the *relational mapping*: how row-pattern headline labels and
  classification outputs populate the attributes of the target
  relational scheme;
- the *row patterns* themselves (defined in
  :mod:`repro.wrapping.patterns`).

:class:`ExtractionMetadata` bundles it all and is the single object
the wrapper and the database generator consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple as PyTuple

from repro.relational.schema import DatabaseSchema
from repro.wrapping.matching import Lexicon


class MetadataError(ValueError):
    """Raised for inconsistent extraction metadata."""


@dataclass(frozen=True)
class DomainDescription:
    """A named lexical domain and its items."""

    name: str
    items: FrozenSet[str]
    #: the items sorted and lower-cased once, for the wrapper's msi search
    lexicon: Lexicon = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, items: Iterable[str]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "items", frozenset(items))
        if not self.items:
            raise MetadataError(f"lexical domain {name!r} has no items")
        object.__setattr__(self, "lexicon", Lexicon(self.items))

    def __contains__(self, text: str) -> bool:
        return text in self.items


class HierarchyGraph:
    """Specialisation edges between lexical items (Figure 6).

    ``add(child, parent)`` records "*child* is a specialisation of
    *parent*"; :meth:`is_specialization` answers reachability queries
    (transitively), which is what row-pattern hierarchy requirements
    check.
    """

    def __init__(self, edges: Iterable[PyTuple[str, str]] = ()) -> None:
        self._parents: Dict[str, Set[str]] = {}
        for child, parent in edges:
            self.add(child, parent)

    def add(self, child: str, parent: str) -> None:
        if child == parent:
            raise MetadataError(f"item {child!r} cannot specialise itself")
        self._parents.setdefault(child, set()).add(parent)

    def parents_of(self, item: str) -> Set[str]:
        return set(self._parents.get(item, ()))

    def is_specialization(self, child: str, ancestor: str) -> bool:
        """Transitive specialisation check (cycle-safe)."""
        frontier = [child]
        visited: Set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in visited:
                continue
            visited.add(current)
            for parent in self._parents.get(current, ()):
                if parent == ancestor:
                    return True
                frontier.append(parent)
        return False

    def items(self) -> Set[str]:
        all_items: Set[str] = set(self._parents)
        for parents in self._parents.values():
            all_items |= parents
        return all_items

    def __len__(self) -> int:
        return sum(len(parents) for parents in self._parents.values())


@dataclass(frozen=True)
class ClassificationInfo:
    """Lexical item -> class (e.g. subsection -> det/aggr/drv)."""

    name: str
    classes: Mapping[str, str]

    def __init__(self, name: str, classes: Mapping[str, str]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "classes", dict(classes))

    def classify(self, item: str) -> str:
        try:
            return self.classes[item]
        except KeyError:
            raise MetadataError(
                f"classification {self.name!r} has no class for item {item!r}"
            ) from None


@dataclass(frozen=True)
class TableSelector:
    """Selects which tables of a document the wrapper should process.

    ``indices`` whitelists 0-based table positions; ``caption_pattern``
    is a regular expression matched (search) against table captions.
    When both are given, a table qualifies if it matches *either* --
    positions cover caption-less tables, the pattern covers documents
    whose table count varies.
    """

    indices: Optional[FrozenSet[int]] = None
    caption_pattern: Optional[str] = None

    def __init__(
        self,
        indices: Optional[Iterable[int]] = None,
        caption_pattern: Optional[str] = None,
    ) -> None:
        object.__setattr__(
            self, "indices", frozenset(indices) if indices is not None else None
        )
        object.__setattr__(self, "caption_pattern", caption_pattern)
        if self.indices is None and self.caption_pattern is None:
            raise MetadataError(
                "TableSelector needs indices and/or a caption pattern"
            )
        if self.caption_pattern is not None:
            import re

            try:
                re.compile(self.caption_pattern)
            except re.error as exc:
                raise MetadataError(
                    f"invalid caption pattern {self.caption_pattern!r}: {exc}"
                ) from exc

    def selects(self, index: int, caption: Optional[str]) -> bool:
        if self.indices is not None and index in self.indices:
            return True
        if self.caption_pattern is not None and caption:
            import re

            return re.search(self.caption_pattern, caption) is not None
        return False


@dataclass(frozen=True)
class AttributeSource:
    """Where one attribute of the target relation comes from.

    Exactly one of:

    - ``headline``: the row-pattern cell carrying this headline label;
    - ``classify_attribute`` + ``classification``: apply a
      classification to the value extracted for another attribute.
    """

    headline: Optional[str] = None
    classify_attribute: Optional[str] = None
    classification: Optional[str] = None

    def __post_init__(self) -> None:
        from_headline = self.headline is not None
        from_classification = (
            self.classify_attribute is not None and self.classification is not None
        )
        if from_headline == from_classification:
            raise MetadataError(
                "attribute source must be either a headline label or a "
                "classification of another attribute"
            )


@dataclass(frozen=True)
class RelationalMapping:
    """Target relation + per-attribute sources."""

    relation: str
    sources: Mapping[str, AttributeSource]

    def __init__(self, relation: str, sources: Mapping[str, AttributeSource]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "sources", dict(sources))


@dataclass
class ExtractionMetadata:
    """Everything the extraction module needs for one document class."""

    domains: Dict[str, DomainDescription]
    hierarchy: HierarchyGraph
    classifications: Dict[str, ClassificationInfo]
    row_patterns: List["RowPattern"]  # noqa: F821 (import cycle; see patterns.py)
    mapping: RelationalMapping
    schema: DatabaseSchema
    #: rows scoring below this against every pattern are not extracted
    #: (headers, separators, noise rows)
    match_threshold: float = 0.5
    #: which tables of the document hold the data ("the position inside
    #: the document is specified inside the extraction metadata",
    #: Section 6.2).  ``None`` selects every table; otherwise a
    #: :class:`TableSelector` filters by index and/or caption pattern.
    table_selector: Optional["TableSelector"] = None

    def __post_init__(self) -> None:
        if not self.row_patterns:
            raise MetadataError("extraction metadata needs at least one row pattern")
        relation_schema = self.schema.relation(self.mapping.relation)
        headline_labels = {
            label
            for pattern in self.row_patterns
            for label in pattern.headline_labels()
        }
        for attribute, source in self.mapping.sources.items():
            relation_schema.attribute(attribute)  # raises if unknown
            if source.headline is not None and source.headline not in headline_labels:
                raise MetadataError(
                    f"attribute {attribute!r} maps to headline "
                    f"{source.headline!r}, which no row pattern provides"
                )
            if source.classification is not None:
                if source.classification not in self.classifications:
                    raise MetadataError(
                        f"attribute {attribute!r} uses unknown classification "
                        f"{source.classification!r}"
                    )
        missing = set(relation_schema.attribute_names) - set(self.mapping.sources)
        if missing:
            raise MetadataError(
                f"relational mapping leaves attributes {sorted(missing)} of "
                f"{self.mapping.relation!r} unpopulated"
            )

    def domain(self, name: str) -> DomainDescription:
        try:
            return self.domains[name]
        except KeyError:
            raise MetadataError(f"unknown lexical domain {name!r}") from None
