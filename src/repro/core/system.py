"""DART: the end-to-end system (Figures 2 and 5).

:class:`DartSystem` wires the macro-modules together:

1. **Acquisition module** -- converts the input document to HTML; for
   paper documents the OCR channel injects recognition errors;
2. **Data extraction module** -- the wrapper matches table rows to row
   patterns (repairing misspelled strings via msi binding) and the
   database generator produces the instance ``D``;
3. **Repairing module** -- detects inconsistencies of ``D`` w.r.t. the
   steady aggregate constraints and computes a card-minimal repair via
   the MILP translation;
4. **Validation interface** -- the operator reviews suggested updates
   (simulated by an :class:`~repro.repair.interactive.OracleOperator`
   against the source document's ground truth), pins become new
   constraints, and the loop re-solves until acceptance.

:class:`AcquisitionSession` exposes every intermediate artefact, so
the benches can measure each stage in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.acquisition.conversion import AcquisitionModule, AcquisitionResult
from repro.acquisition.documents import Document
from repro.acquisition.ocr import OcrChannel
from repro.constraints.constraint import AggregateConstraint
from repro.constraints.grounding import Violation
from repro.core.scenarios import Scenario
from repro.milp.cache import SolveCache
from repro.milp.solver import DEFAULT_BACKEND, SolveStats
from repro.relational.database import Database
from repro.repair.engine import RepairEngine, RepairOutcome
from repro.repair.translation import RepairObjective
from repro.repair.interactive import (
    Operator,
    OracleOperator,
    ValidationLoop,
    ValidationSession,
)
from repro.repair.updates import Repair
from repro.wrapping.dbgen import DatabaseGenerator, GenerationReport
from repro.wrapping.matching import TNorm
from repro.wrapping.wrapper import Wrapper, WrapperReport


@dataclass
class AcquisitionSession:
    """Everything DART produced while processing one document."""

    #: stage 1: acquisition (HTML + OCR provenance)
    acquisition: AcquisitionResult
    #: stage 2a: wrapper output
    wrapping: WrapperReport
    #: stage 2b: the acquired database instance D
    generation: GenerationReport
    #: stage 3: violations detected in D
    violations: List[Violation]
    #: stage 3: the first proposed card-minimal repair (None if D |= AC)
    proposed_repair: Optional[Repair]
    #: stage 4: the supervised validation outcome (None if not run)
    validation: Optional[ValidationSession]
    #: the final database (validated repair applied when available,
    #: else the first proposal, else D itself)
    final_database: Database
    #: one record per MILP solve the repairing module issued
    solve_stats: List[SolveStats] = field(default_factory=list)

    @property
    def acquired_database(self) -> Database:
        return self.generation.database

    @property
    def was_consistent(self) -> bool:
        return not self.violations

    @property
    def iterations(self) -> int:
        return self.validation.iterations if self.validation else (
            0 if self.was_consistent else 1
        )

    @property
    def values_inspected(self) -> int:
        return self.validation.values_inspected if self.validation else 0

    def save(self, directory) -> None:
        """Persist the session's artefacts for audit.

        Writes into *directory*: ``acquired.html`` (what the OCR/
        converter produced), ``acquired/`` and ``final/`` (CSV dumps of
        the extracted and the validated instance), ``violations.txt``,
        ``repair.txt`` (the first proposal) and ``transcript.txt`` (the
        operator session), as applicable.
        """
        from pathlib import Path

        from repro.relational.csvio import dump_database

        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        (root / "acquired.html").write_text(self.acquisition.html, encoding="utf-8")
        dump_database(self.acquired_database, root / "acquired")
        dump_database(self.final_database, root / "final")
        (root / "violations.txt").write_text(
            "\n".join(str(v) for v in self.violations) + ("\n" if self.violations else ""),
            encoding="utf-8",
        )
        if self.proposed_repair is not None:
            (root / "repair.txt").write_text(
                str(self.proposed_repair) + "\n", encoding="utf-8"
            )
        if self.validation is not None:
            (root / "transcript.txt").write_text(
                self.validation.render_transcript() + "\n", encoding="utf-8"
            )


class DartSystem:
    """The assembled DART pipeline for one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        ocr_channel: Optional[OcrChannel] = None,
        t_norm: TNorm = TNorm.PRODUCT,
        backend: str = DEFAULT_BACKEND,
        use_confidence_weights: bool = False,
        solve_cache: Optional[SolveCache] = None,
    ) -> None:
        """With ``use_confidence_weights`` the repairing module runs the
        weighted-cardinality objective, weighting each measure cell by
        the wrapper's matching score for the cell it was extracted from
        -- a low-confidence acquisition is cheaper to repair.  This is
        an extension beyond the paper (which always uses plain
        card-minimality); the A4 ablation bench measures its effect."""
        self.scenario = scenario
        self.acquisition_module = AcquisitionModule(ocr_channel)
        self.wrapper = Wrapper(scenario.metadata, t_norm=t_norm)
        self.generator = DatabaseGenerator(scenario.metadata)
        self.backend = backend
        self.use_confidence_weights = use_confidence_weights
        self.solve_cache = solve_cache

    def _confidence_weights(self, wrapping, generation):
        """Per-cell repair weights from the wrapper's matching scores.

        The i-th *inserted* instance produced tuple id i (skipped rows
        insert nothing).  A measure attribute sourced from headline H
        inherits the matching score of the cell carrying H, floored at
        0.05 so weights stay positive.
        """
        metadata = self.scenario.metadata
        mapping = metadata.mapping
        relation = mapping.relation
        measure_names = set(metadata.schema.measures_of(relation))
        skipped = set(id(instance) for instance in generation.skipped)
        weights = {}
        tuple_id = 0
        for instance in wrapping.instances:
            if id(instance) in skipped:
                continue
            score_by_headline = {
                cell.headline: cell.score
                for cell in instance.cells
                if cell.headline
            }
            for attribute, source in mapping.sources.items():
                if attribute not in measure_names or source.headline is None:
                    continue
                score = score_by_headline.get(source.headline, 1.0)
                weights[(relation, tuple_id, attribute)] = max(score, 0.05)
            tuple_id += 1
        return weights

    def process(
        self,
        document: Optional[Document] = None,
        *,
        operator: Optional[Operator] = None,
        interactive: bool = True,
    ) -> AcquisitionSession:
        """Process *document* (default: the scenario's document).

        With ``interactive`` (and an *operator*, defaulting to an
        oracle over the scenario's ground truth) the full validation
        loop runs; otherwise the first card-minimal repair is applied
        unsupervised.
        """
        source = document if document is not None else self.scenario.document

        acquisition = self.acquisition_module.acquire(source)
        wrapping = self.wrapper.wrap_html(acquisition.html)
        generation = self.generator.generate(wrapping.instances, skip_failures=True)
        database = generation.database

        engine_options = {}
        if self.use_confidence_weights:
            engine_options["objective"] = RepairObjective.WEIGHTED_CARDINALITY
            engine_options["weights"] = self._confidence_weights(
                wrapping, generation
            )
        engine = RepairEngine(
            database,
            self.scenario.constraints,
            backend=self.backend,
            solve_cache=self.solve_cache,
            **engine_options,
        )
        violations = engine.violations()
        if not violations:
            return AcquisitionSession(
                acquisition=acquisition,
                wrapping=wrapping,
                generation=generation,
                violations=[],
                proposed_repair=None,
                validation=None,
                final_database=database,
                solve_stats=engine.solve_stats,
            )

        outcome = engine.find_card_minimal_repair()
        if not interactive:
            return AcquisitionSession(
                acquisition=acquisition,
                wrapping=wrapping,
                generation=generation,
                violations=violations,
                proposed_repair=outcome.repair,
                validation=None,
                final_database=engine.apply(outcome.repair),
                solve_stats=engine.solve_stats,
            )

        reviewer = operator or OracleOperator(
            self.scenario.ground_truth, acquired=database
        )
        loop = ValidationLoop(engine, reviewer)
        validation = loop.run(first=outcome)
        return AcquisitionSession(
            acquisition=acquisition,
            wrapping=wrapping,
            generation=generation,
            violations=violations,
            proposed_repair=outcome.repair,
            validation=validation,
            final_database=validation.repaired_database,
            solve_stats=engine.solve_stats,
        )
