"""The three workloads: inputs from a seed, the timed calls, the output checks.

Every workload is a closed loop with one client in one process: the
next document is sent only after the previous one has been answered.
A workload instance owns its inputs; :meth:`Workload.setup` rebuilds
them from scratch (data generation, warm-up, store pre-population), so
the runner can time several set-ups and report the median.

The timed part of a document is only the call into the program's public
entry point (:meth:`Workload.execute`).  Preparing an input and checking
an output happen outside it.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.acquisition import OcrChannel
from repro.acquisition.ocr import inject_value_errors
from repro.core import DartSystem, balance_sheet_scenario
from repro.datasets import generate_balance_sheet, generate_cash_budget
from repro.diagnostics import OverloadedError
from repro.repair import RepairEngine
from repro.repair.batch import RepairTask
from repro.repair.service import RepairService, ServiceConfig

#: ``sheets``: (depth, branching) of each balance sheet of a round.  The
#: two larger shapes come twice, so the median falls among the (3, 2)
#: sheets and the tail percentile (p80 or p90) among the (3, 3) ones,
#: not on the edge between two shapes.
SHEET_SHAPES: Tuple[Tuple[int, int], ...] = (
    (2, 2), (2, 3), (3, 2), (3, 2), (3, 3), (3, 3),
)
#: ``sheets``: OCR channel noise, as in the E8 bench, then cut back to
#: DART's error model (``within_error_model``).
SHEET_NOISE = dict(numeric_error_rate=0.04, string_error_rate=0.04)
#: ``sheets``: misread values a sheet keeps, at most.  Card-minimal
#: repair is NP-hard and its branch-and-bound time climbs steeply with
#: the errors: a (3, 3) sheet with 14 misread values took 70 s (95,162
#: nodes, solved twice), while 17 with 9 to 13 took at most 3.3 s.  One
#: such sheet can hold a whole run past its time limit yet moves no
#: reported figure, which are medians.  Ten is about twice the mean of
#: a (3, 3) sheet (4.8), and cuts the noise of about 2% of them.
SHEET_MAX_MISREAD_VALUES = 10


def similarity(a: str, b: str) -> float:
    """The paper's string similarity, ``1 - d(a, b) / (|a| + |b|)`` with
    ``d`` the Levenshtein distance, case-blind as the msi compares."""
    a, b = a.lower(), b.lower()
    if a == b:
        return 1.0
    previous = list(range(len(b) + 1))
    for i, left in enumerate(a, 1):
        current = [i]
        for j, right in enumerate(b, 1):
            current.append(min(
                previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (left != right)
            ))
        previous = current
    return 1.0 - previous[-1] / (len(a) + len(b))


def within_error_model(scenario: Any, noisy: Any) -> Tuple[Any, int]:
    """*noisy* cut back to the misreadings DART is built to repair, and
    the number of cells read back as in the clean document.

    DART binds a misread lexical cell to the most similar dictionary
    item (msi), drops a row whose pattern score falls below the
    metadata's match threshold, and repairs misread measure values
    under the constraints, with the operator validating every change;
    a repair never inserts a tuple.  Three kinds of misreading are
    outside that model, so no part of DART could undo them, and are
    read back as in the clean document:

    - a multi-row cell (the balance sheet's Company and Year, the
      identification part of every key): it has neither a dictionary
      nor a constraint;
    - the string noise of a row whose score falls below the threshold
      even when every lexical cell is bound to its true item: DART drops
      that row by design, and the tuple is lost;
    - misread values that cancel out: a set of them that leaves every
      constraint satisfied is invisible to any constraint-based repair
      (see ``invisible_errors``).

    A sheet also keeps at most :data:`SHEET_MAX_MISREAD_VALUES` misread
    values, the first in document order; that bounds run time, not the
    error model.

    Every other misreading is kept, so a wrong msi binding still shows.
    The noise itself is drawn as if every cell had been read, so the
    kept misreadings do not depend on which were taken back.
    """
    threshold = scenario.metadata.match_threshold
    tables = []
    reverted = 0
    for clean_table, noisy_table in zip(scenario.document.tables, noisy.tables):
        rows = [list(row.cells) for row in noisy_table.rows]
        clean_rows = [row.cells for row in clean_table.rows]
        for clean_row, cells in zip(clean_rows, rows):
            # Item, Parent and Kind: the three lexical cells before Value.
            lexical = range(len(cells) - 4, len(cells) - 1)
            score = 1.0
            for index in lexical:
                score *= similarity(cells[index].text, clean_row[index].text)
            for index, clean_cell in enumerate(clean_row):
                if cells[index].text != clean_cell.text and (
                    clean_cell.rowspan > 1 or (score < threshold and index in lexical)
                ):
                    cells[index] = clean_cell
                    reverted += 1
        misread = [
            row_index for row_index, cells in enumerate(rows)
            if cells[-1].text != clean_rows[row_index][-1].text
        ]
        for row_index in misread[SHEET_MAX_MISREAD_VALUES:]:
            rows[row_index][-1] = clean_rows[row_index][-1]
            reverted += 1
        for row_index in invisible_errors(clean_rows, rows):
            rows[row_index][-1] = clean_rows[row_index][-1]
            reverted += 1
        tables.append(type(noisy_table)(
            [type(row)(cells) for row, cells in zip(noisy_table.rows, rows)],
            caption=noisy_table.caption,
        ))
    return noisy.with_tables(tables), reverted


def invisible_errors(clean_rows: Sequence[Any], rows: Sequence[Any]) -> List[int]:
    """Rows of one balance sheet whose misread Value to take back so that
    no set of the remaining misread values cancels out.

    The constraints are the balance sheet's: every internal item equals
    the sum of its children, and assets = liabilities + equity.  The
    validation loop ends on a consistent database whose every changed
    cell the operator confirmed, so the values it leaves misread are a
    set whose errors satisfy every constraint.  When no non-empty set of
    misread values does, the loop recovers the sheet.  The smallest such
    set loses its last value, until none is left.
    """
    parent: Dict[str, str] = {}
    item_row: Dict[str, int] = {}
    for row_index, cells in enumerate(clean_rows):
        item, up = cells[-4].text, cells[-3].text
        parent[item] = up
        item_row[item] = row_index
    internal = set(parent.values()) & set(item_row)
    error = {
        item: int(rows[row_index][-1].text) - int(clean_rows[row_index][-1].text)
        for item, row_index in item_row.items()
        if rows[row_index][-1].text != clean_rows[row_index][-1].text
    }

    def residuals(items: Sequence[str]) -> Dict[str, int]:
        # Constraint "internal p": sum of p's children minus p; constraint
        # "=": assets - liabilities - equity.
        total: Dict[str, int] = {}
        for item in items:
            delta = error[item]
            total[item] = total.get(item, 0) - delta
            total[parent[item]] = total.get(parent[item], 0) + delta
            sign = {"assets": 1, "liabilities": -1, "equity": -1}.get(item)
            if sign is not None:
                total["="] = total.get("=", 0) + sign * delta
        # Only internal items head a constraint (not a leaf, not the
        # roots' "<root>").
        return {
            name: value for name, value in total.items()
            if value and (name == "=" or name in internal)
        }

    taken_back: List[int] = []
    while True:
        order = sorted(error, key=item_row.__getitem__)
        cancelling = next(
            (
                subset
                for size in range(1, len(order) + 1)
                for subset in itertools.combinations(order, size)
                if not residuals(subset)
            ),
            None,
        )
        if cancelling is None:
            return taken_back
        last = cancelling[-1]
        taken_back.append(item_row[last])
        del error[last]


#: ``budgets``: the years of the cash budgets of one round (in a seeded
#: order).  The largest size comes twice, so a quarter of the documents
#: are 32-year budgets and the tail percentile (p80 or p90, by the
#: count) falls among them.
BUDGET_YEARS: Tuple[int, ...] = (8, 12, 16, 20, 24, 28, 32, 32)
#: ``budgets``: years per injected value error.
BUDGET_YEARS_PER_ERROR = 4

#: ``service``: the years of the small cash budgets the client submits.
SERVICE_YEARS: Tuple[int, ...] = (2, 3, 4)
#: ``service``: entries of the service's in-memory LRU tier (half the
#: catalogue, so catalogue repeats split between the two tiers).
SERVICE_MEMORY_TIER = 32
#: ``service``: documents solved into the store during set-up.
SERVICE_CATALOGUE = 64
#: ``service``: recent repeats pick uniformly among this many most recent
#: distinct documents; a quarter of the memory tier, so they are memory
#: hits by construction.
SERVICE_RECENT_WINDOW = SERVICE_MEMORY_TIER // 4
#: ``service``: Zipf exponent of catalogue popularity.  Breslau et al.,
#: "Web Caching and Zipf-like Distributions: Evidence and Implications"
#: (IEEE INFOCOM 1999), fit 0.64 to 0.83 on web proxy request traces.
#: The request kinds themselves (new, recent repeat, catalogue repeat)
#: come in equal shares: an assumption, for no trace of this service's
#: use exists to weigh them.
SERVICE_ZIPF = 0.8


def derive_seed(seed: int, *parts: object) -> int:
    """A sub-seed that depends only on *seed* and *parts*."""
    return random.Random(repr((seed,) + parts)).getrandbits(31)


def canonical_repair(repair: Any) -> Tuple:
    return tuple(
        sorted(
            (u.relation, u.tuple_id, u.attribute, u.old_value, u.new_value)
            for u in repair
        )
    )


class Workload:
    """One workload: inputs, timed calls, output checks."""

    name = ""
    #: documents per round; a run only stops between rounds, so every
    #: run sees the input mix in the same proportions.
    round_size = 1
    #: rounds a timed run completes even when its time is up.  They fix
    #: the workload's tail percentile: the highest with at least ten
    #: samples beyond it in a run of this many rounds.
    min_rounds = 0
    #: the layers (see ``tracing.LAYERS``) whose spans this workload
    #: must fire; every other layer must stay silent.
    layers: frozenset = frozenset()
    #: the last set-up's warm-up document: ``None`` when there was none,
    #: ``""`` when it checked out, else what went wrong
    warm_up_result: Optional[str] = None

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.seed = 0

    def setup(self, seed: int) -> None:
        """Generate the inputs and warm the process up."""
        raise NotImplementedError

    def start_pass(self) -> None:
        """Fresh per-pass state; every pass sees the same start."""

    def prepare(self, index: int) -> Any:
        """The input of document *index* (untimed)."""
        raise NotImplementedError

    def execute(self, item: Any) -> Any:
        """The timed calls into the program."""
        raise NotImplementedError

    def warm_up(self, item: Any) -> None:
        """Run *item* once, untimed, and check it like any document."""
        try:
            output = self.execute(item)
        except Exception as error:  # counted as a failed document
            self.warm_up_result = f"warm-up raised {type(error).__name__}: {error}"
        else:
            message = self.check(item, output)
            self.warm_up_result = f"warm-up: {message}" if message else ""

    def check(self, item: Any, result: Any) -> Optional[str]:
        """``None`` when *result* is right, else what is wrong."""
        raise NotImplementedError

    def doc_stats(self, item: Any, result: Any) -> Dict[str, float]:
        """Per-document counts, summed over a pass and reported per doc."""
        return {}

    def finish_pass(self) -> List[str]:
        """End-of-pass checks; releases the pass's resources."""
        return []

    def pass_stats(self) -> Dict[str, float]:
        """Counts of the last pass that only the workload can see."""
        return {}

    def close(self) -> None:
        """Release everything set-up created."""


# ---------------------------------------------------------------------------
# sheets: the whole DART pipeline on hierarchical balance sheets
# ---------------------------------------------------------------------------


@dataclass
class SheetInput:
    ground_truth: Any
    scenario: Any
    #: the balance sheet as the OCR tool read it
    document: Any
    #: cells read back as in the clean document (see ``within_error_model``)
    reverted_cells: int


class SheetsWorkload(Workload):
    """E8 balance sheets through ``DartSystem.process`` with an oracle."""

    name = "sheets"
    round_size = len(SHEET_SHAPES)
    min_rounds = 9
    pool_size = 20 * len(SHEET_SHAPES)
    warm_shape = (3, 2)
    layers = frozenset({
        "system", "acquisition", "wrapping", "dbgen", "interactive", "engine",
        "grounding", "translation", "milp.entry", "milp.solve", "milp.certify",
    })

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.pool: List[SheetInput] = []
        self._extend(self.pool_size)
        self.warm_up(self._make(-1, self.warm_shape))

    def _make(self, index: int, shape: Tuple[int, int]) -> SheetInput:
        doc_seed = derive_seed(self.seed, self.name, index)
        depth, branching = shape
        workload = generate_balance_sheet(
            depth=depth, branching=branching, seed=doc_seed
        )
        scenario = balance_sheet_scenario(workload)
        channel = OcrChannel(seed=doc_seed, **SHEET_NOISE)
        noisy, _ = channel.corrupt_document(scenario.document)
        document, reverted = within_error_model(scenario, noisy)
        return SheetInput(workload.ground_truth, scenario, document, reverted)

    def _extend(self, size: int) -> None:
        for index in range(len(self.pool), size):
            self.pool.append(
                self._make(index, SHEET_SHAPES[index % len(SHEET_SHAPES)])
            )

    def prepare(self, index: int) -> SheetInput:
        self._extend(index + 1)
        return self.pool[index]

    def execute(self, item: SheetInput) -> Any:
        # The document already carries its OCR noise; the acquisition
        # module's own channel is silent so it is not applied twice.
        silent = OcrChannel(numeric_error_rate=0.0, string_error_rate=0.0)
        return DartSystem(item.scenario, ocr_channel=silent).process(item.document)

    def check(self, item: SheetInput, session: Any) -> Optional[str]:
        uncertified = [s for s in session.solve_stats if s.status == "optimal"
                       and s.certified is not True]
        if uncertified:
            return f"{len(uncertified)} repair solve(s) not certified"
        if session.final_database != item.ground_truth:
            return "final database differs from the ground truth"
        return None

    def doc_stats(self, item: SheetInput, session: Any) -> Dict[str, float]:
        return {
            "inspections_per_doc": float(session.values_inspected),
            "recovered_frac": float(session.final_database == item.ground_truth),
            "reverted_cells_per_doc": float(item.reverted_cells),
        }


# ---------------------------------------------------------------------------
# budgets: unsupervised repair of tabular cash budgets
# ---------------------------------------------------------------------------


@dataclass
class BudgetInput:
    years: int
    database: Any
    constraints: Sequence[Any]
    injected: int


class BudgetsWorkload(Workload):
    """Cash budgets repaired by ``RepairEngine.find_card_minimal_repair``."""

    name = "budgets"
    years = BUDGET_YEARS
    min_rounds = 13
    pool_size = 40 * len(BUDGET_YEARS)
    warm_years = 16
    layers = frozenset({
        "engine", "grounding", "translation", "milp.entry", "milp.solve",
        "milp.certify",
    })

    @property
    def round_size(self) -> int:
        return len(self.years)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.pool: List[BudgetInput] = []
        self._extend(self.pool_size)
        self.warm_up(self._make(-1, self.warm_years))

    def _make(self, index: int, years: int) -> BudgetInput:
        doc_seed = derive_seed(self.seed, self.name, index)
        workload = generate_cash_budget(n_years=years, seed=doc_seed)
        corrupted, injected = inject_value_errors(
            workload.ground_truth, years // BUDGET_YEARS_PER_ERROR, seed=doc_seed
        )
        return BudgetInput(years, corrupted, workload.constraints, len(injected))

    def _extend(self, size: int) -> None:
        for index in range(len(self.pool), size):
            round_number, position = divmod(index, len(self.years))
            order = random.Random(
                derive_seed(self.seed, self.name, "round", round_number)
            ).sample(self.years, len(self.years))
            self.pool.append(self._make(index, order[position]))

    def prepare(self, index: int) -> BudgetInput:
        self._extend(index + 1)
        source = self.pool[index]
        return dataclasses.replace(source, database=source.database.copy())

    def execute(self, item: BudgetInput) -> Tuple[RepairEngine, Any]:
        engine = RepairEngine(item.database, item.constraints)
        return engine, engine.find_card_minimal_repair()

    def check(self, item: BudgetInput, result: Tuple[RepairEngine, Any]) -> Optional[str]:
        engine, outcome = result
        if outcome.certified is not True:
            return "repair not certified"
        if not engine.is_repair(outcome.repair):
            return "repaired database violates a constraint"
        if outcome.cardinality > item.injected:
            return (
                f"repair changes {outcome.cardinality} cells for "
                f"{item.injected} injected errors"
            )
        return None


# ---------------------------------------------------------------------------
# service: a client of RepairService over a warm durable store
# ---------------------------------------------------------------------------


@dataclass
class ServiceInput:
    key: str
    database: Any
    constraints: Sequence[Any]


@dataclass
class ServiceItem:
    kind: str
    key: str
    task: RepairTask


class ServiceWorkload(Workload):
    """New documents, recent repeats and catalogue repeats to the service."""

    name = "service"
    #: the three request kinds take turns
    round_size = 3
    #: 1,002 requests, so that p99 has ten samples beyond it
    min_rounds = 334
    stream_size = 2000
    catalogue_size = SERVICE_CATALOGUE
    layers = frozenset({
        "service", "batch", "engine", "grounding", "translation", "milp.entry",
        "milp.solve", "milp.certify", "milp.cache", "store",
    })

    def setup(self, seed: int) -> None:
        self.close()
        self.seed = seed
        self.root = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        self.documents: Dict[str, ServiceInput] = {}
        # The catalogue is listed by popularity rank.  Sizes go round-robin
        # over the ranks (and over the requests, for new documents), so
        # every seed sends the same mix of sizes; only the values differ.
        self.catalogue = [
            self._document(f"catalogue-{rank}", SERVICE_YEARS[rank % len(SERVICE_YEARS)])
            for rank in range(self.catalogue_size)
        ]
        self.popularity = [
            1.0 / (rank + 1) ** SERVICE_ZIPF for rank in range(len(self.catalogue))
        ]
        self.stream: List[Tuple[str, str]] = []
        self._recent: List[str] = []
        self.overloaded = 0
        self._extend(self.stream_size)

        # Pre-populate the store as a previous run of the service would
        # have: every catalogue document solved and certified once.
        self.store_image = self.root / "catalogue.db"
        self.first_answers: Dict[str, Tuple] = {}
        with RepairService(self._config(self.store_image)) as service:
            for key in self.catalogue:
                result = self._submit(service, self._task(key))
                if result.status != "repaired":
                    raise RuntimeError(f"pre-population of {key}: {result.status}")
                self.first_answers[key] = canonical_repair(result.repair)
        self.service: Optional[RepairService] = None
        self.passes = 0

    @staticmethod
    def _config(path: Path) -> ServiceConfig:
        return ServiceConfig(store=str(path), cache_size=SERVICE_MEMORY_TIER)

    def _document(self, key: str, years: int) -> str:
        # One misread value per document: a single error cannot cancel
        # out, so every document needs a repair.
        doc_seed = derive_seed(self.seed, self.name, key)
        workload = generate_cash_budget(n_years=years, seed=doc_seed)
        corrupted, _ = inject_value_errors(workload.ground_truth, 1, seed=doc_seed)
        self.documents[key] = ServiceInput(key, corrupted, workload.constraints)
        return key

    def _extend(self, size: int) -> None:
        for index in range(len(self.stream), size):
            rng = random.Random(derive_seed(self.seed, self.name, "request", index))
            # The kinds take turns, so every run sends them in equal shares.
            kind = ("new", "recent", "catalogue")[index % self.round_size]
            if kind == "new":
                years = SERVICE_YEARS[(index // self.round_size) % len(SERVICE_YEARS)]
                key = self._document(f"new-{index}", years)
            elif kind == "recent":
                key = rng.choice(self._recent)
            else:
                key = rng.choices(self.catalogue, weights=self.popularity)[0]
            if key in self._recent:
                self._recent.remove(key)
            self._recent.insert(0, key)
            del self._recent[SERVICE_RECENT_WINDOW:]
            self.stream.append((kind, key))

    def _task(self, key: str) -> RepairTask:
        source = self.documents[key]
        return RepairTask(
            database=source.database.copy(),
            constraints=source.constraints,
            name=key,
        )

    def _submit(self, service: RepairService, task: RepairTask) -> Any:
        while True:
            try:
                ticket = service.submit(task)
                break
            except OverloadedError:
                self.overloaded += 1
                service.process_pending()
        service.process_pending()
        return service.result(ticket)

    def start_pass(self) -> None:
        self.finish_pass()
        self.passes += 1
        path = self.root / f"pass-{self.passes}.db"
        shutil.copyfile(self.store_image, path)
        self.store_path = path
        self.service = RepairService(self._config(path))
        self.answers = dict(self.first_answers)
        self.overloaded = 0
        self.submitted = 0
        self.fallbacks = 0
        self._stats: Dict[str, float] = {}

    def prepare(self, index: int) -> ServiceItem:
        self._extend(index + 1)
        kind, key = self.stream[index]
        return self.item_for(kind, key)

    def item_for(self, kind: str, key: str) -> ServiceItem:
        return ServiceItem(kind, key, self._task(key))

    def execute(self, item: ServiceItem) -> Any:
        self.submitted += 1
        return self._submit(self.service, item.task)

    def check(self, item: ServiceItem, result: Any) -> Optional[str]:
        if result is None or result.status != "repaired":
            return f"status {getattr(result, 'status', None)!r}: {getattr(result, 'error', '')}"
        if result.certified is not True:
            return "repair not certified"
        self.fallbacks += int(result.fallback_taken)
        answer = canonical_repair(result.repair)
        first = self.answers.setdefault(item.key, answer)
        if answer != first:
            return f"{item.kind} repeat of {item.key} differs from its first answer"
        return None

    def finish_pass(self) -> List[str]:
        service = getattr(self, "service", None)
        if service is None:
            return []
        self.service = None
        failures = []
        report = service.integrity_report()
        if not report.ok:
            failures.append(f"store integrity scan: {report.as_dict()}")
        rows = len(service.store)
        self._stats = {
            "intake_wait_ms_p50": service.intake_latency(0.50) * 1000.0,
            "overloaded": float(self.overloaded),
            "submitted": float(self.submitted),
            "fallbacks": float(self.fallbacks),
        }
        service.close()
        size = sum(
            path.stat().st_size
            for path in self.store_path.parent.glob(self.store_path.name + "*")
        )
        self._stats["store_bytes_per_row"] = size / rows if rows else 0.0
        return failures

    def pass_stats(self) -> Dict[str, float]:
        return dict(self._stats)

    def close(self) -> None:
        self.finish_pass()
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)
            self.root = None


WORKLOADS = {
    workload.name: workload
    for workload in (SheetsWorkload, BudgetsWorkload, ServiceWorkload)
}
