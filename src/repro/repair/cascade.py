"""The tiered repair cascade: cheap certain fixes first, MILP last.

DART's operator loop assumes most acquisition damage is cheap to undo:
the OCR channel injects *known* confusion-pair errors (0<->8, 1<->7,
rn->m), and a single misread cell usually leaves a trail of violated
aggregate rows that pins it down exactly.  Escalating every violation
straight to the exact MILP (``S*(AC)``) wastes that structure.  This
module runs a chain of increasingly expensive tiers over a working copy
of the database:

- **T1 -- confusion inversion** (:data:`TIER_INVERSION`): enumerate the
  channel pre-images of each suspect cell's text
  (:func:`repro.acquisition.ocr.number_preimages`) and accept a
  candidate only if it clears *every* ground constraint touching that
  cell -- the currently-satisfied ones included, so a fix can never
  push damage into its neighbourhood.
- **T2 -- aggregate back-solving** (:data:`TIER_BACKSOLVE`): a violated
  equality row whose cells are all above suspicion except one is a
  linear equation in a single unknown; solve it in closed form and
  apply the same all-neighbours acceptance test.
- **T3 -- certified residue search** (:data:`TIER_GREEDY`): the greedy
  primal heuristic of :mod:`repro.repair.heuristic`, accepted only when
  its cardinality matches the *exact minimum hitting number* of the
  violated rows (every repair must change at least one cell of every
  violated row, so the minimum hitting set size is a sound lower bound
  on ``|lambda(rho)|``).  When greedy overshoots, a bounded exhaustive
  pass enumerates the minimum-size hitting sets themselves, solves the
  equality rows touching each as a small linear system, and accepts the
  first assignment that verifies against *every* ground row.  Either
  way a T3 hit is *provably* card-minimal: its cardinality equals a
  lower bound that holds for the exact optimum too.
- **T4 -- exact residue solve** (:data:`TIER_EXACT`): whatever survives
  T1-T3 goes to the exact MILP.  The residue instance is strictly
  smaller (fewer violated rows), so the expensive tier runs on the
  cheap remainder.  T4 is driven by the engine
  (:meth:`repro.repair.engine.RepairEngine.find_card_minimal_repair`
  with ``strategy="cascade"``); this module reports the residue.

T1 and T2 iterate to a joint fixpoint: repairing one cell can turn a
multi-unknown row into a single-unknown row, or surface a unique
clearing pre-image that was masked before.

**Mis-repair budget.**  When several distinct candidates clear a
suspect cell's neighbourhood the channel evidence is ambiguous; picking
one is a guess that may silently diverge from the source document (a
*mis-repair*).  ``misrepair_budget`` bounds how many such guesses the
whole cascade may take (default 0: only uniquely-determined fixes are
accepted, everything ambiguous falls through to the next tier).  A
budgeted guess takes the highest-channel-probability candidate --
maximum-likelihood decoding of the OCR channel -- and is flagged
``ambiguous=True`` on its :class:`CascadeFix`.

Steadiness makes the whole scheme sound: for steady constraints the
ground system is *value-independent* (changing measure values never
changes which rows exist or their coefficients), so the system grounded
once on the original instance remains exactly ``S(AC)`` for every
working copy the cascade mutates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from repro.acquisition.ocr import number_preimages
from repro.constraints.constraint import AggregateConstraint, Relop
from repro.constraints.grounding import (
    Cell,
    GroundConstraint,
    ground_constraints,
)
from repro.relational.database import Database
from repro.relational.domains import Domain
from repro.repair.heuristic import greedy_repair
from repro.repair.translation import RepairObjective, translate

#: Tier names, in firing order.
TIER_INVERSION = "t1-inversion"
TIER_BACKSOLVE = "t2-backsolve"
TIER_GREEDY = "t3-greedy"
TIER_EXACT = "t4-exact"
TIERS = (TIER_INVERSION, TIER_BACKSOLVE, TIER_GREEDY, TIER_EXACT)

#: The tiers whose fixes are closed-form reconstructions of individual
#: cells (and therefore scoreable against injected ground truth by
#: :func:`repro.evalkit.metrics.misrepair_report`).
CLOSED_FORM_TIERS = frozenset({TIER_INVERSION, TIER_BACKSOLVE})

#: Tolerance for "this back-solved value is an integer".
INTEGRALITY_TOL = 1e-6


class CascadeError(ValueError):
    """Raised for invalid cascade configuration."""


class ViolationClass(Enum):
    """What kind of cheap fix a violated ground row plausibly admits.

    The classifier is a *routing* device, not a verdict: it predicts
    which tier is likely to clear the row, and the tier's acceptance
    test has the final word.
    """

    #: Some cell of the row has channel pre-images: candidate for T1.
    CONFUSION = "confusion"
    #: An equality row with exactly one suspect cell: candidate for T2.
    BACKSOLVABLE = "backsolvable"
    #: Everything else: greedy / exact territory (T3 / T4).
    RESIDUE = "residue"


def _render_value(value: float) -> str:
    """The cell value as the text the OCR channel would have produced."""
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return str(as_float)


def _suspect_cells(
    grounds: Sequence[GroundConstraint], database: Database
) -> PyTuple[List[GroundConstraint], List[Cell]]:
    """(violated rows, ordered distinct cells those rows touch)."""
    violated = [g for g in grounds if not g.holds(database)]
    ordered: List[Cell] = []
    seen: Set[Cell] = set()
    for ground in violated:
        for cell in ground.cells():
            if cell not in seen:
                seen.add(cell)
                ordered.append(cell)
    return violated, ordered


def classify_violation(
    ground: GroundConstraint,
    database: Database,
    suspects: Optional[Set[Cell]] = None,
) -> ViolationClass:
    """Route one violated ground row to its plausible tier.

    *suspects* is the set of cells touched by any violated row (computed
    from *database* when omitted); a row is :attr:`ViolationClass.BACKSOLVABLE`
    when it is an equality with exactly one suspect cell.
    """
    if suspects is None:
        _, ordered = _suspect_cells([ground], database)
        suspects = set(ordered)
    for cell in ground.cells():
        value = database.get_value(*cell)
        if number_preimages(_render_value(value)):
            return ViolationClass.CONFUSION
    if ground.relop == Relop.EQ:
        unknowns = [cell for cell in ground.cells() if cell in suspects]
        if len(unknowns) == 1:
            return ViolationClass.BACKSOLVABLE
    return ViolationClass.RESIDUE


def classify_violations(
    grounds: Sequence[GroundConstraint], database: Database
) -> List[PyTuple[GroundConstraint, ViolationClass]]:
    """Classify every currently-violated ground row of *grounds*."""
    violated, ordered = _suspect_cells(grounds, database)
    suspects = set(ordered)
    return [
        (ground, classify_violation(ground, database, suspects))
        for ground in violated
    ]


@dataclass(frozen=True)
class CascadeFix:
    """One accepted cell fix, with its provenance."""

    tier: str
    cell: Cell
    old_value: float
    new_value: float
    #: Channel probability of the inverted corruption (T1 only; 0.0 for
    #: back-solved or greedy fixes, which carry no channel evidence).
    probability: float = 0.0
    #: True when this fix spent mis-repair budget (several candidates
    #: cleared the neighbourhood and the highest-probability one won).
    ambiguous: bool = False


@dataclass
class TierStats:
    """Hit / fallthrough / latency accounting for one tier."""

    tier: str
    #: Violated ground rows in scope when the tier first ran.
    attempted: int = 0
    #: Violated rows cleared while this tier's fixes were applied.
    resolved: int = 0
    #: Cell fixes this tier accepted.
    fixes: int = 0
    #: Ambiguity events: a cell (or the whole tier, for T3) had more
    #: than one admissible answer and fell through instead of guessing.
    ambiguous: int = 0
    #: Mis-repair budget consumed by this tier.
    budget_spent: int = 0
    #: Violated rows still open when the tier finished (handed on).
    fallthroughs: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "tier": self.tier,
            "attempted": self.attempted,
            "resolved": self.resolved,
            "fixes": self.fixes,
            "ambiguous": self.ambiguous,
            "budget_spent": self.budget_spent,
            "fallthroughs": self.fallthroughs,
            "wall_time": self.wall_time,
        }


@dataclass
class CascadeReport:
    """What the cascade did: fixes, per-tier stats, residue."""

    budget: int
    budget_spent: int = 0
    #: Violated ground rows when the cascade started.
    n_violations: int = 0
    #: Violated rows left for the exact tier (0 = MILP-free).
    n_residual: int = 0
    fixes: List[CascadeFix] = field(default_factory=list)
    tiers: List[TierStats] = field(default_factory=list)

    @property
    def resolved_without_milp(self) -> int:
        return self.n_violations - self.n_residual

    @property
    def milp_free_fraction(self) -> float:
        """Fraction of the initial violations cleared before T4."""
        if self.n_violations == 0:
            return 1.0
        return self.resolved_without_milp / self.n_violations

    @property
    def milp_invoked(self) -> bool:
        return self.n_residual > 0

    def tier(self, name: str) -> TierStats:
        for stats in self.tiers:
            if stats.tier == name:
                return stats
        raise KeyError(name)

    def closed_form_fixes(self) -> List[CascadeFix]:
        """The T1/T2 fixes, i.e. those scoreable for mis-repairs."""
        return [fix for fix in self.fixes if fix.tier in CLOSED_FORM_TIERS]

    def as_dict(self) -> Dict[str, object]:
        return {
            "budget": self.budget,
            "budget_spent": self.budget_spent,
            "n_violations": self.n_violations,
            "n_residual": self.n_residual,
            "resolved_without_milp": self.resolved_without_milp,
            "milp_free_fraction": self.milp_free_fraction,
            "milp_invoked": self.milp_invoked,
            "tiers": [stats.as_dict() for stats in self.tiers],
            "fixes": [
                {
                    "tier": fix.tier,
                    "cell": list(fix.cell),
                    "old_value": fix.old_value,
                    "new_value": fix.new_value,
                    "probability": fix.probability,
                    "ambiguous": fix.ambiguous,
                }
                for fix in self.fixes
            ],
        }


# ---------------------------------------------------------------------------
# The cascade proper
# ---------------------------------------------------------------------------


def _grounds_by_cell(
    grounds: Sequence[GroundConstraint],
) -> Dict[Cell, List[GroundConstraint]]:
    by_cell: Dict[Cell, List[GroundConstraint]] = {}
    for ground in grounds:
        for cell in ground.cells():
            by_cell.setdefault(cell, []).append(ground)
    return by_cell


def _is_integer_cell(database: Database, cell: Cell) -> bool:
    relation, _, attribute = cell
    return (
        database.schema.relation(relation).domain_of(attribute)
        is Domain.INTEGER
    )


def _neighbourhood_clears(
    database: Database,
    cell: Cell,
    value: float,
    neighbours: Sequence[GroundConstraint],
) -> bool:
    """Would setting *cell* to *value* satisfy every row touching it?

    A single-cell change can only affect the rows the cell occurs in,
    so a clearing fix makes the cell's whole neighbourhood consistent
    and cannot create new violations anywhere else.
    """
    previous = database.get_value(*cell)
    database.set_value(*cell, value)
    try:
        return all(ground.holds(database) for ground in neighbours)
    finally:
        database.set_value(*cell, previous)


class _Budget:
    """The cascade-wide mis-repair allowance."""

    def __init__(self, total: int) -> None:
        self.total = total
        self.spent = 0

    @property
    def remaining(self) -> int:
        return self.total - self.spent

    def take(self) -> None:
        self.spent += 1


def _violated_rows_by_cell(
    grounds: Sequence[GroundConstraint], database: Database
) -> Dict[Cell, Set[int]]:
    """Cell -> indices (into *grounds*) of violated rows touching it."""
    rows: Dict[Cell, Set[int]] = {}
    for index, ground in enumerate(grounds):
        if ground.holds(database):
            continue
        for cell in ground.cells():
            rows.setdefault(cell, set()).add(index)
    return rows


def _dominates(
    cell: Cell,
    violated_rows: Dict[Cell, Set[int]],
    grounds: Sequence[GroundConstraint],
) -> bool:
    """Is *cell* a maximal single-cell explanation of its violations?

    True when no cell sharing a violated row with *cell* is implicated
    in violations *outside* ``R(cell)``.  Without this guard a fix can
    "absorb" a neighbour's error: if the true culprit ``c'`` sits in two
    violated rows and *cell* in only one of them, repairing *cell*
    clears that one row around the still-corrupted ``c'`` -- a silent
    mis-repair that also strands the other row with a costlier residue.
    Parsimony says the culprit is the cell that explains *all* the
    violations in its vicinity.
    """
    mine = violated_rows.get(cell, set())
    for row_index in mine:
        for other_cell in grounds[row_index].cells():
            if violated_rows.get(other_cell, set()) - mine:
                return False
    return True


def _inversion_pass(
    working: Database,
    grounds: Sequence[GroundConstraint],
    by_cell: Dict[Cell, List[GroundConstraint]],
    budget: _Budget,
    stats: TierStats,
    fixes: List[CascadeFix],
) -> bool:
    """One T1 sweep; True when at least one fix was accepted."""
    violated, suspects = _suspect_cells(grounds, working)
    if not violated:
        return False
    violated_rows = _violated_rows_by_cell(grounds, working)

    # Clearing candidates per dominating suspect cell.  Cells that do
    # not dominate their neighbourhood (some neighbour is implicated in
    # violations this cell cannot explain) are skipped outright:
    # repairing them could only absorb a neighbour's error.
    clearing: Dict[Cell, List[PyTuple[float, float]]] = {}
    for cell in suspects:
        if not _dominates(cell, violated_rows, grounds):
            continue
        current = working.get_value(*cell)
        integer_cell = _is_integer_cell(working, cell)
        for candidate_text, probability in number_preimages(
            _render_value(current)
        ):
            stripped = candidate_text.lstrip("-")
            if not stripped or not stripped.replace(".", "", 1).isdigit():
                continue
            value = float(candidate_text)
            if integer_cell:
                if not value.is_integer():
                    continue
                value = float(int(value))
            if value == float(current):
                continue
            if _neighbourhood_clears(working, cell, value, by_cell[cell]):
                clearing.setdefault(cell, []).append((value, probability))

    # Ambiguity is judged per *explanation group*: dominating cells
    # sharing a violated row explain the same violations (dominance
    # forces their violated-row sets equal), so two clearing candidates
    # inside one group -- whether on the same cell or on different
    # cells -- are rival explanations of the same evidence.  Candidates
    # in different groups are independent.
    groups: Dict[FrozenSet[int], List[PyTuple[Cell, float, float]]] = {}
    for cell, candidates in clearing.items():
        key = frozenset(violated_rows[cell])
        for value, probability in candidates:
            groups.setdefault(key, []).append((cell, value, probability))

    # Strongest explanations first: a group clearing more violated rows
    # is the more parsimonious fix.
    for key in sorted(groups, key=lambda rows: -len(rows)):
        candidates = sorted(groups[key], key=lambda c: -c[2])
        # Corroboration: a single violated row can never rule out
        # neighbour absorption -- every cell of the row is equally
        # suspect, and a compensating inversion on the wrong cell
        # clears the row just as well (it can even be card-minimal).
        # Only a candidate confirmed by >= 2 independently violated
        # rows is an unambiguous fidelity claim; single-witness
        # inversions cost budget and otherwise fall through to the
        # certified tiers, which claim minimality, not fidelity.
        corroborated = len(key) >= 2
        ambiguous = len(candidates) > 1 or not corroborated
        if ambiguous:
            stats.ambiguous += 1
            if budget.remaining <= 0:
                continue  # fall through rather than guess
            budget.take()
            stats.budget_spent += 1
        cell, value, probability = candidates[0]  # maximum likelihood
        integer_cell = _is_integer_cell(working, cell)
        current = float(working.get_value(*cell))
        working.set_value(*cell, int(value) if integer_cell else value)
        fixes.append(
            CascadeFix(
                tier=TIER_INVERSION,
                cell=cell,
                old_value=current,
                new_value=value,
                probability=probability,
                ambiguous=ambiguous,
            )
        )
        stats.fixes += 1
        # One fix per sweep: the violated-row map is stale now, and the
        # fixpoint loop re-sweeps anyway.
        return True
    return False


def _backsolve_pass(
    working: Database,
    grounds: Sequence[GroundConstraint],
    by_cell: Dict[Cell, List[GroundConstraint]],
    budget: _Budget,
    stats: TierStats,
    fixes: List[CascadeFix],
) -> bool:
    """One T2 sweep; True when at least one fix was accepted."""
    violated, suspects = _suspect_cells(grounds, working)
    if not violated:
        return False
    suspect_set = set(suspects)
    violated_rows = _violated_rows_by_cell(grounds, working)
    progressed = False
    for ground in violated:
        if ground.holds(working):
            continue  # cleared earlier in this sweep
        if ground.relop != Relop.EQ or not ground.coefficients:
            continue
        unknowns = [cell for cell in ground.cells() if cell in suspect_set]
        if len(unknowns) != 1:
            continue
        cell = unknowns[0]
        if not _dominates(cell, violated_rows, grounds):
            continue
        coefficient = ground.coefficients[cell]
        if coefficient == 0.0:
            continue
        rest = ground.constant + sum(
            other_coefficient * float(working.get_value(*other_cell))
            for other_cell, other_coefficient in ground.coefficients.items()
            if other_cell != cell
        )
        value = (ground.rhs - rest) / coefficient
        if _is_integer_cell(working, cell):
            if abs(value - round(value)) > INTEGRALITY_TOL:
                continue  # no integral solution: leave it to T3/T4
            value = float(round(value))
        current = float(working.get_value(*cell))
        if value == current:
            continue
        if not _neighbourhood_clears(working, cell, value, by_cell[cell]):
            continue
        # Same corroboration rule as T1: one equality pins the value,
        # but only a second violated witness row certifies that this
        # cell -- and not a suspect neighbour it would absorb -- is the
        # corrupted one.
        corroborated = len(violated_rows[cell]) >= 2
        if not corroborated:
            stats.ambiguous += 1
            if budget.remaining <= 0:
                continue
            budget.take()
            stats.budget_spent += 1
        working.set_value(
            *cell, int(value) if _is_integer_cell(working, cell) else value
        )
        fixes.append(
            CascadeFix(
                tier=TIER_BACKSOLVE,
                cell=cell,
                old_value=current,
                new_value=value,
                ambiguous=not corroborated,
            )
        )
        stats.fixes += 1
        # One fix per sweep (the dominance map is stale after a fix).
        return True
    return progressed


def repair_lower_bound(
    grounds: Sequence[GroundConstraint], database: Database
) -> int:
    """A sound lower bound on repair cardinality for *database*.

    Every violated ground row needs at least one of its cells changed;
    rows with pairwise-disjoint cell sets therefore force pairwise-
    distinct changes.  A greedy packing (fewest-cells rows first) of
    cell-disjoint violated rows is thus a valid -- if not maximal --
    lower bound on ``|lambda(rho)|`` for any repair ``rho``.
    """
    violated = [g for g in grounds if not g.holds(database)]
    violated.sort(key=lambda g: len(g.coefficients))
    used: Set[Cell] = set()
    bound = 0
    for ground in violated:
        cells = set(ground.cells())
        if not cells:
            # An empty violated row witnesses unrepairability; it forces
            # no cell change, so it contributes nothing to the bound.
            continue
        if cells & used:
            continue
        used |= cells
        bound += 1
    return bound


#: Search caps for the exact hitting-set machinery.  Residues reaching
#: T3 are tiny (a handful of violated rows over a few dozen cells); the
#: caps exist so a pathological instance degrades to "fall through to
#: T4" instead of stalling the cascade.
HITTING_SET_MAX_NODES = 50_000
HITTING_SET_MAX_SOLUTIONS = 64

#: Numerical tolerances for the tiny Gaussian-elimination solves.
_PIVOT_TOL = 1e-9
_CONSISTENCY_TOL = 1e-6


def minimum_hitting_sets(
    row_cells: Sequence[FrozenSet[Cell]],
    *,
    max_nodes: int = HITTING_SET_MAX_NODES,
    max_solutions: int = HITTING_SET_MAX_SOLUTIONS,
) -> PyTuple[int, List[FrozenSet[Cell]], bool, bool]:
    """Exact minimum hitting sets of the violated-row cell sets.

    Returns ``(h, solutions, certified, complete)``.  When *certified*
    is True, ``h`` is the exact minimum number of cells needed to
    intersect every row in *row_cells* -- a sound lower bound on repair
    cardinality, since any repair must change at least one cell of
    every violated row -- and *solutions* holds hitting sets of size
    exactly ``h``.  *complete* is True when *solutions* provably lists
    **every** size-``h`` hitting set (no node or solution cap was hit);
    the certified support search needs that completeness for its
    infeasibility proofs, while the greedy gate only needs ``h``.
    When the branch-and-bound node cap is hit during the minimum-size
    phase, the search gives up entirely: ``certified`` is False and
    callers must fall back to a weaker bound
    (:func:`repair_lower_bound`).

    The branching rule (pick an un-hit row, branch on each of its
    cells) is complete: every hitting set contains some cell of every
    row, so every minimum solution appears on some branch.
    """
    rows = [cells for cells in row_cells if cells]
    if not rows:
        return 0, [frozenset()], True, True
    nodes = 0
    best = len(set().union(*rows))  # hitting everything is an upper bound

    def search(chosen: Set[Cell]) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > max_nodes:
            raise _HittingSetCapped
        open_rows = [cells for cells in rows if not (cells & chosen)]
        if not open_rows:
            best = min(best, len(chosen))
            return
        if len(chosen) >= best:
            return
        # Branch on the most-constrained row: fewest candidate cells.
        pivot = min(open_rows, key=lambda cells: (len(cells), sorted(cells)))
        for cell in sorted(pivot):
            chosen.add(cell)
            search(chosen)
            chosen.remove(cell)

    try:
        # Phase 1: find the minimum size h (depth capped at incumbent).
        search(set())
    except _HittingSetCapped:
        return 0, [], False, False
    # Phase 2: collect the size-h hitting sets.  A cap here only
    # truncates the candidate list -- h itself stays certified, but
    # completeness (and with it the certified support search) is lost.
    solutions, complete = hitting_sets_of_size(
        rows, best, max_nodes=max_nodes, max_solutions=max_solutions
    )
    return best, solutions, True, complete


def hitting_sets_of_size(
    row_cells: Sequence[FrozenSet[Cell]],
    size: int,
    *,
    max_nodes: int = HITTING_SET_MAX_NODES,
    max_solutions: int = HITTING_SET_MAX_SOLUTIONS,
) -> PyTuple[List[FrozenSet[Cell]], bool]:
    """All *irredundant* hitting sets of exactly *size* cells.

    Irredundant means every chosen cell was picked to hit a row no
    earlier pick hit -- the branch rule never extends an already-
    complete hitting set, so redundant supersets (minimal set plus idle
    cells) are excluded by construction; the certified support search
    reaches those through its interacting-cell expansion instead.
    Returns ``(solutions, complete)``; *complete* is False when a cap
    was hit, in which case the list may be missing solutions.
    """
    rows = [cells for cells in row_cells if cells]
    if not rows:
        return ([frozenset()] if size == 0 else []), True
    nodes = 0
    solutions: Set[FrozenSet[Cell]] = set()

    def search(chosen: Set[Cell]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _HittingSetCapped
        open_rows = [cells for cells in rows if not (cells & chosen)]
        if not open_rows:
            if len(chosen) == size:
                if len(solutions) >= max_solutions:
                    raise _HittingSetCapped
                solutions.add(frozenset(chosen))
            return
        if len(chosen) >= size:
            return
        pivot = min(open_rows, key=lambda cells: (len(cells), sorted(cells)))
        for cell in sorted(pivot):
            chosen.add(cell)
            search(chosen)
            chosen.remove(cell)

    try:
        search(set())
    except _HittingSetCapped:
        return sorted(solutions, key=sorted), False
    return sorted(solutions, key=sorted), True


class _HittingSetCapped(Exception):
    """Internal: the hitting-set search blew its node budget."""


#: Status labels for :func:`_solve_equality_system`.
_UNIQUE = "unique"
_INCONSISTENT = "inconsistent"
_UNDERDETERMINED = "underdetermined"


def _solve_equality_system(
    working: Database,
    grounds: Sequence[GroundConstraint],
    subset: FrozenSet[Cell],
) -> PyTuple[str, Optional[Dict[Cell, float]]]:
    """Solve every equality row touching *subset* for the subset cells.

    All other cells are held at their current values, turning the
    equality rows into a dense linear system ``A x = b`` over the
    subset.  Returns a status and, for :data:`_UNIQUE`, the solution:

    - ``(_UNIQUE, assignment)`` -- the system pins every subset cell to
      exactly one value (integral where the domain demands it);
    - ``(_INCONSISTENT, None)`` -- no admissible assignment of the
      subset satisfies the equality rows (the system is contradictory,
      or its unique real solution is fractional on an integer cell): a
      *proof* that the subset cannot be a repair support, which the
      certified search uses to raise its lower bound;
    - ``(_UNDERDETERMINED, None)`` -- a free column: the evidence does
      not pin the values down.  Neither a fix nor a proof; the caller
      must treat the subset's feasibility as unknown.
    """
    unknowns = sorted(subset)
    index = {cell: i for i, cell in enumerate(unknowns)}
    n = len(unknowns)
    matrix: List[List[float]] = []
    for ground in grounds:
        if ground.relop != Relop.EQ:
            continue
        touched = [cell for cell in ground.cells() if cell in subset]
        if not touched:
            continue
        row = [0.0] * (n + 1)
        rhs = ground.rhs - ground.constant
        for cell, coefficient in ground.coefficients.items():
            if cell in subset:
                row[index[cell]] = coefficient
            else:
                rhs -= coefficient * float(working.get_value(*cell))
        row[n] = rhs
        matrix.append(row)

    # Gaussian elimination with partial pivoting.
    rank = 0
    free_column = False
    for col in range(n):
        pivot_row = max(
            range(rank, len(matrix)), key=lambda r: abs(matrix[r][col]),
            default=None,
        )
        if pivot_row is None or abs(matrix[pivot_row][col]) < _PIVOT_TOL:
            free_column = True
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        for r in range(len(matrix)):
            if r == rank or abs(matrix[r][col]) < _PIVOT_TOL:
                continue
            factor = matrix[r][col] / pivot
            for c in range(col, n + 1):
                matrix[r][c] -= factor * matrix[rank][c]
        rank += 1
    # Leftover rows must be consistent (0 = 0); an inconsistent row is
    # a proof even when other columns are free.
    for r in range(rank, len(matrix)):
        if abs(matrix[r][n]) > _CONSISTENCY_TOL:
            return _INCONSISTENT, None
    if free_column:
        return _UNDERDETERMINED, None

    solution: Dict[Cell, float] = {}
    for r in range(rank):
        col = next(
            c for c in range(n) if abs(matrix[r][c]) >= _PIVOT_TOL
        )
        value = matrix[r][n] / matrix[r][col]
        cell = unknowns[col]
        if _is_integer_cell(working, cell):
            if abs(value - round(value)) > INTEGRALITY_TOL:
                # The *unique* real solution is fractional on an
                # integer cell, so no integral assignment satisfies
                # the equality rows: an infeasibility proof.
                return _INCONSISTENT, None
            value = float(round(value))
        solution[cell] = value
    return _UNIQUE, solution


def _assignment_verifies(
    working: Database,
    grounds: Sequence[GroundConstraint],
    assignment: Dict[Cell, float],
) -> bool:
    """Does applying *assignment* satisfy the entire ground system?"""
    previous = {
        cell: working.get_value(*cell) for cell in assignment
    }
    for cell, value in assignment.items():
        working.set_value(
            *cell, int(value) if _is_integer_cell(working, cell) else value
        )
    try:
        return all(ground.holds(working) for ground in grounds)
    finally:
        for cell, value in previous.items():
            working.set_value(*cell, value)


def _accept_t3_assignment(
    working: Database,
    assignment: Dict[Cell, float],
    stats: TierStats,
    fixes: List[CascadeFix],
) -> bool:
    progressed = False
    for cell in sorted(assignment):
        value = float(assignment[cell])
        current = float(working.get_value(*cell))
        if value == current:
            continue
        integer_cell = _is_integer_cell(working, cell)
        working.set_value(*cell, int(value) if integer_cell else value)
        fixes.append(
            CascadeFix(
                tier=TIER_GREEDY,
                cell=cell,
                old_value=current,
                new_value=value,
            )
        )
        stats.fixes += 1
        progressed = True
    return progressed


#: How many support sizes above the hitting number the certified
#: search will climb (each climb needs a full infeasibility proof of
#: the level below), and how many candidate supports one level may
#: hold before the search gives up to T4.
SUPPORT_SEARCH_MAX_EXTRA = 2
SUPPORT_SEARCH_MAX_CANDIDATES = 4096


def _interacting_cells(
    grounds: Sequence[GroundConstraint], support: FrozenSet[Cell]
) -> Set[Cell]:
    """Cells sharing a ground row with *support* (minus the support)."""
    cells: Set[Cell] = set()
    for ground in grounds:
        touched = support.intersection(ground.cells())
        if touched:
            cells.update(ground.cells())
    return cells - support


def _certified_support_search(
    working: Database,
    grounds: Sequence[GroundConstraint],
    violated_sets: Sequence[FrozenSet[Cell]],
    h: int,
    hitting_sets: Sequence[FrozenSet[Cell]],
    *,
    max_extra: int = SUPPORT_SEARCH_MAX_EXTRA,
    max_candidates: int = SUPPORT_SEARCH_MAX_CANDIDATES,
) -> Optional[Dict[Cell, float]]:
    """Find a *provably card-minimal* assignment for the residue.

    Level ``k`` holds every cell set that could be the support (the
    changed cells) of a size-``k`` repair.  At ``k = h`` those are
    exactly the minimum hitting sets: a repair must change a cell of
    every violated row, and a size-``h`` set that does so has no room
    for anything else.  For ``k > h`` a support decomposes into a
    hitting subset plus extra cells, each of which must share a ground
    row with the rest of the support -- a change that interacts with
    nothing else either breaks its own (satisfied, equality) rows or is
    idle, and dropping it would yield a smaller repair that the level
    below already proved impossible.  Level ``k+1`` is therefore
    complete as: every level-``k`` candidate extended by one
    interacting cell, plus the irredundant hitting sets of size
    ``k+1`` (supports whose minimal hitting subset is itself bigger
    than ``h``).

    The search accepts the first candidate whose equality system pins
    a unique, fully-changing, globally-verifying assignment -- and only
    after every candidate at every smaller size was *proved* infeasible
    (inconsistent equality rows, or a unique solution that fails
    verification).  An underdetermined system, a truncated enumeration,
    or an oversized level all abort the climb: soundness is never
    traded for coverage, the residue just goes to the exact tier.
    """
    level: List[FrozenSet[Cell]] = sorted(set(hitting_sets), key=sorted)
    for k in range(h, h + max_extra + 1):
        if not level or len(level) > max_candidates:
            return None
        proved_infeasible = True
        for subset in level:
            status, assignment = _solve_equality_system(
                working, grounds, subset
            )
            if status == _INCONSISTENT:
                continue  # proof for this subset
            if status == _UNDERDETERMINED:
                proved_infeasible = False
                continue
            changed = {
                cell: value
                for cell, value in assignment.items()
                if value != float(working.get_value(*cell))
            }
            if len(changed) != len(subset):
                # The unique solution leaves a support cell unchanged:
                # it is really a smaller-support candidate, which a
                # lower level already handled (or disproved).  Not a
                # proof that *this* subset is infeasible though.
                proved_infeasible = False
                continue
            if _assignment_verifies(working, grounds, changed):
                return changed
            # Unique solution, forced by the equality rows, fails the
            # full system: this subset is proved infeasible.
        if not proved_infeasible:
            return None  # cannot certify any larger size
        if k == h + max_extra:
            break
        # Build level k+1.
        expanded: Set[FrozenSet[Cell]] = set()
        for subset in level:
            for cell in _interacting_cells(grounds, subset):
                expanded.add(subset | {cell})
                if len(expanded) > max_candidates:
                    return None
        larger, complete = hitting_sets_of_size(violated_sets, k + 1)
        if not complete:
            return None
        expanded.update(larger)
        level = sorted(expanded, key=sorted)
    return None


def _greedy_pass(
    working: Database,
    constraints: Sequence[AggregateConstraint],
    grounds: Sequence[GroundConstraint],
    stats: TierStats,
    fixes: List[CascadeFix],
) -> bool:
    """T3: certified residue search (greedy, then support enumeration).

    Neither sub-strategy carries an intrinsic minimality certificate,
    so acceptance is gated on proof: the greedy heuristic is trusted
    only when its cardinality *equals* the exact minimum hitting number
    of the violated rows (a sound lower bound -- any repair changes at
    least one cell per violated row), falling back to the cell-disjoint
    packing of :func:`repair_lower_bound` when the hitting-set search
    blows its caps.  When greedy overshoots,
    :func:`_certified_support_search` climbs support sizes with full
    infeasibility proofs, so whatever it returns is card-minimal by
    construction.  Anything else falls through to the exact tier.
    """
    violated_sets = [
        frozenset(g.cells()) for g in grounds if not g.holds(working)
    ]
    h, hitting_sets, certified, complete = minimum_hitting_sets(
        violated_sets
    )
    bound = h if certified else repair_lower_bound(grounds, working)

    translation = translate(
        working,
        constraints,
        grounds=list(grounds),
        objective=RepairObjective.CARDINALITY,
    )
    result = greedy_repair(translation)
    if result is not None and result.changes == bound:
        assignment = {
            cell: float(result.z_values[i])
            for i, cell in enumerate(translation.cells)
            if float(result.z_values[i]) != float(working.get_value(*cell))
        }
        return _accept_t3_assignment(working, assignment, stats, fixes)

    if certified and complete:
        assignment = _certified_support_search(
            working, grounds, violated_sets, h, hitting_sets
        )
        if assignment is not None:
            return _accept_t3_assignment(working, assignment, stats, fixes)

    stats.ambiguous += 1
    return False


def run_cascade(
    database: Database,
    constraints: Sequence[AggregateConstraint],
    *,
    grounds: Optional[Sequence[GroundConstraint]] = None,
    misrepair_budget: int = 0,
) -> PyTuple[Database, CascadeReport]:
    """Run tiers T1-T3 over a working copy of *database*.

    Returns ``(working copy, report)``.  The working copy satisfies
    every ground row the cascade resolved; ``report.n_residual > 0``
    means the exact tier (T4) must finish the job on the returned copy.
    The original *database* is never mutated.

    *grounds* lets callers reuse an already-grounded system (steady
    constraints make it value-independent); omitted, the system is
    grounded here.
    """
    if misrepair_budget < 0:
        raise CascadeError(
            f"misrepair_budget must be >= 0, got {misrepair_budget}"
        )
    system = (
        list(grounds)
        if grounds is not None
        else ground_constraints(constraints, database, require_steady=True)
    )
    working = database.copy()
    by_cell = _grounds_by_cell(system)
    budget = _Budget(misrepair_budget)
    fixes: List[CascadeFix] = []

    initial_violated = [g for g in system if not g.holds(working)]
    report = CascadeReport(
        budget=misrepair_budget, n_violations=len(initial_violated)
    )
    t1 = TierStats(tier=TIER_INVERSION, attempted=len(initial_violated))
    t2 = TierStats(tier=TIER_BACKSOLVE)
    t3 = TierStats(tier=TIER_GREEDY)
    report.tiers = [t1, t2, t3]
    if not initial_violated:
        return working, report

    # T1 <-> T2 joint fixpoint: each accepted fix can unlock the other
    # tier (a repaired cell turns a two-unknown row into a back-solvable
    # one, and vice versa).
    def open_rows() -> int:
        return sum(1 for g in system if not g.holds(working))

    while True:
        before = open_rows()
        started = time.perf_counter()
        progressed_t1 = _inversion_pass(
            working, system, by_cell, budget, t1, fixes
        )
        t1.wall_time += time.perf_counter() - started
        after_t1 = open_rows()
        t1.resolved += before - after_t1

        started = time.perf_counter()
        progressed_t2 = _backsolve_pass(
            working, system, by_cell, budget, t2, fixes
        )
        t2.wall_time += time.perf_counter() - started
        after_t2 = open_rows()
        t2.resolved += after_t1 - after_t2

        if not (progressed_t1 or progressed_t2):
            break

    # Handed-on accounting: a tier's fallthroughs are the initial rows
    # it (and its fixpoint partner, upstream of it) did not clear.
    t1.fallthroughs = report.n_violations - t1.resolved
    t2.attempted = t1.fallthroughs
    t2.fallthroughs = t2.attempted - t2.resolved

    remaining = open_rows()
    t3.attempted = remaining
    if remaining:
        started = time.perf_counter()
        _greedy_pass(working, constraints, system, t3, fixes)
        t3.wall_time += time.perf_counter() - started
        t3.resolved = remaining - open_rows()
    t3.fallthroughs = open_rows()

    report.fixes = fixes
    report.budget_spent = budget.spent
    report.n_residual = open_rows()
    return working, report
