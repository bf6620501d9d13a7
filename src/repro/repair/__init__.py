"""Card-minimal repair of inconsistent numerical data (the paper's core).

- :mod:`repro.repair.updates` -- atomic updates, consistent database
  updates and repairs (Definitions 2-5);
- :mod:`repro.repair.translation` -- the MILP construction of
  Section 5: ``S(AC)`` -> ``S'(AC)`` -> ``S''(AC)`` -> ``S*(AC)``,
  including both the theoretical and the practical Big-M bound;
- :mod:`repro.repair.engine` -- :class:`RepairEngine`, the public
  entry point computing card-minimal repairs;
- :mod:`repro.repair.heuristic` -- the greedy primal repair over the
  MILP translation: an approximate backend and the incumbent seed for
  the branch-and-bound backends;
- :mod:`repro.repair.cascade` -- the tiered repair cascade
  (``strategy="cascade"``): confusion-matrix inversion, equality
  back-solving and a certified greedy tier resolve most violations
  without invoking the MILP, which remains as the exact residue tier;
- :mod:`repro.repair.relax` -- elastic relaxation of infeasible
  instances (``on_infeasible="relax"``): lexicographically minimal
  violations with a structured report, never cached;
- :mod:`repro.repair.batch` -- the fault-tolerant parallel
  batch-repair engine (process pool, per-task solve budgets with
  anytime gaps, backend fallback, checkpoint/resume, crash recovery
  with quarantine, LRU solve cache, per-solve
  :class:`~repro.milp.solver.SolveStats`);
- :mod:`repro.repair.checkpoint` -- the append-only fsync'd journal
  behind batch checkpoint/resume;
- :mod:`repro.repair.bruteforce` -- an exponential oracle used to
  validate optimality on small instances;
- :mod:`repro.repair.interactive` -- the supervised validation loop of
  Section 6.3 (operator accepts/rejects updates, pins become
  constraints, the MILP is re-solved);
- :mod:`repro.repair.baselines` -- non-card-minimal repairers used as
  evaluation baselines.
"""

from repro.repair.updates import (
    AtomicUpdate,
    Repair,
    RepairError,
    apply_repair,
)
from repro.repair.translation import (
    BigMStrategy,
    ConflictReport,
    MILPTranslation,
    RepairObjective,
    TranslationError,
    practical_big_m,
    theoretical_big_m,
    translate,
)
from repro.repair.relax import (
    ConstraintViolation,
    RelaxationOutcome,
    RelaxationReport,
    relax_infeasible,
)
from repro.repair.cqa import ConsistentAnswer, consistent_aggregate_answer
from repro.repair.enumeration import (
    count_card_minimal_supports,
    enumerate_card_minimal_repairs,
)
from repro.repair.setminimal import (
    find_set_minimal_not_card_minimal,
    is_set_minimal,
)
from repro.repair.engine import (
    STRATEGIES,
    RepairEngine,
    RepairOutcome,
    UnrepairableError,
)
from repro.repair.cascade import (
    CLOSED_FORM_TIERS,
    TIERS,
    CascadeError,
    CascadeFix,
    CascadeReport,
    TierStats,
    ViolationClass,
    classify_violation,
    classify_violations,
    run_cascade,
)
from repro.repair.heuristic import HeuristicResult, greedy_repair
from repro.repair.batch import (
    BatchItemResult,
    BatchReport,
    RepairTask,
    execute_task,
    repair_batch,
    tasks_from_databases,
)
from repro.repair.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    task_fingerprint,
)
from repro.repair.bruteforce import brute_force_card_minimal
from repro.repair.interactive import (
    FallibleOperator,
    Operator,
    OracleOperator,
    ValidationLoop,
    ValidationSession,
    involvement_order,
)
from repro.repair.baselines import (
    aggregate_recompute_repair,
    greedy_local_repair,
)

__all__ = [
    "AtomicUpdate",
    "Repair",
    "RepairError",
    "apply_repair",
    "translate",
    "MILPTranslation",
    "TranslationError",
    "BigMStrategy",
    "theoretical_big_m",
    "practical_big_m",
    "RepairEngine",
    "STRATEGIES",
    "HeuristicResult",
    "greedy_repair",
    "CascadeError",
    "CascadeFix",
    "CascadeReport",
    "TierStats",
    "ViolationClass",
    "classify_violation",
    "classify_violations",
    "run_cascade",
    "TIERS",
    "CLOSED_FORM_TIERS",
    "RepairObjective",
    "RepairOutcome",
    "UnrepairableError",
    "ConflictReport",
    "ConstraintViolation",
    "RelaxationOutcome",
    "RelaxationReport",
    "relax_infeasible",
    "RepairTask",
    "BatchItemResult",
    "BatchReport",
    "repair_batch",
    "execute_task",
    "tasks_from_databases",
    "CheckpointError",
    "CheckpointJournal",
    "task_fingerprint",
    "ConsistentAnswer",
    "consistent_aggregate_answer",
    "enumerate_card_minimal_repairs",
    "count_card_minimal_supports",
    "is_set_minimal",
    "find_set_minimal_not_card_minimal",
    "brute_force_card_minimal",
    "Operator",
    "OracleOperator",
    "FallibleOperator",
    "ValidationLoop",
    "ValidationSession",
    "involvement_order",
    "greedy_local_repair",
    "aggregate_recompute_repair",
]
