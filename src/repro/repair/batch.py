"""Fault-tolerant parallel batch repair: many documents, many cores, one report.

DART's operational setting is a data-entry shop repairing whole
batches of acquired documents.  Each document's card-minimal repair is
one MILP -- independent of every other document's -- so the corpus is
embarrassingly parallel (HoloClean exploits the same structure by
partitioning repair into independent subproblems).  This module fans a
list of :class:`RepairTask` out over a
``concurrent.futures.ProcessPoolExecutor`` and keeps the batch alive
through everything short of losing the checkpoint file:

- **configurable workers** -- ``workers=None``/``0`` runs sequentially
  in-process (no pickling, one shared cache); ``workers >= 1`` uses a
  process pool;
- **chunked scheduling** -- tasks are shipped to workers in chunks to
  amortise pickling overhead (``chunksize`` defaults to roughly four
  chunks per worker);
- **deterministic ordering** -- results are reassembled by task index,
  so the report is byte-identical to the sequential run regardless of
  completion order;
- **one per-task dispatcher** -- :func:`execute_task` runs every task,
  in-process, in every pool worker, and for
  :class:`~repro.repair.service.RepairService`;
- **per-task budget + anytime fallback** -- ``timeout`` is a portable
  cooperative deadline (:class:`~repro.milp.deadline.Deadline`,
  monotonic clock, checked inside the solver loop -- no ``SIGALRM``)
  threaded into the engine as ``time_limit``.  A budget that expires
  with an incumbent in hand yields an *approximate* repair with a
  certified optimality gap (``approximate=True``, ``gap``); only a
  budget that expires empty-handed fails the attempt.  Failed attempts
  are retried once on the alternate MILP backend
  (:data:`~repro.milp.solver.FALLBACK_BACKEND`) with a fresh budget --
  unless the failure is an input error
  (:func:`~repro.diagnostics.is_retryable_on_fallback`), which no
  backend can fix.  Both attempts' solver stats are kept, and two
  timeouts report as ``"timeout"``, not a generic error;
- **checkpoint/resume** -- with ``checkpoint=...`` every completed
  task is journalled (append + fsync) to a
  :class:`~repro.repair.checkpoint.RunJournal`; re-running the
  same batch against an existing journal replays the finished tasks
  (fingerprint-verified) and only solves the rest, so an interrupted
  run resumed to completion aggregates identically to an
  uninterrupted one;
- **crash recovery** -- a worker that dies (OOM kill, segfault,
  injected ``SIGKILL``) breaks the pool; the orchestrator identifies
  the in-flight task through per-dispatch sentinel files, counts the
  crash against that task only, respawns the pool after an exponential
  backoff, and re-runs innocent chunkmates at no penalty.  A task that
  keeps killing its worker is **quarantined** after
  ``max_task_retries`` retries instead of sinking the batch.  An
  optional ``hard_timeout`` watchdog terminates workers whose current
  task has been running that long (hung native code, injected hangs),
  funnelling them into the same recovery path;
- **LRU solve cache** -- every engine in a worker shares that worker's
  :class:`~repro.milp.cache.SolveCache`; identical tables re-acquired
  across documents skip the solver entirely.  Caches are per-process;
  the sequential path shares a single cache across the whole corpus.

Every solve emits a :class:`~repro.milp.solver.SolveStats` record;
:class:`BatchReport` aggregates them (wall time, nodes, pivots, cache
hits, fallbacks, gaps, quarantines) into the batch-level accounting
the benches print.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.constraints.constraint import AggregateConstraint
from repro.constraints.grounding import Cell
from repro.diagnostics import (
    WorkerCrashError,
    classify_failure,
    is_retryable_on_fallback,
)
from repro.faultinject import FaultConfig, chaos_backend_dispatch, chaos_before_task
from repro.milp.cache import DEFAULT_CACHE_SIZE, SolveCache
from repro.milp.solver import DEFAULT_BACKEND, FALLBACK_BACKEND, SolveStats
from repro.relational.database import Database
from repro.repair.cascade import TIER_EXACT, TIERS
from repro.repair.checkpoint import RunJournal
from repro.repair.engine import ON_INFEASIBLE_MODES, STRATEGIES, RepairEngine
from repro.repair.translation import RepairObjective
from repro.repair.updates import Repair

if TYPE_CHECKING:  # pragma: no cover - import cycles
    from repro.repair.service import CircuitBreaker
    from repro.repair.store import ResultStore

#: Result statuses that count as the *backend's* fault for breaker
#: accounting.  Input errors (invalid value, degenerate, malformed) and
#: honest verdicts (unrepairable) say nothing about backend health and
#: must not open a breaker.
BACKEND_FAULT_STATUSES = frozenset({"crashed", "timeout", "error", "uncertified"})

#: Ceiling on the exponential pool-respawn backoff, seconds.
MAX_BACKOFF = 5.0

#: How often the orchestrator wakes to poll futures / run the watchdog.
POLL_INTERVAL = 0.05

#: Module-level RNG for backoff jitter.  Deliberately *not* seeded from
#: anything deterministic: jitter exists to decorrelate independent
#: processes that crashed at the same instant, and sharing a seed would
#: re-synchronise exactly the retry stampede it is meant to break up.
#: Tests pass their own seeded ``random.Random`` to
#: :func:`respawn_delay` instead.
_BACKOFF_RNG = random.Random()


def respawn_delay(
    base: float,
    previous: float,
    rng: Optional[random.Random] = None,
) -> float:
    """Decorrelated-jitter backoff delay (AWS style), seconds.

    Draws uniformly from ``[base, min(MAX_BACKOFF, 3 * previous)]``, so
    the *expected* delay still grows geometrically while two
    orchestrators that broke their pools in the same instant (shared
    machine, shared sick dependency) almost surely pick different
    delays and stop respawning in lockstep -- plain ``base * 2**n``
    synchronises retries into exactly the thundering herd that keeps
    the shared resource sick.  ``base <= 0`` disables backoff entirely
    (the chaos tests run with ``retry_backoff=0.0``); *previous* is the
    last delay returned, or ``base`` on the first crash.
    """
    if base <= 0:
        return 0.0
    upper = min(MAX_BACKOFF, max(base, 3.0 * previous))
    return (rng or _BACKOFF_RNG).uniform(base, upper)


@dataclass
class RepairTask:
    """One unit of batch work: a (database, constraints) repair scenario."""

    database: Database
    constraints: Sequence[AggregateConstraint]
    name: str = ""
    backend: Optional[str] = None  # None = the batch-level default
    objective: RepairObjective = RepairObjective.CARDINALITY
    weights: Optional[Mapping[Cell, float]] = None
    pins: Optional[Mapping[Cell, float]] = None
    #: Repair strategy override (``"exact"`` / ``"cascade"``); None
    #: inherits the batch-level default.
    strategy: Optional[str] = None
    #: Cascade mis-repair budget override; None inherits the batch's.
    misrepair_budget: Optional[int] = None


@dataclass
class BatchItemResult:
    """Outcome of one task, in the input order of the batch."""

    index: int
    name: str
    #: "repaired" | "consistent" | "relaxed" | "unrepairable" |
    #: "timeout" | "invalid_input" | "degenerate" | "malformed" |
    #: "unbounded" | "crashed" | "quarantined" | "error"
    status: str
    repair: Optional[Repair] = None
    objective: Optional[float] = None
    backend_used: str = DEFAULT_BACKEND
    fallback_taken: bool = False
    #: True when the repair is an anytime incumbent (budget expired);
    #: ``gap`` then bounds its distance from the true optimum.
    approximate: bool = False
    gap: Optional[float] = None
    #: Dispatch attempts consumed (1 = no crash retries).
    attempts: int = 1
    #: True when this result was replayed from a checkpoint journal.
    resumed: bool = False
    #: Exact-arithmetic certification verdict of the delivered repair:
    #: True (certified), False (rejected -- the task then surfaces as
    #: ``status="uncertified"``), or None (certification off, or not
    #: applicable: consistent / failed tasks carry no repair to check).
    certified: Optional[bool] = None
    error: Optional[str] = None
    wall_time: float = 0.0
    stats: List[SolveStats] = field(default_factory=list)
    #: ``on_infeasible="relax"``: the structured violation report of a
    #: relaxed repair (one dict per violated ground constraint), None
    #: for exact repairs.
    violations: Optional[List[Dict]] = None

    @property
    def ok(self) -> bool:
        return self.status in ("repaired", "consistent", "relaxed")

    @property
    def cardinality(self) -> int:
        return self.repair.cardinality if self.repair is not None else 0


@dataclass
class BatchReport:
    """All task results plus batch-level accounting."""

    results: List[BatchItemResult]
    wall_time: float
    workers: int
    cache_size: int
    timeout: Optional[float] = None
    #: Times the worker pool had to be respawned after a crash.
    pool_respawns: int = 0
    #: Checkpoint file in use, if any.
    checkpoint: Optional[str] = None
    #: Durable result store in use, if any.
    store: Optional[str] = None

    @property
    def n_tasks(self) -> int:
        return len(self.results)

    @property
    def n_repaired(self) -> int:
        return sum(1 for r in self.results if r.status == "repaired")

    @property
    def n_consistent(self) -> int:
        return sum(1 for r in self.results if r.status == "consistent")

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def n_fallbacks(self) -> int:
        return sum(1 for r in self.results if r.fallback_taken)

    @property
    def n_quarantined(self) -> int:
        return sum(1 for r in self.results if r.status == "quarantined")

    @property
    def n_relaxed(self) -> int:
        return sum(1 for r in self.results if r.status == "relaxed")

    @property
    def n_resumed(self) -> int:
        return sum(1 for r in self.results if r.resumed)

    @property
    def n_certified(self) -> int:
        """Tasks whose delivered repair carries an exact certificate."""
        return sum(1 for r in self.results if r.certified is True)

    @property
    def n_uncertified(self) -> int:
        """Tasks whose repair failed certification on every ladder rung."""
        return sum(
            1
            for r in self.results
            if r.certified is False or r.status == "uncertified"
        )

    @property
    def all_stats(self) -> List[SolveStats]:
        return [s for r in self.results for s in r.stats]

    @property
    def total_solves(self) -> int:
        return len(self.all_stats)

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.all_stats if s.cache_hit)

    @property
    def cache_misses(self) -> int:
        return self.total_solves - self.cache_hits

    @property
    def cascade_tier_hits(self) -> Dict[str, int]:
        """Violated rows resolved per cascade tier, batch-wide.

        Synthetic ``backend="cascade"`` records carry T1-T3 counts;
        the T4 entry counts residual rows that reached a real solver
        (records stamped ``tier="t4-exact"``, cache hits included).
        """
        hits = {tier: 0 for tier in TIERS}
        for record in self.all_stats:
            if record.backend == "cascade":
                hits[record.tier] += record.tier_hits
            elif record.tier == TIER_EXACT:
                hits[TIER_EXACT] = hits[TIER_EXACT] + record.tier_hits
        return hits

    @property
    def n_milp_free(self) -> int:
        """Cascade tasks repaired without any real solver record."""
        count = 0
        for result in self.results:
            cascade_records = [
                s for s in result.stats if s.backend == "cascade"
            ]
            if not cascade_records or result.status != "repaired":
                continue
            if all(
                s.backend == "cascade" or s.tier != TIER_EXACT
                for s in result.stats
            ):
                count += 1
        return count

    def aggregate(self) -> Dict[str, float]:
        """The flat numbers the benches tabulate.

        Everything here is a pure function of the per-task results, so
        an interrupted-then-resumed run aggregates identically to an
        uninterrupted one except for ``wall_time`` (real elapsed time,
        which necessarily differs between runs).
        """
        stats = self.all_stats

        def tasks(predicate: Callable[[BatchItemResult], bool]) -> float:
            return float(sum(1 for r in self.results if predicate(r)))

        def total(field_name: str) -> float:
            return float(sum(getattr(s, field_name) for s in stats))

        return {
            "tasks": float(self.n_tasks),
            "repaired": float(self.n_repaired),
            "consistent": float(self.n_consistent),
            "failed": float(self.n_failed),
            "fallbacks": float(self.n_fallbacks),
            "approximate": tasks(lambda r: r.approximate),
            "relaxed": float(self.n_relaxed),
            "quarantined": float(self.n_quarantined),
            "solves": float(len(stats)),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "nodes": total("nodes"),
            "simplex_pivots": total("simplex_pivots"),
            "presolve_reductions": total("presolve_reductions"),
            "warm_start_hits": total("warm_start_hits"),
            "warm_start_fallbacks": total("warm_start_fallbacks"),
            "seeded_solves": float(sum(1 for s in stats if s.heuristic_seeded)),
            "certified": float(self.n_certified),
            "uncertified": float(self.n_uncertified),
            "degraded": tasks(lambda r: any(s.degraded for s in r.stats)),
            "cuts_rejected": total("cuts_rejected"),
            "wall_time": self.wall_time,
            # Summed per-solve wall time (> wall_time when parallel).
            "solver_seconds": sum(s.wall_time for s in stats),
            **{
                f"cascade_{tier}": float(hits)
                for tier, hits in self.cascade_tier_hits.items()
            },
            "milp_free": float(self.n_milp_free),
        }

    def summary(self) -> str:
        numbers = {key: int(value) for key, value in self.aggregate().items()}
        extras = "".join(
            f", {numbers[key]} {label}"
            for key, label in (
                ("certified", "certified"),
                ("uncertified", "UNCERTIFIED"),
                ("degraded", "ladder-degraded"),
                ("approximate", "approximate"),
                ("relaxed", "relaxed"),
                ("quarantined", "quarantined"),
            )
            if numbers[key]
        )
        if self.n_resumed:
            extras += f", {self.n_resumed} resumed"
        if self.pool_respawns:
            extras += f", {self.pool_respawns} pool respawn(s)"
        return (
            f"{self.n_tasks} task(s) in {self.wall_time:.3f}s "
            f"({self.workers or 'no'} worker(s)): "
            f"{self.n_repaired} repaired, {self.n_consistent} consistent, "
            f"{self.n_failed} failed, {self.n_fallbacks} fallback(s)"
            f"{extras}; "
            f"{self.total_solves} solve(s), "
            f"{self.cache_hits} cache hit(s) / {self.cache_misses} miss(es), "
            f"{numbers['nodes']} node(s), {numbers['simplex_pivots']} pivot(s)"
        )


# ---------------------------------------------------------------------------
# Per-task execution (runs inside a worker or in-process)
# ---------------------------------------------------------------------------


def open_solve_cache(
    cache_size: int, store_path: Optional[str] = None
) -> Tuple[Optional[SolveCache], Optional["ResultStore"]]:
    """One process's solve cache and the durable store behind it, if any.

    The caller closes the store.  ``cache_size <= 0`` keeps nothing in
    memory: the cache then only reads through to the store, and there
    is no cache at all without one.
    """
    store = None
    if store_path is not None:
        # Imported here, not at module top: worker processes that run
        # store-less batches never pay for sqlite.
        from repro.repair.store import ResultStore

        store = ResultStore(store_path)
    if cache_size <= 0 and store is None:
        return None, None
    return SolveCache(cache_size, store=store), store


def _retry_crashes(
    dispatch: Callable[[int], Any], max_retries: int, backoff: float
) -> Tuple[Any, int]:
    """Call ``dispatch(attempt)`` until it does not crash.

    Returns its value and the dispatches used.  A
    :class:`~repro.diagnostics.WorkerCrashError` is retried after
    :func:`respawn_delay` backoff, at most *max_retries* times.
    """
    attempt = 0
    delay = backoff
    while True:
        try:
            return dispatch(attempt), attempt + 1
        except WorkerCrashError:
            attempt += 1
            if attempt > max_retries:
                raise
            delay = respawn_delay(backoff, delay)
            if delay > 0:
                time.sleep(delay)


def _attempt(
    task: RepairTask,
    backend: str,
    stats_sink: List[SolveStats],
    *,
    timeout: Optional[float],
    cache: Optional[SolveCache],
    on_infeasible: str,
    strategy: str,
    misrepair_budget: int,
    certify: bool,
) -> Dict[str, Any]:
    """One engine run on one backend: the outcome fields of its result.

    May raise for the fallback logic.  Whatever happens, the engine's
    solver stats land in *stats_sink* -- a failed attempt's work is
    part of the task's accounting too.
    """
    engine = RepairEngine(
        task.database,
        task.constraints,
        backend=backend,
        objective=task.objective,
        weights=task.weights,
        solve_cache=cache,
        on_infeasible=on_infeasible,
        strategy=task.strategy or strategy,
        misrepair_budget=(
            misrepair_budget
            if task.misrepair_budget is None
            else task.misrepair_budget
        ),
        certify=certify,
    )
    try:
        # Pins may demand values the current (consistent) instance does
        # not have, so the consistency short-circuit only applies to
        # pin-free tasks.
        if not task.pins and engine.is_consistent():
            return {"status": "consistent"}
        outcome = engine.find_card_minimal_repair(pins=task.pins, time_limit=timeout)
    finally:
        stats_sink.extend(engine.solve_stats)
    violations = None
    if outcome.relaxed and outcome.violations is not None:
        violations = [v.as_dict() for v in outcome.violations.violations]
    return {
        "status": "relaxed" if outcome.relaxed else "repaired",
        "repair": outcome.repair,
        "objective": outcome.objective,
        "approximate": outcome.approximate,
        "gap": outcome.gap,
        "violations": violations,
        "certified": outcome.certified,
    }


def _combined_failure_status(
    primary_error: BaseException, fallback_error: BaseException
) -> str:
    """Status when every backend tried failed (the errors are one if one ran).

    Both deadlines expiring is a *timeout*, not a generic error; more
    generally the fallback's classification wins unless it is the
    catch-all ``"error"`` and the primary's is more specific.
    """
    primary_status = classify_failure(primary_error)
    fallback_status = classify_failure(fallback_error)
    if fallback_status == "error" and primary_status != "error":
        return primary_status
    return fallback_status


def execute_task(
    task: RepairTask,
    index: int,
    *,
    default_backend: str = DEFAULT_BACKEND,
    timeout: Optional[float] = None,
    cache: Optional[SolveCache] = None,
    on_infeasible: str = "raise",
    strategy: str = "exact",
    misrepair_budget: int = 0,
    certify: bool = True,
    breakers: Optional[Mapping[str, "CircuitBreaker"]] = None,
    fault_config: Optional[FaultConfig] = None,
    max_task_retries: int = 2,
    retry_backoff: float = 0.0,
) -> BatchItemResult:
    """Run one task on its primary backend, then on the alternate.

    The one per-task dispatcher of batch and service.  On each backend
    an optional *breakers* map (the service's circuit breakers) may
    refuse the dispatch -- every backend refused reports
    ``status="breaker_open"`` -- then the sick-backend chaos hook runs,
    its crashes retried ``max_task_retries`` times with
    :func:`respawn_delay` backoff, and the engine gets *timeout* as a
    cooperative budget (expiry with an incumbent yields an approximate
    repair with a certified ``gap``).  Breakers are charged only for
    :data:`BACKEND_FAULT_STATUSES`.  A failure moves on to
    :data:`~repro.milp.solver.FALLBACK_BACKEND` unless no backend can
    fix it (:func:`~repro.diagnostics.is_retryable_on_fallback`), so an
    ``unrepairable`` verdict is confirmed by the alternate; both
    attempts' stats are kept, the alternate's flagged ``fallback``.
    """
    started = time.perf_counter()
    primary = task.backend or default_backend
    stats: List[SolveStats] = []
    # (backend, error, dispatches) of every failed backend, in order.
    failures: List[Tuple[str, Exception, int]] = []
    refused: List[Tuple[str, float]] = []

    def result(**fields: Any) -> BatchItemResult:
        return BatchItemResult(
            index=index, name=task.name, stats=stats,
            wall_time=time.perf_counter() - started, **fields,
        )

    for backend in dict.fromkeys((primary, FALLBACK_BACKEND.get(primary, primary))):
        breaker = None if breakers is None else breakers[backend]
        if breaker is not None and not breaker.allow():
            refused.append((backend, breaker.retry_after()))
            continue
        backend_stats: List[SolveStats] = []
        failure: Optional[Exception] = None
        dispatches = max(max_task_retries, 0) + 1  # a spent crash budget
        try:
            _, dispatches = _retry_crashes(
                lambda attempt: chaos_backend_dispatch(
                    fault_config, backend, index, attempt
                ),
                max_task_retries,
                retry_backoff,
            )
            outcome = _attempt(
                task, backend, backend_stats,
                timeout=timeout, cache=cache, on_infeasible=on_infeasible,
                strategy=strategy, misrepair_budget=misrepair_budget,
                certify=certify,
            )
        except Exception as error:
            failure = error
        if failures:
            for record in backend_stats:
                record.fallback = True
        stats.extend(backend_stats)
        if breaker is not None:
            if failure is not None and classify_failure(failure) in BACKEND_FAULT_STATUSES:
                breaker.record_failure()
            else:
                breaker.record_success()
        if failure is None:
            return result(
                backend_used=backend,
                fallback_taken=bool(failures),
                attempts=dispatches,
                error=(
                    f"primary backend {failures[0][0]!r} failed: {failures[0][1]}"
                    if failures
                    else None
                ),
                **outcome,
            )
        failures.append((backend, failure, dispatches))
        if not is_retryable_on_fallback(failure):
            break
    if not failures:
        names = ", ".join(name for name, _ in refused)
        return result(
            status="breaker_open",
            error=(
                f"all eligible backends have open breakers ({names}); "
                f"retry in {min(after for _, after in refused):.1f}s"
            ),
        )
    (first, first_error, _), (last, last_error, dispatches) = failures[0], failures[-1]
    both = len(failures) > 1
    return result(
        status=_combined_failure_status(first_error, last_error),
        backend_used=last,
        fallback_taken=both,
        attempts=dispatches,
        error=(
            f"primary {first!r}: {first_error}; fallback {last!r}: {last_error}"
            if both
            else str(last_error)
        ),
    )


def _quarantined_result(
    index: int, task: RepairTask, crashes: int, last_error: Optional[str]
) -> BatchItemResult:
    detail = f": {last_error}" if last_error else ""
    return BatchItemResult(
        index=index,
        name=task.name,
        status="quarantined",
        attempts=crashes,
        error=(
            f"worker crashed {crashes} time(s) running this task; "
            f"quarantined{detail}"
        ),
    )


def _run_in_process(
    task: RepairTask,
    index: int,
    cache: Optional[SolveCache],
    dispatch: Mapping[str, Any],
) -> BatchItemResult:
    """One task in this process, re-dispatched after each worker death.

    The in-process analogue of the pool's respawn: a task whose
    "worker" keeps dying is quarantined after ``max_task_retries``
    retries.
    """

    def dispatch_once(attempt: int) -> BatchItemResult:
        chaos_before_task(dispatch["fault_config"], index, attempt, in_pool=False)
        return execute_task(task, index, cache=cache, **dispatch)

    max_retries = dispatch["max_task_retries"]
    try:
        result, dispatches = _retry_crashes(
            dispatch_once, max_retries, dispatch["retry_backoff"]
        )
    except WorkerCrashError as crash:
        return _quarantined_result(index, task, max(max_retries, 0) + 1, str(crash))
    result.attempts += dispatches - 1
    return result


# ---------------------------------------------------------------------------
# Worker plumbing
# ---------------------------------------------------------------------------

#: Per-process solve cache, created by the pool initializer.  Module
#: level so forked/spawned workers reuse it across chunks.
_WORKER_CACHE: Optional[SolveCache] = None

#: A chunk entry: (task index, dispatch attempt, task).
_Entry = Tuple[int, int, RepairTask]


def _init_worker(cache_size: int, store_path: Optional[str] = None) -> None:
    global _WORKER_CACHE
    # A forked worker inherits its parent's signal handlers (the repair
    # service's SIGTERM drain, say); the watchdog's terminate() must
    # still kill it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_CACHE, _ = open_solve_cache(cache_size, store_path)


def _sentinel(sentinel_dir: str, index: int, attempt: int, stage: str) -> None:
    """Mark a dispatch stage on disk so the parent can autopsy a crash."""
    Path(sentinel_dir, f"{index}.{attempt}.{stage}").touch()


def _sentinel_exists(sentinel_dir: str, index: int, attempt: int, stage: str) -> bool:
    return Path(sentinel_dir, f"{index}.{attempt}.{stage}").exists()


def _clear_sentinels(sentinel_dir: str, index: int, attempt: int) -> None:
    """Remove one dispatch's sentinel files once their autopsy is done.

    A crashed attempt's ``start`` marker must not outlive the blame
    decision it informed: were it left behind, any later scan of the
    directory (the hung-task watchdog, a diagnostic sweep) would see a
    started-but-never-finished dispatch and re-convict a task that
    already paid for that crash.
    """
    for stage in ("start", "done"):
        try:
            Path(sentinel_dir, f"{index}.{attempt}.{stage}").unlink()
        except OSError:
            pass


#: Name of the pid file each orchestrator writes into its sentinel
#: directory, so a later run can tell a live run's directory from a
#: leaked one.
_OWNER_PID_FILE = "owner.pid"


def _pid_alive(pid: int) -> bool:
    """Is *pid* a live process we could signal?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by other uid
        return True
    except OSError:  # pragma: no cover - platform oddities
        return False
    return True


def reap_stale_sentinel_dirs(root: Optional[str] = None) -> List[str]:
    """Delete sentinel directories whose owning orchestrator is gone.

    ``_run_pool``'s ``finally`` removes its sentinel directory -- but
    ``kill -9`` (or the fault injector's SIGKILL landing on the parent)
    skips ``finally``, leaking a directory full of
    ``{index}.{attempt}.start`` files in the temp root.  Each directory
    carries its creator's pid (:data:`_OWNER_PID_FILE`); on startup we
    sweep ``repro-batch-*`` directories and remove those whose owner is
    dead, so a prior run's sentinels can never survive to blame an
    innocent task (and the temp root stops accumulating corpses).
    Directories with a *live* owner -- a concurrent batch on the same
    machine -- are left strictly alone.  Returns the paths reaped.
    """
    reaped: List[str] = []
    temp_root = Path(root or tempfile.gettempdir())
    try:
        candidates = list(temp_root.glob("repro-batch-*"))
    except OSError:  # pragma: no cover - unreadable temp root
        return reaped
    for candidate in candidates:
        if not candidate.is_dir():
            continue
        pid_file = candidate / _OWNER_PID_FILE
        try:
            owner = int(pid_file.read_text().strip())
        except (OSError, ValueError):
            # No/garbled pid file: a pre-upgrade leak or a directory
            # torn mid-creation.  Either way nobody owns it.
            owner = -1
        if _pid_alive(owner):
            continue
        shutil.rmtree(candidate, ignore_errors=True)
        reaped.append(str(candidate))
    return reaped


def _run_chunk(payload: Tuple) -> List[BatchItemResult]:
    """Execute one chunk of entries inside a worker."""
    chunk, sentinel_dir, dispatch = payload
    results = []
    for index, attempt, task in chunk:
        _sentinel(sentinel_dir, index, attempt, "start")
        chaos_before_task(dispatch["fault_config"], index, attempt, in_pool=True)
        result = execute_task(task, index, cache=_WORKER_CACHE, **dispatch)
        result.attempts += attempt
        _sentinel(sentinel_dir, index, attempt, "done")
        results.append(result)
    return results


def _chunked(items: Sequence, chunksize: int) -> List[List]:
    return [
        list(items[start : start + chunksize])
        for start in range(0, len(items), chunksize)
    ]


# ---------------------------------------------------------------------------
# Pool orchestration with crash recovery
# ---------------------------------------------------------------------------


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-kill every live worker (watchdog path for hung tasks)."""
    for process in list(getattr(pool, "_processes", {}).values()):
        if process.is_alive():
            process.terminate()


def _hung_entry(
    sentinel_dir: str, entries: Sequence[_Entry], hard_timeout: float
) -> Optional[_Entry]:
    """An in-flight entry whose start sentinel is older than the watchdog."""
    now = time.time()
    for index, attempt, task in entries:
        if _sentinel_exists(sentinel_dir, index, attempt, "done"):
            continue
        try:
            age = now - Path(sentinel_dir, f"{index}.{attempt}.start").stat().st_mtime
        except OSError:  # not started yet
            continue
        if age > hard_timeout:
            return (index, attempt, task)
    return None




def _run_generation(
    chunks: List[List[_Entry]],
    *,
    workers: int,
    cache_size: int,
    store_path: Optional[str],
    sentinel_dir: str,
    hard_timeout: Optional[float],
    dispatch: Mapping[str, Any],
    on_result: Callable[[BatchItemResult], None],
) -> Tuple[List[_Entry], bool]:
    """Run one pool lifetime; returns (undelivered entries, pool broke).

    A generation ends either cleanly (every chunk returned) or on the
    first sign of a broken pool -- a future raising
    ``BrokenProcessPool`` (worker died) or the watchdog terminating a
    hung worker.  Entries whose results were not delivered are handed
    back for the next generation; the caller decides which of them
    were at fault (via sentinels) and which were innocent bystanders.
    """
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(cache_size, store_path),
    )
    futures: Dict[Future, List[_Entry]] = {}
    broke = False
    delivered: set = set()
    try:
        for chunk in chunks:
            try:
                payload = (chunk, sentinel_dir, dispatch)
                futures[pool.submit(_run_chunk, payload)] = chunk
            except Exception:
                broke = True
                break
        pending = set(futures)
        while pending and not broke:
            done, pending = wait(
                pending, timeout=POLL_INTERVAL, return_when=FIRST_COMPLETED
            )
            if not done:
                if hard_timeout is None:
                    continue
                in_flight = [e for f in pending for e in futures[f]]
                if _hung_entry(sentinel_dir, in_flight, hard_timeout) is not None:
                    # The futures of the terminated workers now fail
                    # with BrokenProcessPool and drain through the
                    # normal collection path below.
                    _terminate_workers(pool)
                continue
            for future in done:
                try:
                    chunk_results = future.result()
                except Exception:
                    # BrokenProcessPool, lost worker, unpicklable blow-up:
                    # stop the generation and let the caller autopsy.
                    broke = True
                    break
                for result in chunk_results:
                    on_result(result)
                    delivered.add(result.index)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    # Entries never submitted (submit itself broke) are undelivered too.
    remaining = [
        entry for chunk in chunks for entry in chunk if entry[0] not in delivered
    ]
    return remaining, broke


def _run_pool(
    indexed: List[Tuple[int, RepairTask]],
    *,
    workers: int,
    cache_size: int,
    store_path: Optional[str],
    chunksize: int,
    hard_timeout: Optional[float],
    dispatch: Mapping[str, Any],
    on_result: Callable[[BatchItemResult], None],
) -> int:
    """Drive the pool to completion through crashes; returns respawn count."""
    max_task_retries = dispatch["max_task_retries"]
    retry_backoff = dispatch["retry_backoff"]
    crashes: Dict[int, int] = {index: 0 for index, _ in indexed}
    entries: List[_Entry] = [(index, 0, task) for index, task in indexed]
    # First, bury the dead: sentinel directories leaked by orchestrators
    # that were SIGKILLed (finally never ran) must not linger.
    reap_stale_sentinel_dirs()
    sentinel_dir = tempfile.mkdtemp(prefix="repro-batch-")
    Path(sentinel_dir, _OWNER_PID_FILE).write_text(str(os.getpid()))
    respawns = 0
    delay = retry_backoff
    try:
        generation = 0
        while entries:
            # Blame from a broken pool is ambiguous: every task that was
            # mid-flight when the pool died looks guilty.  So after the
            # first crash, schedule in waves -- innocents (no crashes
            # yet) run together, shielded from known suspects, and each
            # suspect then runs in a generation of its own where a crash
            # is an unambiguous conviction and a clean exit clears it.
            suspects = [e for e in entries if crashes[e[0]] > 0]
            innocents = [e for e in entries if crashes[e[0]] == 0]
            if generation == 0:
                wave, size, deferred = entries, chunksize, []
            elif innocents and suspects:
                wave, size, deferred = innocents, 1, suspects
            elif len(suspects) > 1:
                wave, size, deferred = suspects[:1], 1, suspects[1:]
            else:
                # After any crash, singleton chunks: one poison task can
                # no longer take chunkmates down with it repeatedly.
                wave, size, deferred = entries, 1, []
            remaining, broke = _run_generation(
                _chunked(wave, size),
                workers=workers,
                cache_size=cache_size,
                store_path=store_path,
                sentinel_dir=sentinel_dir,
                hard_timeout=hard_timeout,
                dispatch=dispatch,
                on_result=on_result,
            )
            generation += 1
            if not broke:
                if remaining:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"pool finished cleanly with {len(remaining)} "
                        f"undelivered task(s)"
                    )
                entries = deferred
                continue
            respawns += 1
            next_entries: List[_Entry] = []
            for index, attempt, task in remaining:
                started = _sentinel_exists(sentinel_dir, index, attempt, "start")
                finished = _sentinel_exists(sentinel_dir, index, attempt, "done")
                # The autopsy is over for this dispatch: retire its
                # sentinel files so they can never inform (or misinform)
                # a later scan of the directory.
                _clear_sentinels(sentinel_dir, index, attempt)
                if started and not finished:
                    # This task was mid-flight when its worker died:
                    # the prime suspect.  Count the crash against it.
                    crashes[index] += 1
                    if crashes[index] > max_task_retries:
                        on_result(
                            _quarantined_result(
                                index, task, crashes[index], "worker died mid-task"
                            )
                        )
                        continue
                # Innocent bystanders (never started, or finished but
                # the chunk's result died with the worker) retry free.
                # Either way the re-dispatch gets a fresh attempt
                # number so sentinel files and fault-injection
                # decisions do not collide with the crashed dispatch.
                next_entries.append((index, attempt + 1, task))
            entries = next_entries + deferred
            if entries:
                delay = respawn_delay(retry_backoff, delay)
                if delay > 0:
                    time.sleep(delay)
    finally:
        shutil.rmtree(sentinel_dir, ignore_errors=True)
    return respawns


# ---------------------------------------------------------------------------
# The public entry point
# ---------------------------------------------------------------------------


def repair_batch(
    tasks: Sequence[RepairTask],
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    store: Optional[str] = None,
    chunksize: Optional[int] = None,
    backend: str = DEFAULT_BACKEND,
    checkpoint: Optional[str] = None,
    resume: bool = True,
    max_task_retries: int = 2,
    retry_backoff: float = 0.1,
    hard_timeout: Optional[float] = None,
    fault_config: Optional[FaultConfig] = None,
    on_infeasible: str = "raise",
    strategy: str = "exact",
    misrepair_budget: int = 0,
    certify: bool = True,
) -> BatchReport:
    """Repair every task, in parallel when ``workers >= 1``.

    Every task goes through :func:`execute_task`.  Results come back in
    task order whatever the completion order.  ``workers=None`` (or 0)
    runs in-process with one cache shared by the whole corpus; with a
    pool, each worker process holds its own LRU cache of ``cache_size``
    solutions (``cache_size=0`` disables caching).  ``timeout`` is the
    per-task solve budget in seconds (cooperative, monotonic-clock),
    applied independently to the primary attempt and to the fallback
    retry; a budget expiring with an incumbent yields an approximate
    repair with a certified gap.

    ``store`` names a durable content-addressed result store
    (:class:`~repro.repair.store.ResultStore`, SQLite): every worker's
    cache gains a shared disk tier, so byte-identical models are solved
    at most once *across* runs and processes, not just within one
    worker's LRU.  Only first-rung exact-certified answers are admitted
    to the store, and hits are re-certified on read.

    ``checkpoint`` names a journal file
    (:class:`~repro.repair.checkpoint.RunJournal`): completed tasks are
    appended (fsync'd) as they finish, and when ``resume`` is true an
    existing journal replays its fingerprint-verified results instead
    of re-solving them.  ``max_task_retries`` bounds how often a task
    whose worker crashed is re-dispatched before quarantine;
    ``retry_backoff`` seeds the exponential respawn delay.
    ``hard_timeout`` arms a watchdog that terminates a worker whose
    current task has run that many wall-clock seconds (hung native
    code); the task then follows the crash/quarantine path.
    ``fault_config`` threads a chaos configuration into the workers --
    testing only.  ``on_infeasible`` is forwarded to every task's
    :class:`~repro.repair.engine.RepairEngine`: ``"relax"`` turns
    infeasible tasks into ``status="relaxed"`` results carrying their
    violation report instead of ``status="infeasible"``.

    ``strategy`` selects the repair path for every task that does not
    carry its own override (``"exact"`` or ``"cascade"``, see
    :mod:`repro.repair.cascade`); ``misrepair_budget`` is the
    cascade-wide ambiguity allowance forwarded alongside it.  Both are
    part of the checkpoint identity: a journal written under one
    strategy is never replayed for another.

    ``certify`` (default on) makes every engine verify its repair in
    exact rational arithmetic (:mod:`repro.milp.certify`) and lets the
    numerics governor re-solve down its degradation ladder on a
    certification failure.  Results that are uncertified or that only
    exist because the ladder degraded the solve are **never written to
    the checkpoint journal**, and a resume replays only certified
    repairs: the resumed run re-derives the rest from scratch rather
    than replay a numerically suspect answer.
    """
    if on_infeasible not in ON_INFEASIBLE_MODES:
        raise ValueError(
            f"on_infeasible must be one of {ON_INFEASIBLE_MODES}, "
            f"got {on_infeasible!r}"
        )
    if strategy not in STRATEGIES:
        raise ValueError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}"
        )
    task_list = list(tasks)
    started = time.perf_counter()
    dispatch: Dict[str, Any] = {
        "default_backend": backend,
        "timeout": timeout,
        "on_infeasible": on_infeasible,
        "strategy": strategy,
        "misrepair_budget": misrepair_budget,
        "certify": certify,
        "fault_config": fault_config,
        "max_task_retries": max_task_retries,
        "retry_backoff": retry_backoff,
    }
    journal = None if checkpoint is None else RunJournal(checkpoint, dispatch)
    results = {} if journal is None else journal.open(task_list, resume=resume)

    def deliver(result: BatchItemResult) -> None:
        if journal is not None:
            journal.record(result, task_list[result.index])
        results[result.index] = result

    todo = [
        (index, task) for index, task in enumerate(task_list) if index not in results
    ]
    respawns = 0
    if workers and workers >= 1:
        if chunksize is None:
            chunksize = max(1, (len(todo) + workers * 4 - 1) // (workers * 4))
        respawns = _run_pool(
            todo,
            workers=workers,
            cache_size=cache_size,
            store_path=None if store is None else str(store),
            chunksize=chunksize,
            hard_timeout=hard_timeout,
            dispatch=dispatch,
            on_result=deliver,
        )
    else:
        workers = 0
        cache, store_obj = open_solve_cache(cache_size, store)
        try:
            for index, task in todo:
                deliver(_run_in_process(task, index, cache, dispatch))
        finally:
            if store_obj is not None:
                store_obj.close()
    return BatchReport(
        results=[results[index] for index in range(len(task_list))],
        wall_time=time.perf_counter() - started,
        workers=workers,
        cache_size=cache_size,
        timeout=timeout,
        pool_respawns=respawns,
        checkpoint=None if checkpoint is None else str(checkpoint),
        store=None if store is None else str(store),
    )


def tasks_from_databases(
    databases: Sequence[Database],
    constraints: Sequence[AggregateConstraint],
    *,
    name_prefix: str = "doc",
    **task_options,
) -> List[RepairTask]:
    """Convenience: one task per database, shared constraints."""
    return [
        RepairTask(
            database=database,
            constraints=constraints,
            name=f"{name_prefix}{index}",
            **task_options,
        )
        for index, database in enumerate(databases)
    ]
