"""Long-running repair service: the batch dispatcher, made into a daemon.

``repair_batch`` is a one-shot tool: it runs a corpus to completion and
exits, paying full MILP cost for anything the previous invocation
already solved.  A data-entry shop does not work in one shot -- it is a
*service*: documents arrive continuously, duplicates are common across
days, backends get sick and recover, deploys send SIGTERM mid-batch,
and machines die without warning.  :class:`RepairService` runs every
task through ``repair_batch``'s dispatcher,
:func:`~repro.repair.batch.execute_task` (same fallback, crash retries,
solve cache and :class:`~repro.repair.checkpoint.RunJournal`), and
adds the machinery that setting needs:

- **durable result store** -- every service owns a
  :class:`~repro.repair.store.ResultStore` threaded into its solve
  cache as a second tier, so a document repaired *yesterday* is a disk
  hit today (re-certified on read, per the store's admission contract);
- **async intake with admission control** -- :meth:`RepairService.submit`
  enqueues work and returns a ticket; above the queue's high watermark
  it refuses with :class:`~repro.diagnostics.OverloadedError` carrying
  ``retry_after``.  Bounded backpressure: the caller resubmits later,
  the service never grows an unbounded queue and falls over at the
  worst moment;
- **per-backend circuit breakers** -- a backend whose dispatches keep
  dying (segfaulting native code, a broken install) trips its
  :class:`CircuitBreaker` open; traffic shifts to the alternate backend
  (:data:`~repro.milp.solver.FALLBACK_BACKEND`) immediately instead of
  paying the failure repeatedly.  After a cooldown the breaker goes
  *half-open* and admits one probe: success re-closes it, failure
  re-opens.  A breaker is charged only for backend faults
  (:data:`~repro.repair.batch.BACKEND_FAULT_STATUSES`), never for an
  honest verdict, and layers on (never replaces) the dispatcher's
  per-backend crash retries with decorrelated-jitter backoff;
- **health and readiness probes** -- :meth:`RepairService.health` /
  :meth:`RepairService.ready` expose queue depth, breaker states and
  store counters as plain dicts for an operator or an orchestrator's
  probe endpoint.  :meth:`RepairService.result` hands each finished
  ticket over once and then forgets it, so memory does not grow with
  the number of tickets served;
- **graceful drain** -- SIGTERM (see
  :meth:`RepairService.install_signal_handlers`) finishes the task in
  flight, journals it, writes the still-pending ticket indices to a
  ``<journal>.pending`` manifest, and stops.  Nothing is lost, nothing
  is half-done;
- **crash recovery** -- a service restarted after ``kill -9`` replays
  its checkpoint journal against the resubmitted corpus (certified
  repairs only: an uncertified tail is re-solved, never inherited) and
  the store makes the re-solves disk hits, so the restarted run
  completes identically to an uninterrupted one.

The service is single-threaded and runs every task in its own process:
there is no worker pool between :meth:`submit` and the solver, so a
native crash inside a backend takes the service down with it (the
sick-backend chaos fault only raises).  What this class adds is
*lifecycle*: intake and admission, breakers, drain, and probes.
"""

from __future__ import annotations

import signal
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.diagnostics import OverloadedError
from repro.faultinject import FaultConfig
from repro.milp.cache import DEFAULT_CACHE_SIZE
from repro.milp.solver import DEFAULT_BACKEND
from repro.repair.batch import BACKEND_FAULT_STATUSES  # noqa: F401 (re-export)
from repro.repair.batch import (
    BatchItemResult,
    BatchReport,
    RepairTask,
    execute_task,
    open_solve_cache,
)
from repro.repair.checkpoint import RunJournal
from repro.repair.store import StoreIntegrityReport

#: Default intake queue high watermark.
DEFAULT_MAX_PENDING = 256

#: Default consecutive failures before a breaker opens.
DEFAULT_BREAKER_THRESHOLD = 3

#: Default seconds an open breaker waits before a half-open probe.
DEFAULT_BREAKER_COOLDOWN = 30.0

#: Intake latencies the health quantiles are taken over: the most
#: recent ones only, so memory does not grow with requests served.
INTAKE_LATENCY_WINDOW = 4096


class CircuitBreaker:
    """Closed / open / half-open dispatch gate for one backend.

    Closed is the healthy state: every dispatch is allowed and a
    success resets the consecutive-failure counter.  After
    ``failure_threshold`` consecutive failures the breaker opens:
    dispatches are refused outright (no work wasted on a sick backend)
    until ``cooldown`` seconds have passed on the monotonic clock.
    Then one **probe** is admitted (half-open): its success re-closes
    the breaker, its failure re-opens it for another full cooldown.
    Only one probe is ever in flight -- a second ``allow`` during a
    probe is refused, so a recovering backend is not stampeded.

    *clock* is injectable so tests drive time explicitly.
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown = float(cooldown)
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        return "half-open" if self._probing or not self.retry_after() else "open"

    def allow(self) -> bool:
        """May a dispatch proceed right now?  (May start a probe.)"""
        if self._opened_at is None:
            return True
        if self._probing or self.retry_after():
            return False  # one probe at a time; none before the cooldown
        self._probing = True
        return True

    def retry_after(self) -> float:
        """Seconds until the next dispatch could be admitted."""
        if self._opened_at is None:
            return 0.0
        remaining = self.cooldown - (self._clock() - self._opened_at)
        return max(0.0, remaining)

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._failures += 1
        if self._probing or self._failures >= self.failure_threshold:
            # A failed probe re-opens for a fresh cooldown; enough
            # consecutive failures open a closed breaker.
            self._opened_at = self._clock()
            self._probing = False
            self._failures = 0


@dataclass
class ServiceConfig:
    """Everything a :class:`RepairService` needs to run.

    ``store`` and ``checkpoint`` are both optional but a durable
    service wants both: the store makes re-solves free, the journal
    makes restarts lossless.
    """

    store: Optional[str] = None
    checkpoint: Optional[str] = None
    backend: str = DEFAULT_BACKEND
    timeout: Optional[float] = None
    cache_size: int = DEFAULT_CACHE_SIZE
    on_infeasible: str = "raise"
    strategy: str = "exact"
    misrepair_budget: int = 0
    certify: bool = True
    #: Intake queue high watermark; ``submit`` above it is refused.
    max_pending: int = DEFAULT_MAX_PENDING
    #: Suggested resubmission delay carried by ``OverloadedError``.
    retry_after: float = 1.0
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN
    #: Crash retries per backend candidate before it counts as a
    #: backend failure.
    max_task_retries: int = 2
    #: Base of the decorrelated-jitter crash-retry backoff, seconds.
    retry_backoff: float = 0.0
    #: Chaos configuration (testing only).
    fault_config: Optional[FaultConfig] = None


@dataclass
class _Ticket:
    index: int
    task: RepairTask
    submitted_at: float


class RepairService:
    """A long-running repair daemon over the batch engine.

    Lifecycle: construct, optionally ``install_signal_handlers``, then
    either feed it with ``submit`` + ``process_pending`` (service
    style) or hand it a whole corpus with ``run`` (batch style with
    service semantics: store, breakers, journal replay).  ``close``
    when done; the instance is also a context manager.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.cache, self.store = open_solve_cache(config.cache_size, config.store)
        self.breakers: Dict[str, CircuitBreaker] = defaultdict(
            lambda: CircuitBreaker(config.breaker_threshold, config.breaker_cooldown)
        )
        #: The :func:`execute_task` settings every dispatch runs with.
        self._dispatch: Dict[str, Any] = {
            "default_backend": config.backend,
            "timeout": config.timeout,
            "on_infeasible": config.on_infeasible,
            "strategy": config.strategy,
            "misrepair_budget": config.misrepair_budget,
            "certify": config.certify,
            "fault_config": config.fault_config,
            "max_task_retries": config.max_task_retries,
            "retry_backoff": config.retry_backoff,
        }
        self._journal = (
            None if config.checkpoint is None
            else RunJournal(config.checkpoint, self._dispatch)
        )
        self._queue: Deque[_Ticket] = deque()
        self._next_index = 0
        #: Finished tickets not yet handed over by :meth:`result`.
        self._finished: Dict[int, BatchItemResult] = {}
        self._completed = 0
        self._intake_latencies: Deque[float] = deque(maxlen=INTAKE_LATENCY_WINDOW)
        self._draining = False
        self._started = time.perf_counter()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "RepairService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def install_signal_handlers(self) -> Dict[int, Any]:
        """SIGTERM / SIGINT request a graceful drain, not an abort.

        The handler only flips a flag; the processing loop notices it
        *between* tasks, so the task in flight always finishes and is
        journalled before the service stops.  Call from the main
        thread only (a CPython ``signal`` restriction).  Returns the
        handlers it replaced, by signal number, for the caller to put
        back with ``signal.signal`` when the service is done.
        """

        def _request_drain(signum: int, frame: object) -> None:  # noqa: ARG001
            self._draining = True

        return {
            signum: signal.signal(signum, _request_drain)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }

    def request_drain(self) -> None:
        """Programmatic equivalent of receiving SIGTERM."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    # -- intake ------------------------------------------------------------

    def submit(self, task: RepairTask) -> int:
        """Enqueue one task; returns its ticket index.

        Refuses with :class:`~repro.diagnostics.OverloadedError` when
        the queue is at its high watermark or the service is draining
        -- the caller backs off ``retry_after`` seconds and resubmits.
        Admission is the *only* unbounded input path, so bounding it
        here bounds the whole service's memory.
        """
        if self._draining:
            raise OverloadedError(
                "service is draining; resubmit to the next instance",
                retry_after=self.config.retry_after,
                pending=len(self._queue),
            )
        if len(self._queue) >= self.config.max_pending:
            raise OverloadedError(
                f"intake queue is full ({len(self._queue)} >= "
                f"{self.config.max_pending} pending)",
                retry_after=self.config.retry_after,
                pending=len(self._queue),
            )
        index = self._next_index
        self._next_index += 1
        self._queue.append(_Ticket(index, task, time.perf_counter()))
        return index

    def result(self, index: int) -> Optional[BatchItemResult]:
        """Hand over a finished ticket's result, once.

        ``None`` while the ticket is pending -- and after its result
        has been handed over: the service forgets what it delivered, so
        its memory does not grow with the number of tickets served.
        """
        return self._finished.pop(index, None)

    def process_pending(self, max_tasks: Optional[int] = None) -> int:
        """Work the queue (up to *max_tasks*); returns tasks completed.

        Stops early when a drain has been requested; the remaining
        tickets stay queued and are recorded by :meth:`drain`.
        """
        completed = 0
        while self._queue and (max_tasks is None or completed < max_tasks):
            if self._draining and completed > 0:
                break
            ticket = self._queue.popleft()
            self._intake_latencies.append(
                time.perf_counter() - ticket.submitted_at
            )
            result = self._execute(ticket.task, ticket.index)
            self._finished[ticket.index] = result
            completed += 1
        return completed

    def drain(self) -> List[int]:
        """Finish nothing more; persist the queue; return its indices.

        Writes the pending ticket indices to ``<checkpoint>.pending``
        (when a journal is configured) so the operator -- or the
        restarted service -- knows exactly what was admitted but never
        run.  Idempotent.
        """
        self._draining = True
        pending = [ticket.index for ticket in self._queue]
        if self._journal is not None:
            self._journal.write_pending(pending)
        return pending

    # -- execution ---------------------------------------------------------

    def _breaker(self, backend: str) -> CircuitBreaker:
        return self.breakers[backend]

    def _execute(self, task: RepairTask, index: int) -> BatchItemResult:
        """Dispatch one task through the breakers and deliver it."""
        result = execute_task(
            task, index, cache=self.cache, breakers=self.breakers, **self._dispatch
        )
        self._deliver(result, task)
        return result

    def _deliver(self, result: BatchItemResult, task: RepairTask) -> None:
        if self._journal is not None:
            self._journal.record(result, task)
        self._completed += 1

    # -- batch-style entry point -------------------------------------------

    def run(self, tasks: Sequence[RepairTask], *, resume: bool = True) -> BatchReport:
        """Service-run a whole corpus; returns a standard batch report.

        With a journal configured and ``resume=True``, completed tasks
        from a previous (possibly killed) incarnation are replayed --
        certified repairs only, so an uncertified tail is re-solved
        rather than inherited -- and only the remainder is executed.
        The store then turns most of those re-solves into disk hits,
        which is what makes restart-and-complete cheap.  A drain
        request stops the loop between tasks; the report then covers
        only the delivered prefix and the ``.pending`` manifest records
        the rest.
        """
        task_list = list(tasks)
        started = time.perf_counter()
        results: Dict[int, BatchItemResult] = {}
        if self._journal is not None:
            results = self._journal.open(task_list, resume=resume)
        self._completed += len(results)
        for index, task in enumerate(task_list):
            if index in results:
                continue
            if self._draining:
                break
            ticket_start = time.perf_counter()
            results[index] = self._execute(task, index)
            self._intake_latencies.append(time.perf_counter() - ticket_start)
        self._next_index = max(self._next_index, len(task_list))
        if self._draining and self._journal is not None:
            self._journal.write_pending(
                [index for index in range(len(task_list)) if index not in results]
            )
        return BatchReport(
            results=[results[index] for index in sorted(results)],
            wall_time=time.perf_counter() - started,
            workers=0,
            cache_size=self.config.cache_size,
            timeout=self.config.timeout,
            checkpoint=self.config.checkpoint,
            store=self.config.store,
        )

    # -- observability -----------------------------------------------------

    def intake_latency(self, quantile: float) -> float:
        """The *quantile* (0..1) of recent intake latencies, seconds.

        Taken over the last :data:`INTAKE_LATENCY_WINDOW` requests.
        """
        return self._intake_quantiles(quantile)[0]

    def _intake_quantiles(self, *quantiles: float) -> List[float]:
        if not self._intake_latencies:
            return [0.0] * len(quantiles)
        ordered = sorted(self._intake_latencies)
        last = len(ordered) - 1
        return [
            ordered[min(last, max(0, int(round(quantile * last))))]
            for quantile in quantiles
        ]

    def health(self) -> Dict[str, object]:
        """Liveness probe payload: what the service is doing right now."""
        cache_info = None if self.cache is None else self.cache.info()
        intake_p50, intake_p99 = self._intake_quantiles(0.50, 0.99)
        return {
            "status": "draining" if self._draining else "ok",
            "uptime": time.perf_counter() - self._started,
            "pending": len(self._queue),
            "completed": self._completed,
            "max_pending": self.config.max_pending,
            "breakers": {
                backend: breaker.state
                for backend, breaker in sorted(self.breakers.items())
            },
            "cache": None if cache_info is None else {
                "hits": cache_info.hits,
                "misses": cache_info.misses,
                "store_hits": cache_info.store_hits,
            },
            "store": None if self.store is None else self.store.info().as_dict(),
            "intake_p50": intake_p50,
            "intake_p99": intake_p99,
        }

    def ready(self) -> Dict[str, object]:
        """Readiness probe: should a router send this instance work?

        Not ready while draining (the instance is going away), while
        the queue is at its watermark (submits would be refused
        anyway), or when every known backend's breaker is open (work
        would be accepted and then immediately refused downstream).
        """
        breakers_all_open = bool(self.breakers) and all(
            breaker.state == "open" for breaker in self.breakers.values()
        )
        ready = (
            not self._draining
            and len(self._queue) < self.config.max_pending
            and not breakers_all_open
        )
        return {
            "ready": ready,
            "draining": self._draining,
            "queue_full": len(self._queue) >= self.config.max_pending,
            "breakers_all_open": breakers_all_open,
        }

    def integrity_report(self) -> Optional[StoreIntegrityReport]:
        """Run the store's integrity scan (``None`` without a store)."""
        if self.store is None:
            return None
        return self.store.integrity_scan()
