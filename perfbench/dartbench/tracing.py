"""Spans around the program's public entry points, recorded in memory.

The benchmark does not edit the program.  For a traced run it replaces
each public function at the binding its caller looks it up through -- a
module global such as ``repro.repair.engine.translate`` or a class
attribute such as ``ResultStore.get`` -- with a shim that records a span
(name, start, end, parent, document id) and calls the original.  The
originals are restored when the run ends.

Every span is named ``<layer>:<function>``; the layer is the module the
function belongs to.  A layer's *self time* is its spans' duration minus
the duration of their direct children, so nested spans are never
counted twice.  Two very hot functions of the wrapper
(``most_similar_item`` and ``levenshtein``) are only counted, not timed:
a span per call would cost more than the call itself.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: int
    end: int
    #: index of the enclosing span in :attr:`Tracer.spans`, -1 for a root
    parent: int
    doc: int

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Nested spans and counters of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.doc = -1
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.doc))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def document(self, doc: int) -> Iterator[int]:
        """The root span of one document or request."""
        self.doc = doc
        index = self.begin("doc:request")
        try:
            yield index
        finally:
            self.end(index)
            self.doc = -1

    def self_times(self) -> List[int]:
        """Per span: its duration minus its direct children's."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def dump(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": span.name,
                "start_ns": span.start,
                "end_ns": span.end,
                "parent": span.parent,
                "doc": span.doc,
            }
            for span in self.spans
        ]


# ---------------------------------------------------------------------------
# Hooks that read counts off a shimmed call's result
# ---------------------------------------------------------------------------


def _wrapped(tracer: Tracer, result: Any, args: Tuple) -> None:
    tracer.counters["wrapping.repaired_strings"] += result.n_repaired_strings


def _generated(tracer: Tracer, result: Any, args: Tuple) -> None:
    tracer.counters["dbgen.skipped_rows"] += len(result.skipped)


def _grounded(tracer: Tracer, result: Any, args: Tuple) -> None:
    tracer.counters["grounding.ground_rows"] += len(result)


def _translated(tracer: Tracer, result: Any, args: Tuple) -> None:
    tracer.counters["translation.milp_rows"] += result.model.n_constraints


def _solved(tracer: Tracer, result: Any, args: Tuple) -> None:
    _, stats = result
    tracer.counters["milp.solves"] += 1
    tracer.counters["milp.degraded"] += int(bool(stats.degraded))


def _cache_looked_up(tracer: Tracer, result: Any, args: Tuple) -> None:
    tracer.counters["milp.cache.gets"] += 1
    tracer.counters["milp.cache.hits"] += int(result is not None)


def _store_read(tracer: Tracer, result: Any, args: Tuple) -> None:
    tracer.counters["store.gets"] += 1
    tracer.counters["store.hits"] += int(result is not None)


def _validated(tracer: Tracer, result: Any, args: Tuple) -> None:
    tracer.counters["interactive.iterations"] += result.iterations
    tracer.counters["interactive.inspections"] += result.values_inspected


#: (owner, attribute, layer, result hook).  The owner is ``module`` for a
#: module-level binding or ``module:Class`` for a method; the binding is
#: the one the caller looks the function up through.
SPAN_SHIMS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.system:DartSystem", "process", "system", None),
    ("repro.acquisition.conversion:AcquisitionModule", "acquire", "acquisition", None),
    ("repro.wrapping.wrapper:Wrapper", "wrap_html", "wrapping", _wrapped),
    ("repro.wrapping.dbgen:DatabaseGenerator", "generate", "dbgen", _generated),
    ("repro.repair.interactive:ValidationLoop", "run", "interactive", _validated),
    ("repro.repair.engine:RepairEngine", "__init__", "engine", None),
    ("repro.repair.engine:RepairEngine", "find_card_minimal_repair", "engine", None),
    ("repro.constraints.grounding:GroundingEngine", "violations", "grounding", None),
    ("repro.constraints.grounding", "ground_constraints", "grounding", _grounded),
    ("repro.repair.engine", "translate", "translation", _translated),
    ("repro.repair.engine", "solve_with_stats", "milp.entry", _solved),
    ("repro.milp.solver", "solve", "milp.solve", None),
    ("repro.milp.solver", "certify_solution", "milp.certify", None),
    ("repro.repair.engine", "certify_repair", "milp.certify", None),
    ("repro.milp.cache:SolveCache", "key_for", "milp.cache", None),
    ("repro.milp.cache:SolveCache", "get", "milp.cache", _cache_looked_up),
    ("repro.milp.cache:SolveCache", "put", "milp.cache", None),
    ("repro.repair.store:ResultStore", "get", "store", _store_read),
    ("repro.repair.store:ResultStore", "put", "store", None),
    ("repro.repair.service:RepairService", "submit", "service", None),
    ("repro.repair.service:RepairService", "process_pending", "service", None),
    ("repro.repair.service:RepairService", "result", "service", None),
    ("repro.repair.service", "execute_task", "batch", None),
)

#: (owner, attribute, counter): calls counted without a span.
COUNT_SHIMS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.wrapping.wrapper", "most_similar_item", "wrapping.msi_calls"),
    ("repro.wrapping.matching", "levenshtein", "wrapping.levenshtein_calls"),
)

#: Every layer a span can be attributed to, in report order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, _, layer, _ in SPAN_SHIMS)
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _span_shim(
    tracer: Tracer, name: str, original: Callable, hook: Optional[Callable]
) -> Callable:
    @functools.wraps(original)
    def shim(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer, result, args)
        return result

    return shim


def _count_shim(tracer: Tracer, counter: str, original: Callable) -> Callable:
    counters = tracer.counters

    @functools.wraps(original)
    def shim(*args: Any, **kwargs: Any) -> Any:
        counters[counter] += 1
        return original(*args, **kwargs)

    return shim


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Shim every traced binding for the duration of the block."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner_name, attribute, layer, hook in SPAN_SHIMS:
            owner = _resolve(owner_name)
            descriptor = vars(owner)[attribute]
            saved.append((owner, attribute, descriptor))
            name = f"{layer}:{attribute}"
            if isinstance(descriptor, staticmethod):
                shim = staticmethod(
                    _span_shim(tracer, name, descriptor.__func__, hook)
                )
            else:
                shim = _span_shim(tracer, name, descriptor, hook)
            setattr(owner, attribute, shim)
        for owner_name, attribute, counter in COUNT_SHIMS:
            owner = _resolve(owner_name)
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _count_shim(tracer, counter, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
