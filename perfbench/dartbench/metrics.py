"""Metric definitions and how each is computed from a measured pass.

The names, units and bounds of the metrics are declared once, in
``BENCHMARK.json`` at the root of the checkout; this module reads them
from there and computes each one.  End-to-end metrics come from an
untraced pass; per-layer metrics from a traced replay of the same
documents.  ``ms_per_doc`` of a layer is its *self* time per document
(its spans minus their children), so the layer shares plus
``trace.unaccounted_share`` add up to one.  Every time is scaled to the
reference host speed by the calibration kernel runs around its document
(see :mod:`dartbench.calibration`).
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from dartbench.tracing import LAYERS, Tracer

#: The benchmark's declaration: command, workloads and metrics.
DECLARATION = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)
#: Seconds one run measures.
RUN_SECONDS: int = DECLARATION["run_seconds"]
#: (name, unit) of every end-to-end metric, reported by every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = tuple(
    (metric["name"], metric["unit"]) for metric in DECLARATION["end_to_end"]
)
#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (metric["name"], metric["unit"]) for metric in DECLARATION["per_layer"]
)

#: Percentiles the tail is chosen from, highest first.  A workload's
#: tail is the highest one with at least :data:`TAIL_MIN_BEYOND`
#: samples beyond it in the smallest run the workload allows.
TAIL_LADDER: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 80.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class PassResult:
    """One pass over a workload's documents."""

    #: per document: time in the program's entry point (raw wall clock)
    latencies_ns: List[int]
    #: per document: time including the input's preparation
    walls_ns: List[int]
    #: per document: the scale of its times to the reference speed
    factors: List[float]
    failures: List[Tuple[int, str]]
    #: sums of the workload's per-document counts (see ``doc_stats``)
    doc_totals: Dict[str, float] = field(default_factory=dict)
    #: counts only the workload can see (see ``pass_stats``)
    stats: Dict[str, float] = field(default_factory=dict)
    #: documents per round of the workload (see ``Workload.round_size``)
    round_size: int = 1
    #: the process's peak resident set once the workload's smallest run
    #: was done (or at the end of a shorter pass)
    peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def latencies_ms(self) -> List[float]:
        """Per-document latency at the reference speed."""
        return [
            latency * scale / 1e6
            for latency, scale in zip(self.latencies_ns, self.factors)
        ]

    def throughput(self, scaled: bool = True) -> float:
        """Documents per second (at the reference speed when *scaled*):
        the median over the pass's rounds of the round's documents over
        its time.

        Every round holds the workload's input mix in the same
        proportions, so one rare hard document moves one round, not the
        figure.  A pass shorter than a round counts as one round.
        """
        factors = self.factors if scaled else [1.0] * len(self.walls_ns)
        walls = [w * f / 1e9 for w, f in zip(self.walls_ns, factors)]
        size = min(self.round_size, len(walls))
        if not size:
            return 0.0
        return statistics.median(
            size / sum(walls[start:start + size])
            for start in range(0, len(walls) - size + 1, size)
        )


def quantile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int) -> Tuple[float, int]:
    """The tail percentile for *n* samples and the samples beyond it."""
    for percentile in TAIL_LADDER:
        beyond = samples_beyond(n, percentile)
        if beyond >= TAIL_MIN_BEYOND:
            return percentile, beyond
    return 100.0, 0


def samples_beyond(n: int, percentile: float) -> int:
    return int(n * (100.0 - percentile) / 100.0 + 1e-9)


def end_to_end(
    result: PassResult, setup_s: float, percentile: float
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The end-to-end metrics, with the tail at *percentile*, and the
    facts that qualify them."""
    latencies_ms = result.latencies_ms()
    raw_ms = [value / 1e6 for value in result.latencies_ns]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": quantile(latencies_ms, 0.5),
        "latency_tail_ms": quantile(latencies_ms, percentile / 100.0),
        "throughput_docs_per_s": result.throughput(),
        "peak_rss_mb": result.peak_rss_mb,
    }
    if set(metrics) != {name for name, _ in END_TO_END}:
        raise RuntimeError(f"end-to-end metrics out of sync: {sorted(metrics)}")
    facts = {
        "samples": len(latencies_ms),
        "tail_percentile": percentile,
        "tail_samples_beyond": samples_beyond(len(latencies_ms), percentile),
        "host_speed": quantile(result.factors, 0.5),
        "raw_latency_p50_ms": quantile(raw_ms, 0.5),
        "raw_latency_tail_ms": quantile(raw_ms, percentile / 100.0),
        "raw_throughput_docs_per_s": result.throughput(scaled=False),
    }
    return metrics, facts


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    tracer: Tracer,
    traced: PassResult,
    untraced: PassResult,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` from a traced pass."""
    spans = tracer.spans
    own = tracer.self_times()
    n_docs = max(1, traced.attempted)
    total_ns = 0.0
    unaccounted_ns = 0.0
    self_ns: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.doc < 0:
            continue
        scale = traced.factors[span.doc]
        if span.parent < 0:
            total_ns += span.duration * scale
            unaccounted_ns += own[index] * scale
            continue
        self_ns[span.layer] += own[index] * scale
        calls[span.name] += 1
        durations[span.name].append(span.duration * scale)
    resolves = sum(
        1
        for span in spans
        if span.doc >= 0
        and span.name == "engine:find_card_minimal_repair"
        and span.parent >= 0
        and spans[span.parent].name == "interactive:run"
    )
    counters = tracer.counters
    stats = traced.stats

    def per_doc(value: float) -> float:
        return value / n_docs

    values: Dict[str, float] = {}
    for layer in LAYERS:
        milliseconds = per_doc(self_ns[layer] / 1e6)
        key = "engine.self_ms_per_doc" if layer == "engine" else f"{layer}.ms_per_doc"
        values[key] = milliseconds
        values[f"{layer}.share"] = _ratio(self_ns[layer], total_ns)
    values.update({
        "wrapping.msi_calls_per_doc": per_doc(counters["wrapping.msi_calls"]),
        "wrapping.levenshtein_calls_per_doc": per_doc(
            counters["wrapping.levenshtein_calls"]
        ),
        "wrapping.repaired_strings_per_doc": per_doc(
            counters["wrapping.repaired_strings"]
        ),
        "dbgen.skipped_rows_per_doc": per_doc(counters["dbgen.skipped_rows"]),
        "interactive.resolves_per_doc": per_doc(resolves),
        "interactive.iterations_per_doc": per_doc(
            counters["interactive.iterations"]
        ),
        "interactive.inspections_per_doc": per_doc(
            counters["interactive.inspections"]
        ),
        "grounding.calls_per_doc": per_doc(
            calls["grounding:ground_constraints"]
        ),
        "grounding.ground_rows_per_doc": per_doc(
            counters["grounding.ground_rows"]
        ),
        "translation.calls_per_doc": per_doc(calls["translation:translate"]),
        "translation.milp_rows_per_doc": per_doc(
            counters["translation.milp_rows"]
        ),
        "milp.solve.calls_per_doc": per_doc(calls["milp.solve:solve"]),
        "milp.certify.calls_per_doc": per_doc(
            calls["milp.certify:certify_solution"]
            + calls["milp.certify:certify_repair"]
        ),
        "milp.certify.ms_per_solve_ms": _ratio(
            self_ns["milp.certify"], self_ns["milp.solve"]
        ),
        "milp.ladder_degraded_frac": _ratio(
            counters["milp.degraded"], counters["milp.solves"]
        ),
        "milp.cache.hit_rate": _ratio(
            counters["milp.cache.hits"], counters["milp.cache.gets"]
        ),
        "milp.cache.key_ms_per_doc": per_doc(
            sum(durations["milp.cache:key_for"]) / 1e6
        ),
        "store.get_ms_p50": quantile(durations["store:get"], 0.5) / 1e6,
        "store.put_ms_p50": quantile(durations["store:put"], 0.5) / 1e6,
        "store.hit_rate": _ratio(counters["store.hits"], counters["store.gets"]),
        "store.bytes_per_row": stats.get("store_bytes_per_row", 0.0),
        "service.intake_wait_ms_p50": stats.get("intake_wait_ms_p50", 0.0),
        "service.overloaded_frac": _ratio(
            stats.get("overloaded", 0.0), stats.get("submitted", 0.0)
        ),
        "service.fallback_frac": per_doc(stats.get("fallbacks", 0.0)),
        "trace.overhead_frac": _ratio(
            quantile(traced.latencies_ms(), 0.5),
            quantile(untraced.latencies_ms(), 0.5),
        ) - 1.0,
        "trace.unaccounted_share": _ratio(unaccounted_ns, total_ns),
    })
    missing = [name for name, _ in PER_LAYER if name not in values]
    extra = [name for name in values if name not in dict(PER_LAYER)]
    if missing or extra:
        raise RuntimeError(f"per-layer metrics out of sync: {missing} {extra}")
    return {name: values[name] for name, _ in PER_LAYER}
