"""Set up a workload, measure it, check it, and report.

An untraced run (``--trace 0``) reports the end-to-end metrics.  A
traced run (``--trace 1``) measures the same documents twice: once
untraced for half the time, then replayed with every shim installed;
the per-layer metrics come from the replay, and the gap between the
two medians is ``trace.overhead_frac``.

Every time is reported at the reference host speed (see
:mod:`dartbench.calibration`): the calibration kernel runs between
documents at least every :data:`CALIBRATE_EVERY_NS` of work, and each
document's times are scaled by the kernel runs on either side of it.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from dartbench.calibration import factor, timed_kernel
from dartbench.metrics import (
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    PassResult,
    end_to_end,
    per_layer,
    tail_percentile,
)
from dartbench.tracing import Tracer, installed
from dartbench.workloads import WORKLOADS, Workload

#: Set-ups timed per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Work between two calibration kernel runs, at most (checked between
#: documents).
CALIBRATE_EVERY_NS = 100_000_000


def measure_pass(
    workload: Workload,
    *,
    seconds: Optional[float] = None,
    n_docs: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> PassResult:
    """Run documents until *seconds* of document time have passed (at a
    round boundary, after the workload's ``min_rounds``) or *n_docs* are
    done, checking each output as it comes (outside the timed part)."""
    workload.start_pass()
    latencies: List[int] = []
    walls: List[int] = []
    brackets: List[int] = []
    kernels = [timed_kernel()]
    failures: List[Tuple[int, str]] = []
    totals: Dict[str, float] = {}
    clock = time.perf_counter_ns
    budget = None if seconds is None else int(seconds * 1e9)
    # The peak resident set is read once the smallest run is done, so it
    # covers the same documents however fast the host or the program.
    rss_at = workload.min_rounds * workload.round_size
    rss_mb = None
    measured = 0
    since_kernel = 0
    index = 0
    while True:
        if n_docs is not None and index >= n_docs:
            break
        if (
            budget is not None
            and index % workload.round_size == 0
            and index >= workload.min_rounds * workload.round_size
            and measured >= budget
        ):
            break
        if since_kernel >= CALIBRATE_EVERY_NS:
            kernels.append(timed_kernel())
            since_kernel = 0
        begin = clock()
        item = workload.prepare(index)
        output = None
        message = None
        if tracer is not None:
            with tracer.document(index) as root:
                try:
                    output = workload.execute(item)
                except Exception as error:  # counted as a failed document
                    message = f"raised {type(error).__name__}: {error}"
            latencies.append(tracer.spans[root].duration)
        else:
            started = clock()
            try:
                output = workload.execute(item)
            except Exception as error:  # counted as a failed document
                message = f"raised {type(error).__name__}: {error}"
            latencies.append(clock() - started)
        wall = clock() - begin
        walls.append(wall)
        brackets.append(len(kernels) - 1)
        measured += wall
        since_kernel += wall
        if message is None:
            message = workload.check(item, output)
            for key, value in workload.doc_stats(item, output).items():
                totals[key] = totals.get(key, 0.0) + value
        if message is not None:
            failures.append((index, message))
        index += 1
        if index == rss_at:
            rss_mb = peak_rss_mb()
    kernels.append(timed_kernel())
    factors = [factor(kernels[b], kernels[b + 1]) for b in brackets]
    for message in workload.finish_pass():
        failures.append((-1, message))
    return PassResult(
        latencies, walls, factors, failures, totals, workload.pass_stats(),
        workload.round_size, peak_rss_mb() if rss_mb is None else rss_mb,
    )


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_now() -> int:
    """The kernel's time right now: the median of five runs."""
    return int(statistics.median(timed_kernel() for _ in range(5)))


def timed_setup(workload: Workload, seed: int) -> Tuple[float, float]:
    """One set-up: (seconds at reference speed, raw seconds)."""
    before = kernel_now()
    started = time.perf_counter()
    workload.setup(seed)
    raw = time.perf_counter() - started
    return raw * factor(before, kernel_now()), raw


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    import_s: float,
    spans_out: Optional[Path] = None,
) -> Tuple[Dict[str, object], List[str]]:
    """Measure workload *name*; returns the result object and the
    human-readable lines that precede it."""
    kernel = kernel_now()
    import_ref_s = import_s * factor(kernel, kernel)
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    workload = WORKLOADS[name](workdir)
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    try:
        setups = [timed_setup(workload, seed) for _ in range(SETUP_REPEATS)]
        setup_s = import_ref_s + statistics.median(ref for ref, _ in setups)
        lines.append(
            f"  set-up: imports {import_s:.3f} s + median of {SETUP_REPEATS} "
            f"set-ups {[round(raw, 3) for _, raw in setups]} s (raw wall clock)"
        )
        warm_up = workload.warm_up_result
        if trace:
            plain = measure_pass(workload, seconds=seconds / 2.0)
            tracer = Tracer()
            with installed(tracer):
                traced = measure_pass(
                    workload, n_docs=plain.attempted, tracer=tracer
                )
            passes = [plain, traced]
            metrics = per_layer(tracer, traced, plain)
            units = dict(PER_LAYER)
            if spans_out is not None:
                spans_out.parent.mkdir(parents=True, exist_ok=True)
                spans_out.write_text(
                    "".join(json.dumps(span) + "\n" for span in tracer.dump()),
                    encoding="utf-8",
                )
                lines.append(f"  {len(tracer.spans)} spans written to {spans_out}")
        else:
            plain = measure_pass(workload, seconds=seconds)
            passes = [plain]
            # The tail is fixed by the smallest run the workload allows,
            # so the program's own speed cannot change which it is.
            percentile, _ = tail_percentile(
                workload.min_rounds * workload.round_size
            )
            metrics, facts = end_to_end(plain, setup_s, percentile)
            units = dict(END_TO_END)
            lines.append(
                f"  {facts['samples']} documents; tail is p{facts['tail_percentile']:g} "
                f"with {facts['tail_samples_beyond']} samples beyond it; host speed "
                f"{facts['host_speed']:.3f} of the reference"
            )
            lines.append(
                f"  raw wall clock: p50 {facts['raw_latency_p50_ms']:.1f} ms, "
                f"tail {facts['raw_latency_tail_ms']:.1f} ms, "
                f"{facts['raw_throughput_docs_per_s']:.3f} docs/s"
            )
            for key, value in sorted(plain.doc_totals.items()):
                unit = "frac" if key.endswith("_frac") else "count/doc"
                value /= max(1, plain.attempted)
                lines.append(f"  {key:<36} {value:>14.4f} {unit}")
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    # The warm-up document counts as one more document attempted.
    failures = [(-1, warm_up)] if warm_up else []
    failures += [failure for result in passes for failure in result.failures]
    attempted = sum(result.attempted for result in passes) + (warm_up is not None)
    lines.append(f"  {'failed_frac':<36} {len(failures) / attempted:>14.4f} frac")
    for key, value in metrics.items():
        lines.append(f"  {key:<36} {value:>14.4f} {units[key]}")
    for index, message in failures[:20]:
        lines.append(f"  FAILED document {index}: {message}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }
    return result, lines


def main(argv: Optional[List[str]], root: Path, started: float) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end benchmark of the DART reproduction on its default path.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", type=Path, default=None,
        help="with --trace 1, write the recorded spans to this file as JSON lines "
        "(with --workload all, one file per workload: FILE's stem + '-<workload>')",
    )
    args = parser.parse_args(argv)
    import_s = time.perf_counter() - started

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        spans_out = args.spans
        if spans_out is not None and len(names) > 1:
            spans_out = spans_out.with_name(f"{spans_out.stem}-{name}{spans_out.suffix}")
        result, lines = run(
            name, args.seed, args.seconds, bool(args.trace), root, import_s,
            spans_out=spans_out,
        )
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1
