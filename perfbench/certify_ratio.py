"""Whole-repair time with exact certification on and off.

Repairs every ``budgets`` input twice, with ``RepairEngine(certify=True)``
(the default) and ``certify=False``, alternating which goes first, and
prints the median time per size and the ratio of the total times.
Times are scaled to the reference host speed like the benchmark's own.

    python3 perfbench/certify_ratio.py --seed 1 --rounds 2
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from dartbench.calibration import factor, timed_kernel  # noqa: E402
from dartbench.workloads import BudgetsWorkload  # noqa: E402
from repro.repair import RepairEngine  # noqa: E402


def repair_seconds(item, certify: bool) -> float:
    before = timed_kernel()
    started = time.perf_counter()
    RepairEngine(item.database, item.constraints, certify=certify).find_card_minimal_repair()
    elapsed = time.perf_counter() - started
    return elapsed * factor(before, timed_kernel())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as workdir:
        workload = BudgetsWorkload(Path(workdir))
        workload.setup(args.seed)
        times = {True: {}, False: {}}
        for index in range(args.rounds * workload.round_size):
            item = workload.prepare(index)
            order = (True, False) if index % 2 == 0 else (False, True)
            for certify in order:
                times[certify].setdefault(item.years, []).append(
                    repair_seconds(item, certify)
                )
        workload.close()

    print(f"{'years':>5} {'certify on ms':>14} {'off ms':>10} {'ratio':>7}")
    for years in sorted(times[True]):
        on = statistics.median(times[True][years]) * 1000
        off = statistics.median(times[False][years]) * 1000
        print(f"{years:>5} {on:>14.1f} {off:>10.1f} {on / off:>7.2f}")
    total_on = sum(sum(v) for v in times[True].values())
    total_off = sum(sum(v) for v in times[False].values())
    print(f"total {total_on:.2f} s on, {total_off:.2f} s off, ratio {total_on / total_off:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
