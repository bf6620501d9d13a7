"""End-to-end benchmark of the DART reproduction on its default path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sheets|budgets|service|all \
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output checked out.  See perfbench/README.md.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _main() -> int:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {source}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(HERE), str(source)]
    from dartbench.runner import main

    return main(sys.argv[1:], ROOT, _STARTED)


if __name__ == "__main__":
    sys.exit(_main())
