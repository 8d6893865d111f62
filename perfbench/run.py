"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload b64_uniform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` times untraced sorts and reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced sorts
and reports the per-layer metrics.  Every sort, warm-up sorts included,
goes through the oracle and must repeat the first sort's schedule.  The
last line of standard output is the result object; the line before it
carries provenance and sample counts.  The exit code is 0 only if every
sort was correct.  ``--workload all`` runs each workload in its own
process and prints a table.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> float:
    """Import ``repro`` from this checkout's ``src/``; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    t0 = time.perf_counter()
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    from perfbench import harness  # noqa: F401  (timed with the imports)

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_s = import_program()
    from perfbench import harness

    return harness.main(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
