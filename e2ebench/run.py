"""Command-line entry of the end-to-end benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload sweep_bulk --seed 0 --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout.  Without
it the script exits with an error and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: program source not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench.bench import main as bench_main

    return bench_main()


if __name__ == "__main__":
    sys.exit(main())
