"""``python -m benchmarks.e2e`` — see ``benchmarks/e2e/run.py``.

The daemon and the oracle import ``repro`` from this checkout's
``src/``; without it the benchmark stops before measuring anything.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks.e2e: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    from benchmarks.e2e.run import main

    sys.exit(main())
