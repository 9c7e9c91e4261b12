"""Entry point: ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1``.

Run from the repository root.  See :mod:`perfbench.driver`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.driver import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
