"""Make the benchmark modules and the checkout's library importable."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]
