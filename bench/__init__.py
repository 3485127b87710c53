"""Host-time benchmark for the XPC simulator, run from outside ``src/``.

``python -m bench`` measures how fast the Python simulator runs (host
seconds) on five workloads, with the exact simulated results beside
each number as correctness and regression guards.  See
``bench/README.md`` for the workloads, metrics and commands.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout the benchmark measures: ``bench/`` sits at its root.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Raises :class:`FileNotFoundError` when the checkout has no
    ``src/repro`` (a directory holding only the benchmark), so the
    benchmark fails instead of measuring some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no simulator sources at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
