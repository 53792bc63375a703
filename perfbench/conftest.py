"""Put the program (``src``) and the benchmark modules on the import path.

Run the benchmark's own tests from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (HERE.parent / "src", HERE):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
