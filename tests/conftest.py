"""Let the CLI subprocesses that some tests start import the package from
`src/` too, as pytest's `pythonpath` setting does for the test process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
