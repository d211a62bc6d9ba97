"""Put src on PYTHONPATH for the subprocesses that tests start.

The `pythonpath` setting in pyproject.toml makes rotsym importable in the
test process only; perfbench's tests also run `python -m rotsym.cli`.
"""

import os
from pathlib import Path


def pytest_configure(config):
    src = str(Path(__file__).parent / "src")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [src, *paths] if p)
