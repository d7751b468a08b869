"""The benchmark's traced round (`bench/run.py --trace 1`) wraps package functions by name.

A rename or move in the package would make that round fail, so each wrapped
``(owner, attribute)`` must still exist and be callable.
"""

import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import layers  # noqa: E402


def test_every_wrapped_attribute_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in layers.WRAPPED
        if not callable(getattr(owner, attr, None))
    ]
    assert layers.WRAPPED and not missing
