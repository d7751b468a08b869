"""The demos run on the library as it is; each case runs one in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pairscore

SRC = Path(pairscore.__file__).resolve().parents[1]
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demo_02_labels_its_synthetic_pairs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(DEMOS / "02_synthetic_pairs_and_signals.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert re.search(r"^signals for [1-9]\d* pairs", done.stdout, re.MULTILINE), done.stdout
