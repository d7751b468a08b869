"""One seed-1 round of the benchmark's ``score`` and ``pipeline`` workloads (``bench/run.py``).

The benchmark reaches the package through calls no other test makes
(``build_batch(..., signal_targets=...)``, ``forward(...).task_outputs``,
``ingest_ratings(...).examples``, ``TrainConfig(stage=...)``), so a refactor
could break ``bench/run.py`` while every other test passes.  Each cheap
workload runs one round here and passes its oracle checks; the ``drift``
round patches ``experiments.kendall_pairwise``, so that name must exist.
"""

import sys
from pathlib import Path

import pytest

from pairscore import experiments

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["score", "pipeline"])
def test_one_round_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](1)
    workload.setup(tmp_path / "setup")
    out = tmp_path / "round"
    rnd = workload.run_round(out)
    assert rnd.attempted > 0 and rnd.failed == 0
    assert workload.check(out) == []


def test_drift_patches_a_name_that_exists():
    assert callable(getattr(experiments, "kendall_pairwise", None))
