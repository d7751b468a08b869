"""pairscore benchmark: one workload and one seed in a fresh process.

    python3 bench/run.py --workload pipeline|drift|score --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  Set-up is the import plus making the workload's inputs
from the seed; it runs three times, each import in a fresh interpreter, and
the median is reported.  Then rounds of the workload run until ``--seconds`` of
measured time have passed.  The first round's outputs are checked against
the oracles, later rounds against the first round's bytes.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or with ``--trace 1`` the per-layer ones
from one extra traced round).  Work files go to ``.bench_out/`` and are
removed at exit; the trace spans and a run summary stay there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread: set before numpy is first imported.
THREAD_ENV = {
    var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
SETUP_REPEATS = 3
IMPORT = "import time; t = time.perf_counter(); import numpy, pairscore, workloads; print(time.perf_counter() - t)"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    section: {m["name"]: m["unit"] for m in SPEC[section]} for section in ("end_to_end", "per_layer")
}


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def import_seconds() -> float:
    """Time to import numpy, pairscore and the workloads in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    done = subprocess.run([sys.executable, "-c", IMPORT], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "drift", "score"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pairscore" / "__init__.py").is_file():
        print(f"error: no pairscore sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    start = time.perf_counter()
    import numpy as np

    import pairscore
    import workloads
    import_s = time.perf_counter() - start
    if Path(pairscore.__file__).resolve().parent != ROOT / "src" / "pairscore":
        print(f"error: imported pairscore from {pairscore.__file__}, not this checkout", file=sys.stderr)
        return 2

    out_root = Path(".bench_out")
    work = out_root / f"work-{args.workload}-seed{args.seed}"
    workload = workloads.WORKLOADS[args.workload](args.seed)
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, setup_digests = [], set()
        for k in range(SETUP_REPEATS):
            gc.collect()
            t = time.perf_counter()
            workload.setup(work / f"setup{k}")
            prepare_s = time.perf_counter() - t
            setup_times.append(import_seconds() + prepare_s)
            setup_digests.add(tuple(
                workloads.sha256(p) for p in sorted((work / f"setup{k}").iterdir())
            ))
        problems = [] if len(setup_digests) == 1 else ["setup: repeats made different inputs"]

        # Every round runs in the same place, so artifacts that record a path match.
        out = work / "round"
        rounds, first = [], None
        while not rounds or sum(r.wall_s for r in rounds) < args.seconds:
            rnd = workload.run_round(out)
            rounds.append(rnd)
            if not rnd.failed:
                if first is None:
                    first = rnd.digests()
                    problems += workload.check(out)
                elif rnd.digests() != first:
                    problems.append(f"round {len(rounds)}: artifacts differ from the first round's")
            shutil.rmtree(out)
        ok_rounds = [r for r in rounds if not r.failed] or rounds

        def work_median(key):
            values = [v for r in ok_rounds for v in r.work.get(key, [])]
            return median(values) if values else 0.0

        wall = median([r.wall_s for r in ok_rounds])
        if args.trace:
            import layers
            from tracer import Tracer

            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = workload.run_round(out, tracer)
            finally:
                tracer.unpatch()
            rounds.append(traced)
            if not traced.failed and traced.digests() != first:
                problems.append("traced round: artifacts differ from the first round's")
            units = UNITS["per_layer"]
            metrics = layers.layer_values(tracer, units)
            for name in units:
                if name.startswith("cli."):
                    metrics[name] = work_median(name)
            metrics["trace.overhead_s"] = traced.wall_s - wall
            out_root.mkdir(exist_ok=True)
            tracer.write(out_root / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = {
                "setup_s": median(setup_times),
                "wall_s": wall,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = UNITS["end_to_end"]
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)

        summary = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas_version(np),
            "import_s": import_s, "setup_times_s": setup_times,
            "round_wall_s": [r.wall_s for r in rounds],
            "stage_s": [r.seconds for r in rounds],
            "artifacts_sha256": first, "problems": problems,
            "notes": getattr(workload, "notes", []),
        }
        out_root.mkdir(exist_ok=True)
        (out_root / f"summary-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n"
        )
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not problems and first is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
