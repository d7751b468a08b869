"""scipy loads, and the allocator changes, only when the encoder runs.

Each case runs a fresh interpreter and reports which ``scipy*`` modules are
in ``sys.modules``, or whether training has set the allocator; no timing is
involved.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pairscore
from pairscore.demo import demo_sentences

SRC = Path(pairscore.__file__).resolve().parents[1]

REPORT = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))
"""


def fresh(script: str, cwd: Path) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", REPORT + script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    got = fresh("import pairscore, pairscore.cli\nprint(json.dumps(scipy_modules()))", tmp_path)
    assert got == []


NO_ENCODER = ("gen-pairs", "compute-signals", "evaluate", "skew-split")

# Runs the commands that never run the encoder; ``report()`` is taken after each.
RUN_NO_ENCODER = """
from pairscore.cli import main
runs = {}
for name, argv in [
    ("gen-pairs", ["--set", "vocab_min_count=1", "gen-pairs", "corpus.txt", "pairs.jsonl",
                   "--vocab-out", "vocab.json"]),
    ("compute-signals", ["compute-signals", "pairs.jsonl", "vocab.json", "signals.jsonl"]),
    ("evaluate", ["--set", "eval_grouping=all", "evaluate", "preds.tsv", "ratings.tsv", "report.json"]),
    ("skew-split", ["skew-split", "ratings.tsv", "train.tsv", "test.tsv"]),
]:
    runs[name] = [main(argv), report()]
print(json.dumps(runs))
"""


def write_command_inputs(tmp_path: Path) -> None:
    (tmp_path / "corpus.txt").write_text("\n".join(demo_sentences(8, seed=3)) + "\n", encoding="utf-8")
    rows = [f"s{i}\tthe cat sat\tthe cat sat here\t{float(5 * i)}" for i in range(20)]
    (tmp_path / "ratings.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "preds.tsv").write_text("".join(f"s{i}\t{0.5 * i}\n" for i in range(20)), encoding="utf-8")


def test_commands_without_the_encoder_load_no_scipy(tmp_path):
    write_command_inputs(tmp_path)
    got = fresh("report = scipy_modules\n" + RUN_NO_ENCODER, tmp_path)
    assert got == {name: [0, []] for name in NO_ENCODER}


def test_only_training_sets_the_allocator(tmp_path):
    write_command_inputs(tmp_path)
    script = """
import pairscore, pairscore.training
at_import = pairscore.training._heap_kept
def report():
    return [at_import, pairscore.training._heap_kept]
""" + RUN_NO_ENCODER
    got = fresh(script, tmp_path)
    assert got == {name: [0, [False, False]] for name in NO_ENCODER}


def test_first_forward_pass_loads_scipy(tmp_path):
    script = """
from pairscore.encoder import EncoderConfig, build_batch, forward, init_model
from pairscore.text import SentencePair, Vocabulary, tokenize
vocab = Vocabulary.build([["the", "cat", "sat"]], min_count=1)
params = init_model(EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16))
before = scipy_modules()
forward(params, build_batch([SentencePair(tokenize("the cat", vocab), tokenize("cat sat", vocab))], vocab))
print(json.dumps([before, "scipy.special" in sys.modules]))
"""
    assert fresh(script, tmp_path) == [[], True]
