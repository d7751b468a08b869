"""No command loads scipy, and only the commands that run the encoder change the allocator.

Each case runs a fresh interpreter and reports which ``scipy*`` modules are
in ``sys.modules``, or whether the allocator has been set; no timing is
involved.  The full chain runs with every ``scipy`` import refused, so a
command that needs scipy fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pairscore
from pairscore.demo import demo_sentences
from pairscore.encoder import EncoderConfig, init_model, save_checkpoint
from pairscore.text import Vocabulary

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
    sentences = demo_sentences(8, seed=3)
    (tmp_path / "corpus.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")
    rows = [f"s{i}\t{sentences[i % 8]}\t{sentences[(i * 3 + 1) % 8]}\t{float(5 * i)}" for i in range(20)]
    (tmp_path / "ratings.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "preds.tsv").write_text("".join(f"s{i}\t{0.5 * i}\n" for i in range(20)), encoding="utf-8")


def test_commands_without_the_encoder_load_no_scipy(tmp_path):
    write_command_inputs(tmp_path)
    got = fresh("report = scipy_modules\n" + RUN_NO_ENCODER, tmp_path)
    assert got == {name: [0, []] for name in NO_ENCODER}


# Then ``predict`` on an untrained checkpoint, so that no training sets the allocator first.
RUN_PREDICT = """
runs["predict"] = [main(["predict", "model.ckpt", "ratings.tsv", "model_preds.tsv"]), report()]
print(json.dumps(runs))
"""


def test_only_the_encoder_commands_set_the_allocator(tmp_path):
    write_command_inputs(tmp_path)
    vocab = Vocabulary.build((s.split() for s in demo_sentences(8, seed=3)), min_count=1)
    params = init_model(EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16))
    save_checkpoint(params, tmp_path / "model.ckpt", {"vocab": list(vocab.tokens)})
    script = """
import pairscore, pairscore.training
at_import = pairscore.training._heap_kept
def report():
    return [at_import, pairscore.training._heap_kept]
""" + RUN_NO_ENCODER + RUN_PREDICT
    got = fresh(script, tmp_path)
    assert got == {**{name: [0, [False, False]] for name in NO_ENCODER}, "predict": [0, [False, True]]}


# An import hook first in ``sys.meta_path`` that fails every ``scipy`` import.
REFUSE_SCIPY = """
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")
        return None
sys.meta_path.insert(0, RefuseScipy())
report = scipy_modules
"""

# Every command at tiny settings, the six stages in pipeline order first, with
# ``report()`` taken after each.
ALL_COMMANDS = ("gen-pairs", "compute-signals", "pretrain", "finetune", "predict", "evaluate",
                "ablate", "skew-split")
RUN_ALL = """
from pairscore.cli import main
tiny = []
for setting in ["vocab_min_count=1", "d_model=8", "n_layers=1", "n_heads=2", "d_ff=16", "max_seq_len=40",
                "batch_size=4", "pretrain_steps=4", "finetune_steps=4", "eval_every=2", "eval_grouping=all"]:
    tiny += ["--set", setting]
runs = {}
for name, argv in [
    ("gen-pairs", ["gen-pairs", "corpus.txt", "pairs.jsonl", "--vocab-out", "vocab.json"]),
    ("compute-signals", ["compute-signals", "pairs.jsonl", "vocab.json", "signals.jsonl"]),
    ("pretrain", ["pretrain", "signals.jsonl", "vocab.json", "pre.ckpt"]),
    ("finetune", ["finetune", "pre.ckpt", "ratings.tsv", "ft.ckpt"]),
    ("predict", ["predict", "ft.ckpt", "ratings.tsv", "preds.tsv"]),
    ("evaluate", ["evaluate", "preds.tsv", "ratings.tsv", "report.json"]),
    ("ablate", ["ablate", "signals.jsonl", "vocab.json", "ratings.tsv", "ablate.csv"]),
    ("skew-split", ["skew-split", "ratings.tsv", "train.tsv", "test.tsv"]),
]:
    runs[name] = [main(tiny + argv), report()]
print(json.dumps(runs))
"""


def test_every_command_runs_without_scipy(tmp_path):
    write_command_inputs(tmp_path)
    got = fresh(REFUSE_SCIPY + RUN_ALL, tmp_path)
    assert got == {name: [0, []] for name in ALL_COMMANDS}
