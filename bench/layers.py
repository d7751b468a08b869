"""The per-layer metrics of a traced round: which calls are wrapped and what is reported.

The metric names and units are those of ``per_layer`` in ``BENCHMARK.json``.
Every workload reports every one; a layer a workload does not exercise reads
0.  Times are busy time in ms summed over the round.
"""

from __future__ import annotations

import inspect

import oracles
from pairscore import encoder, experiments, metrics, signals, stats, synth, text, training
from tracer import Tracer

_FILL_MASKS = inspect.signature(synth.fill_masks)


def _lm_evals(args, kwargs, result) -> dict:
    """Computed, not counted: slots x beam entries x candidates, as fill_masks expands them."""
    bound = _FILL_MASKS.bind(*args, **kwargs)
    bound.apply_defaults()
    plan, lm, width = bound.arguments["plan"], bound.arguments["lm"], bound.arguments["beam_width"]
    candidates = len(lm.candidates())
    beam, evals = 1, 0
    for _ in plan.positions:
        evals += beam * candidates
        beam = min(width, beam * candidates)
    return {"lm_evals": evals}


def _padding(args, kwargs, result) -> dict:
    real = int(result.mask.sum())
    return {"real_tokens": real, "padded_slots": int(result.mask.size) - real}


# (owner, attribute, span name, counts)
WRAPPED = [
    (synth, "fill_masks", "synth.fill_masks", _lm_evals),
    (synth, "generate_corpus", "synth.generate_corpus", None),
    (metrics, "sentence_bleu", "metrics.sentence_bleu", None),
    (metrics, "rouge_n", "metrics.rouge_n", None),
    (metrics, "soft_overlap", "metrics.soft_overlap", None),
    (signals, "compute_signals", "signals.compute_signals", None),
    (signals, "read_signals", "signals.read_signals", None),
    (signals, "write_signals", "signals.write_signals", None),
    (encoder, "gradients", "encoder.gradients", None),
    (encoder, "forward", "encoder.forward", None),
    (encoder, "build_batch", "encoder.build_batch", _padding),
    (encoder, "save_checkpoint", "encoder.save_checkpoint", None),
    (encoder, "load_checkpoint", "encoder.load_checkpoint", None),
    (training.AdamOptimizer, "step", "training.AdamOptimizer.step", None),
    (training, "pretrain", "training.pretrain", None),
    (training, "finetune", "training.finetune", None),
    (training, "predict_ratings", "training.predict_ratings",
     lambda a, k, r: {"examples": len(a[1])}),
    (training, "validation_kendall", "training.validation_kendall", None),
    (stats, "darr", "stats.darr", lambda a, k, r: {"pairs": r.pairs_total}),
    (stats, "kendall_pairwise", "stats.kendall_pairwise",
     lambda a, k, r: {"pairs": oracles.pairs_within_groups(a[2])}),
    (stats, "skew_split", "stats.skew_split", None),
    (text, "read_rating_records", "text.read_rating_records", None),
    (text, "tokenize", "text.tokenize", None),
    (experiments, "build_offline_pretraining_data", "experiments.build_offline_pretraining_data", None),
    (experiments, "build_drift_dataset", "experiments.build_drift_dataset", None),
    (experiments, "edit_similarity", "experiments.edit_similarity", None),
]

def install(tracer: Tracer) -> None:
    for owner, attr, name, counts in WRAPPED:
        tracer.patch(owner, attr, name, counts)


def layer_values(tracer: Tracer, names) -> dict[str, float]:
    """Values of the metrics ``names`` (``<span>.<kind>``) in one traced round.

    A span that never ran reads 0; the stage rates and ``trace.overhead_s``
    are not spans and are filled in by the caller.
    """
    rows = tracer.summary()
    values: dict[str, float] = {}
    for metric in names:
        name, _, kind = metric.rpartition(".")
        row = rows.get(name, {})
        values[metric] = row.get(kind, 0)
    # forward nested in gradients is training work: count it under gradients
    nested = [s for s in tracer.spans
              if s["name"] == "encoder.forward" and tracer.parent_name(s) == "encoder.gradients"]
    nested_ms = sum(1000.0 * (s["end"] - s["start"]) for s in nested)
    values["encoder.gradients.ms"] = rows.get("encoder.gradients", {}).get("self_ms", 0.0)
    values["encoder.gradients.forward_ms"] = nested_ms
    values["encoder.forward.calls"] = rows.get("encoder.forward", {}).get("calls", 0) - len(nested)
    values["encoder.forward.ms"] = rows.get("encoder.forward", {}).get("ms", 0.0) - nested_ms
    compute = rows.get("signals.compute_signals", {})
    calls = compute.get("calls", 0)
    values["signals.compute_signals.useful_share"] = (
        (calls - compute.get("failed", 0)) / calls if calls else 0.0
    )
    return values
