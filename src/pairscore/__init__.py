"""Learned reference-based text evaluation at desk scale.

Build synthetic sentence pairs, label them with nine automatic training
signals, pre-train a small transformer regressor with a weighted multitask
loss, fine-tune it on human ratings, and measure agreement (Kendall, Pearson,
thresholded pairwise accuracy) under quality drift.

See the demos/ directory of the source distribution for worked examples of
each capability, and the `pairscore` CLI for reproducible pipelines.
"""

__version__ = "0.1.0"

from .errors import (
    DataError,
    NumericError,
    PairscoreError,
    ScorerProtocolError,
    TrainingDiverged,
    UsageError,
)
from .text import (
    RatedExample,
    SentencePair,
    TokenSeq,
    Vocabulary,
    ingest_ratings,
    serialize_ratings,
    split_no_leak,
    split_tokens,
    tokenize,
)
from .metrics import PRF, EmbeddingTable, rouge_n, sentence_bleu, soft_overlap
from .synth import (
    BigramLM,
    GenerationConfig,
    MaskPlan,
    Origin,
    StubBacktranslator,
    SyntheticExample,
    backtranslate,
    drop_words,
    fill_masks,
    generate_corpus,
    plan_masks,
)
from .signals import (
    SIGNAL_COLUMNS,
    BaselineEntailment,
    NormalizationStats,
    SignalProviders,
    TaskSpec,
    UnigramScorer,
    backtrans_likelihood,
    compute_signals,
    default_task_specs,
    entailment_probs,
    fit_normalization,
    signal_row,
)
from .encoder import (
    Batch,
    EncoderConfig,
    ModelParams,
    build_batch,
    forward,
    gradients,
    init_model,
    load_checkpoint,
    pretrain_loss,
    save_checkpoint,
    supervised_loss,
)
from .training import (
    TrainConfig,
    finetune,
    predict_ratings,
    pretrain,
    set_task_weights,
)
from .stats import (
    CorrelationReport,
    SkewConfig,
    darr,
    expected_train_fraction,
    kendall_pairwise,
    pearson,
    skew_split,
)
from .experiments import (
    AblationRow,
    DriftStudyConfig,
    DriftStudyResult,
    Split,
    build_drift_dataset,
    edit_similarity,
    run_ablation,
    run_drift_study,
    run_grid,
)
