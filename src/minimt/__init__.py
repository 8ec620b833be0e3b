"""minimt: a desk-scale toolkit for compressing tiny translation models.

Curate parallel corpora through a staged filtering pipeline, train a micro
encoder-decoder translation model on top of a small autodiff core, distill
from a larger toy teacher, compress via greedy layer pruning guided by
chrF++, quantize weights to half precision, and benchmark quality against
throughput.
"""

__version__ = "0.1.0"

from .bench import DecodeConfig, batch_by_tokens, bench_throughput
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    parameter_payload_bytes,
    save_checkpoint,
)
from .compress import (
    DistillConfig,
    PruneConfig,
    PruneReport,
    audit_prune_report,
    distill,
    iterative_prune,
    layer_importance_eval,
    mean_dev_chrf,
    middle_prune,
    run_compression_pipeline,
)
from .corpus import (
    ParallelRecord,
    SplitSpec,
    read_corpus,
)
from .decode import BeamResult, encode_sources, translate_batch, translate_records
from .filtering import (
    FilterConfig,
    FilterReport,
    ForcedLogProbQualityScorer,
    PivotTranslationEmbedder,
    ScorerSet,
    SubprocessScorer,
    langid_scorers,
    run_pipeline,
)
from .langid import LangIdModel, train_langid
from .metrics import MetricScore, bleu, chrf_pp, evaluate_direction
from .model import (
    ModelConfig,
    TranslationModel,
    init_model,
    quantize_fp16,
    remove_layers,
)
from .optim import AdamState, adam_step
from .reports import EvalReport, EvalRow, RunManifest, emit_report
from .rng import Rng
from .synthetic import (
    NoiseRates,
    ToyLanguageSpec,
    generate_synthetic_corpus,
    langid_seed_corpus,
)
from .tensor import Tensor, backward, cross_entropy, layer_norm, matmul, softmax
from .training import TrainConfig, TrainLog, train
from .vocab import Vocab, build_vocab, detokenize, tokenize
