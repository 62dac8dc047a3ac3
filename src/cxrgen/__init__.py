"""cxrgen: multi-modal chest X-ray report generation, built from scratch.

A small numpy-backed stack: tape-based autodiff, multi-head attention, a
conditioned cross-attention fusion encoder over image features and triage
data, a transformer decoder, training with Adam + warmup, and overlap /
embedding metrics for evaluating generated reports.
"""

from .attention import AttentionProjections, multi_head_attention
from .decoder import ReportDecoder, report_loss
from .encoder import FusionEncoder, one_hot_ethnicity
from .errors import (ConfigurationError, ContractError, CxrgenError, DataError,
                     DimensionError, EvaluationError, TrainingError)
from .metrics import (EvalReport, HashedEmbeddings, bleu, corpus_evaluate,
                      embedding_f1, rouge_l)
from .model import ModelConfig, ReportGenerator
from .params import ParameterStore, load_checkpoint, save_checkpoint
from .preprocess import (NormalizationStats, PreprocessConfig, remove_outliers,
                         standardize_text)
from .records import PatientRecord, RawRecord, ScalarFeatures
from .synth import SyntheticConfig, balance_by_unique_reports, generate_synthetic
from .tensor import GradientTape, Tensor
from .training import TrainConfig, fit, split_dataset
from .vocab import Vocabulary

__version__ = "0.1.0"

__all__ = [
    "AttentionProjections", "multi_head_attention",
    "ReportDecoder", "report_loss",
    "FusionEncoder", "one_hot_ethnicity",
    "ConfigurationError", "ContractError", "CxrgenError", "DataError",
    "DimensionError", "EvaluationError", "TrainingError",
    "EvalReport", "HashedEmbeddings", "bleu", "corpus_evaluate",
    "embedding_f1", "rouge_l",
    "ModelConfig", "ReportGenerator",
    "ParameterStore", "load_checkpoint", "save_checkpoint",
    "NormalizationStats", "PreprocessConfig", "remove_outliers",
    "standardize_text",
    "PatientRecord", "RawRecord", "ScalarFeatures",
    "SyntheticConfig", "balance_by_unique_reports", "generate_synthetic",
    "GradientTape", "Tensor",
    "TrainConfig", "fit", "split_dataset",
    "Vocabulary",
    "__version__",
]
