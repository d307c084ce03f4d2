"""hatedetect: binary hate-speech classification toolkit.

Domain-trained CBOW word embeddings, a from-scratch BiLSTM classifier,
weighted evaluation metrics, and local token-level explanations, plus a
CLI that ties the pipeline together.
"""

from .classifier import HateClassifier, ModelConfig, TrainHistory, train
from .corpus import (
    HATE,
    NON_HATE,
    DatasetSpec,
    LabeledExample,
    SplitBundle,
    collapse_labels,
    combine_balanced,
    load_dataset,
    split,
    stats,
)
from .embed import CbowConfig, EmbeddingMatrix, Vocabulary, build_vocab, nearest, train_cbow
from .explain import Explanation, explain
from .metrics import MetricsReport, confusion, prf, report, roc_auc, score_external
from .textprep import PipelineConfig, encode, preprocess

__version__ = "0.1.0"

__all__ = [
    "HATE",
    "NON_HATE",
    "CbowConfig",
    "DatasetSpec",
    "EmbeddingMatrix",
    "Explanation",
    "HateClassifier",
    "LabeledExample",
    "MetricsReport",
    "ModelConfig",
    "PipelineConfig",
    "SplitBundle",
    "TrainHistory",
    "Vocabulary",
    "build_vocab",
    "collapse_labels",
    "combine_balanced",
    "confusion",
    "encode",
    "explain",
    "load_dataset",
    "nearest",
    "preprocess",
    "prf",
    "report",
    "roc_auc",
    "score_external",
    "split",
    "stats",
    "train",
    "train_cbow",
]
