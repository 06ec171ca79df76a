"""Statement-memory code summarization: model, pipeline, and evaluation."""

import os

# One BLAS thread unless the user set a count, before numpy loads: a second
# one gains no wall time at these shapes and changes the trained bits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import ModelConfig
from .corpus import (
    EncodedSample,
    Sample,
    StatementMatrix,
    Vocabulary,
    build_vocab,
    encode_sample,
    filter_by_length,
    split_by_project,
    split_statements,
)
from .decoding import LoadedModel, PredictionRecord, ensemble_distribution, greedy_decode
from .metrics import bleu_corpus, difference_set, improved_set, meteor
from .model import forward, init_params, positional_matrix
from .params import AdamState, ParameterSet, adam_step, load_checkpoint, save_checkpoint
from .stats import paired_t_test
from .synthetic import SyntheticSpec, generate_synthetic_corpus
from .tensor import Tensor, no_grad
from .training import EpochReport, TrainingPair, evaluate_next_token, expand_pairs, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "EncodedSample",
    "EpochReport",
    "LoadedModel",
    "ModelConfig",
    "ParameterSet",
    "PredictionRecord",
    "Sample",
    "StatementMatrix",
    "SyntheticSpec",
    "Tensor",
    "TrainingPair",
    "Vocabulary",
    "adam_step",
    "bleu_corpus",
    "build_vocab",
    "difference_set",
    "encode_sample",
    "ensemble_distribution",
    "evaluate_next_token",
    "expand_pairs",
    "filter_by_length",
    "forward",
    "generate_synthetic_corpus",
    "greedy_decode",
    "improved_set",
    "init_params",
    "load_checkpoint",
    "meteor",
    "no_grad",
    "paired_t_test",
    "positional_matrix",
    "save_checkpoint",
    "split_by_project",
    "split_statements",
    "train",
]
