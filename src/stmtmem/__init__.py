"""Statement-memory code summarization: model, pipeline, and evaluation."""

import ctypes
import os

# One BLAS thread unless the user set a count: a second one gains no wall
# time at these shapes and changes the trained bits. The variables reach a
# BLAS that loads after this; one that numpy loaded earlier is set below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import ModelConfig
from .corpus import (
    EncodedSample,
    Sample,
    Vocabulary,
    build_vocab,
    encode_sample,
    filter_by_length,
    split_by_project,
)
from .decoding import LoadedModel, PredictionRecord, ensemble_distribution, greedy_decode
from .metrics import bleu_corpus, compare, meteor
from .model import forward, init_params, positional_matrix
from .params import AdamState, ParameterSet, adam_step, load_checkpoint, save_checkpoint
from .stats import paired_t_test
from .synthetic import SyntheticSpec, generate_synthetic_corpus
from .tensor import Tensor, no_grad
from .training import EpochReport, TrainingPair, evaluate_next_token, expand_pairs, train

__version__ = "0.1.0"


def _openblas_thread_calls():
    # (get, set) of numpy's OpenBLAS, whose wheels rename the symbols; None if unknown
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for get, put in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads")):
        if hasattr(lib, get) and hasattr(lib, put):
            get, put = getattr(lib, get), getattr(lib, put)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def blas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS, or None when it is unknown."""
    calls = _openblas_thread_calls()
    return None if calls is None else calls[0]()


_calls, _wanted = _openblas_thread_calls(), os.environ["OPENBLAS_NUM_THREADS"]
if _calls and _wanted.isdigit() and int(_wanted) > 0 and _calls[0]() != int(_wanted):
    _calls[1](int(_wanted))

__all__ = [
    "AdamState",
    "EncodedSample",
    "EpochReport",
    "LoadedModel",
    "ModelConfig",
    "ParameterSet",
    "PredictionRecord",
    "Sample",
    "SyntheticSpec",
    "Tensor",
    "TrainingPair",
    "Vocabulary",
    "adam_step",
    "blas_threads",
    "bleu_corpus",
    "build_vocab",
    "compare",
    "encode_sample",
    "ensemble_distribution",
    "evaluate_next_token",
    "expand_pairs",
    "filter_by_length",
    "forward",
    "generate_synthetic_corpus",
    "greedy_decode",
    "init_params",
    "load_checkpoint",
    "meteor",
    "no_grad",
    "paired_t_test",
    "positional_matrix",
    "save_checkpoint",
    "split_by_project",
    "train",
]
