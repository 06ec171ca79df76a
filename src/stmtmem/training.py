"""Teacher forcing, minibatch Adam training, and convergence selection.

The output head predicts one next word per (sample, summary-prefix) pair,
so training expands every sample into its prefix pairs and batches those.
The kept checkpoint is the epoch with peak validation next-token accuracy,
ties broken by lower validation loss, then by earlier epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ModelConfig
from .corpus import BOS_ID, EOS_ID, EncodedSample
from .errors import NumericInputError, UsageError
from .model import ModelInputs, batch_inputs, init_params, prefix_row, _forward_batch
from .params import AdamState, ParameterSet, adam_step
from .tensor import cross_entropy, mean_all, no_grad

LEARNING_RATE = 1e-3


@dataclass
class TrainingPair:
    """One teacher-forcing pair: feed the first prefix_len summary tokens,
    predict summary_ids[prefix_len]."""

    sample: EncodedSample
    prefix_len: int
    target_id: int


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_loss: float


def expand_pairs(encoded: EncodedSample) -> list[TrainingPair]:
    """[<s>] -> w1, [<s>, w1] -> w2, ..., [<s>, ..., wk] -> </s>."""
    ids = encoded.summary_ids
    eos_positions = np.flatnonzero(ids == EOS_ID)
    if ids[0] != BOS_ID or eos_positions.size == 0:
        raise UsageError(f"sample {encoded.sample_id}: summary is not framed with <s>/</s>")
    eos_at = int(eos_positions[0])
    return [TrainingPair(encoded, k, int(ids[k])) for k in range(1, eos_at + 1)]


def _pair_batch(pairs: Sequence[TrainingPair], comlen: int) -> tuple[ModelInputs, np.ndarray]:
    rows = [prefix_row(p.sample.summary_ids[: p.prefix_len], comlen) for p in pairs]
    inputs = batch_inputs([p.sample for p in pairs], summary_rows=rows)
    targets = np.array([p.target_id for p in pairs], dtype=np.int64)
    return inputs, targets


def _batches(count: int, size: int):
    for start in range(0, count, size):
        yield start, min(start + size, count)


def evaluate_next_token(pairs: Sequence[TrainingPair], params: ParameterSet,
                        config: ModelConfig) -> tuple[float, float]:
    """(accuracy, mean loss) over pairs; argmax ties go to the lowest id."""
    if not pairs:
        raise UsageError("evaluate_next_token: no pairs")
    hits = 0
    total_loss = 0.0
    with no_grad():
        for start, stop in _batches(len(pairs), config.batch):
            chunk = pairs[start:stop]
            inputs, targets = _pair_batch(chunk, config.comlen)
            dists, _ = _forward_batch(inputs, params, config)
            hits += int(np.sum(np.argmax(dists.data, axis=1) == targets))
            total_loss += float(cross_entropy(dists, targets).data.sum())
    return hits / len(pairs), total_loss / len(pairs)


def select_best(reports: Sequence[EpochReport]) -> int:
    """Index of the convergence epoch: max accuracy, then min loss, then
    earliest. A pure function of the report list."""
    if not reports:
        raise UsageError("select_best: no epochs")
    return min(range(len(reports)),
               key=lambda i: (-reports[i].val_accuracy, reports[i].val_loss, i))


def clip_gradients(params: ParameterSet, max_norm: float) -> None:
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for _, p in params.items():
            if p.grad is not None:
                p.grad *= factor


def train(train_set: Sequence[EncodedSample], val_set: Sequence[EncodedSample],
          config: ModelConfig, max_epochs: int,
          stop_at_accuracy: float | None = None,
          ) -> tuple[ParameterSet, list[EpochReport]]:
    """Train from a fresh seeded init; returns the best checkpoint and the
    per-epoch reports. Two runs with the same seed, config, and data are
    bitwise identical."""
    if not train_set or not val_set:
        raise UsageError("train: empty training or validation set")
    params = init_params(config)
    adam = AdamState.bind(params)
    train_pairs = [p for s in train_set for p in expand_pairs(s)]
    val_pairs = [p for s in val_set for p in expand_pairs(s)]
    shuffle_rng = np.random.default_rng([config.rng_seed, 0x5F])

    reports: list[EpochReport] = []
    best_params = params.copy()
    for epoch in range(max_epochs):
        order = shuffle_rng.permutation(len(train_pairs))
        loss_sum = 0.0
        try:
            for batch, (start, stop) in enumerate(_batches(len(train_pairs), config.batch)):
                where = f"batch {batch}"
                chunk = [train_pairs[i] for i in order[start:stop]]
                inputs, targets = _pair_batch(chunk, config.comlen)
                dists, _ = _forward_batch(inputs, params, config)
                loss = mean_all(cross_entropy(dists, targets))
                loss.backward()
                if config.grad_clip is not None:
                    clip_gradients(params, config.grad_clip)
                adam_step(params, adam, LEARNING_RATE)
                loss_sum += loss.item() * len(chunk)
            where = "validation"
            val_acc, val_loss = evaluate_next_token(val_pairs, params, config)
        except NumericInputError as exc:
            best = reports[select_best(reports)].epoch if reports else "none"
            raise NumericInputError(f"training epoch {epoch}, {where}: {exc} "
                                    f"(best epoch so far: {best})") from None
        reports.append(EpochReport(epoch, loss_sum / len(train_pairs), val_acc, val_loss))
        if select_best(reports) == epoch:
            best_params = params.copy()
        if stop_at_accuracy is not None and val_acc >= stop_at_accuracy:
            break
    return best_params, reports


def format_training_log(reports: Sequence[EpochReport]) -> str:
    """One line per epoch: epoch, train loss, validation accuracy and loss."""
    lines = [f"{r.epoch}\t{r.train_loss:.6f}\t{r.val_accuracy:.6f}\t{r.val_loss:.6f}"
             for r in reports]
    return "\n".join(lines) + "\n"
