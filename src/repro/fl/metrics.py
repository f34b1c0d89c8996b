"""Evaluation metrics for classification models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import functional as F, no_grad
from repro.datasets.base import ArrayDataset
from repro.nn.module import Module
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class EvalResult:
    """Accuracy and mean loss over a dataset."""

    accuracy: float
    loss: float
    n_samples: int


def evaluate(
    model: Module,
    dataset: ArrayDataset,
    batch_size: int = 256,
) -> EvalResult:
    """Top-1 accuracy and mean cross-entropy of ``model`` on ``dataset``."""
    check_positive("batch_size", batch_size)
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    was_training = model.training
    model.eval()
    correct = 0
    loss_sum = 0.0
    try:
        with no_grad():
            for start in range(0, len(dataset), batch_size):
                xb = dataset.x[start : start + batch_size]
                yb = dataset.y[start : start + batch_size]
                logits = model(xb)
                predictions = logits.data.argmax(axis=1)
                correct += int((predictions == yb).sum())
                loss_sum += float(F.cross_entropy(logits, yb).item()) * xb.shape[0]
    finally:
        if was_training:
            model.train()
    n = len(dataset)
    return EvalResult(accuracy=correct / n, loss=loss_sum / n, n_samples=n)
