"""Frozen-embedding evaluation: deterministic linear probe plus
bootstrap confidence intervals over split seeds.

The probe is multinomial logistic regression trained by full-batch
gradient descent with a fixed iteration budget, so evaluation has no
randomness beyond the split seeds. Probe fitting reads labels only
through the train mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import TrainConfig
from .graph import Graph, SplitSpec, make_splits
from .model import GraphTensors, Model, prepare_graph

PROBE_ITERS = 200
PROBE_LR = 0.5
PROBE_L2 = 1e-4
BOOTSTRAP_SAMPLES = 1000
_STD_FLOOR = 1e-12


def embed(model: Model, gt: GraphTensors) -> np.ndarray:
    """Fused encoder output in evaluation mode (dropout off)."""
    ad.reset_tape()
    h_f, h_s = model.encode(gt)
    h, _ = model.fuse(h_f, h_s, gt.scores)
    data = h.data.copy()
    ad.reset_tape()
    return data


@dataclass
class ProbeWeights:
    w: np.ndarray
    b: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    classes: np.ndarray


def fit_probe(features: np.ndarray, labels: np.ndarray,
              train_mask: np.ndarray) -> ProbeWeights:
    """Softmax regression on the train rows; never touches other labels."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    train_mask = np.asarray(train_mask, dtype=bool)
    classes = np.unique(labels)
    train_classes = np.unique(labels[train_mask])
    missing = np.setdiff1d(classes, train_classes)
    if missing.size:
        raise ValueError(f"class {int(missing[0])} absent from the "
                         f"training mask")
    mean = features[train_mask].mean(axis=0)
    std = features[train_mask].std(axis=0)
    std = np.where(std < _STD_FLOOR, 1.0, std)
    z = (features[train_mask] - mean) / std
    y = np.searchsorted(classes, labels[train_mask])
    n, d = z.shape
    c = classes.size
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((d, c))
    b = np.zeros(c)
    for _ in range(PROBE_ITERS):
        logits = z @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        delta = (p - onehot) / n
        w -= PROBE_LR * (z.T @ delta + PROBE_L2 * w)
        b -= PROBE_LR * delta.sum(axis=0)
    return ProbeWeights(w=w, b=b, mean=mean, std=std, classes=classes)


def probe_accuracy(probe: ProbeWeights, features: np.ndarray,
                   labels: np.ndarray, mask: np.ndarray) -> float:
    features = np.asarray(features, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    z = (features[mask] - probe.mean) / probe.std
    pred = probe.classes[np.argmax(z @ probe.w + probe.b, axis=1)]
    return float(np.mean(pred == np.asarray(labels)[mask]))


def linear_probe(features, labels, train_mask, test_mask) -> float:
    probe = fit_probe(features, labels, train_mask)
    return probe_accuracy(probe, features, labels, test_mask)


def majority_rate(labels, train_mask, test_mask) -> float:
    """Test-set frequency of the train-set majority class."""
    labels = np.asarray(labels, dtype=np.int64)
    train = labels[np.asarray(train_mask, dtype=bool)]
    values, counts = np.unique(train, return_counts=True)
    top = values[np.argmax(counts)]
    test = labels[np.asarray(test_mask, dtype=bool)]
    return float(np.mean(test == top))


def bootstrap_ci(values) -> tuple[float, float]:
    """95% percentile interval of the mean under resampling."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("bootstrap needs at least one value")
    rng = np.random.default_rng(0)
    draws = rng.integers(0, values.size,
                         size=(BOOTSTRAP_SAMPLES, values.size))
    means = values[draws].mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5])
    return float(low), float(high)


def evaluate(model: Model, g: Graph, cfg: TrainConfig,
             split_mode: str = "fractional", seeds: int = 10,
             per_class: int = 20, train_fraction: float = 0.6) -> dict:
    """Probe accuracy across split seeds with a bootstrap CI."""
    if g.labels is None:
        raise ValueError("evaluation requires node labels")
    if seeds < 1:
        raise ValueError("need at least one evaluation seed")
    gt = prepare_graph(g, cfg.degree_feature, cfg.normalize_features)
    features = embed(model, gt)
    accuracies = []
    majorities = []
    for seed in range(seeds):
        spec = make_splits(g, split_mode, seed, per_class=per_class,
                           train_fraction=train_fraction)
        accuracies.append(linear_probe(features, g.labels, spec.train_mask,
                                       spec.test_mask))
        majorities.append(majority_rate(g.labels, spec.train_mask,
                                        spec.test_mask))
    low, high = bootstrap_ci(accuracies)
    return {
        "split_mode": split_mode,
        "seeds": seeds,
        "per_seed": [round(a, 6) for a in accuracies],
        "mean_accuracy": float(np.mean(accuracies)),
        "std_accuracy": float(np.std(accuracies)),
        "ci_low": low,
        "ci_high": high,
        "majority_rate": float(np.mean(majorities)),
    }
