"""Training configuration: field definitions, validation, JSON loading.

Config files are JSON objects whose keys must exactly match the field
names below; unknown keys are rejected so typos fail loudly. The
optional range-checked mode additionally constrains every searched
hyperparameter to its published tuning interval.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

NODE_LOSS_VARIANTS = ("full", "v2")
DEGREE_FEATURES = ("raw", "normalized-1", "normalized-2", "pagerank",
                   "eigenscore", "none")

# tuning intervals enforced only when range_checked is set
_SEARCH_RANGES = {
    "lr": (1e-4, 1e-2),
    "lr_fusion": (1e-4, 1e-2),
    "alpha": (0.0, 1.0),
    "beta": (1e-3, 2.0),
    "k": (10, 30),
    "tau": (0.2, 3.0),
    "dropout": (0.1, 0.4),
    "fusion_dropout": (0.1, 0.4),
}


def check_integers(**counts) -> None:
    """Raise a ValueError naming the first count that is not an integer:
    NaN, inf and 2.5 pass range checks, and a bool is not a count."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class TrainConfig:
    lr: float = 1e-3
    lr_fusion: float = 1e-3
    alpha: float = 0.5
    beta: float = 0.1
    k: int = 10
    tau: float = 1.0
    dropout: float = 0.0
    fusion_dropout: float = 0.0
    beta1: float = 0.1
    beta2: float = 1.0
    num_anchors: int = 0  # 0 means min(300, N // 2) at run time
    num_negatives: int = 2
    epochs: int = 300
    hidden_dim: int = 1024
    out_dim: int = 512
    seed: int = 0
    node_loss: str = "full"
    degree_feature: str = "raw"
    normalize_features: bool = False
    bapg_iters: int = 50
    bapg_tol: float = 1e-6
    bfs_shuffle: bool = False
    range_checked: bool = False

    def __post_init__(self):
        check_integers(**{name: getattr(self, name) for name in _INT_FIELDS})

        def positive(name):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")

        for name in ("lr", "lr_fusion", "beta", "tau", "bapg_tol"):
            positive(name)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        for name in ("dropout", "fusion_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), "
                                 f"got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, "
                                 f"got {getattr(self, name)}")
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.num_anchors < 0:
            raise ValueError("num_anchors must be nonnegative (0 = auto)")
        if self.num_negatives < 1:
            raise ValueError("num_negatives must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.hidden_dim < 1 or self.out_dim < 1:
            raise ValueError("hidden_dim and out_dim must be at least 1")
        if self.bapg_iters < 1:
            raise ValueError("bapg_iters must be at least 1")
        if self.node_loss not in NODE_LOSS_VARIANTS:
            raise ValueError(f"node_loss must be one of "
                             f"{NODE_LOSS_VARIANTS}, got {self.node_loss!r}")
        if self.degree_feature not in DEGREE_FEATURES:
            raise ValueError(f"degree_feature must be one of "
                             f"{DEGREE_FEATURES}, "
                             f"got {self.degree_feature!r}")
        if self.range_checked:
            for name, (lo, hi) in _SEARCH_RANGES.items():
                value = getattr(self, name)
                if not lo <= value <= hi:
                    raise ValueError(
                        f"{name}={value} outside the tuning range "
                        f"[{lo}, {hi}] (range_checked is on)")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_INT_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)
               if f.type == "int"}
_BOOL_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)
                if f.type == "bool"}
_FLOAT_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)
                 if f.type == "float"}


def parse_config(raw: dict) -> TrainConfig:
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    coerced = {}
    for key, value in raw.items():
        if key in _BOOL_FIELDS:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be a boolean")
        elif key in _INT_FIELDS:  # TrainConfig rejects other non-integers
            if isinstance(value, float) and value.is_integer():
                value = int(value)
        elif key in _FLOAT_FIELDS and (isinstance(value, bool) or
                                       not isinstance(value, (int, float))):
            raise ValueError(f"config key {key!r} must be a number, "
                             f"got {value!r}")
        coerced[key] = value
    return TrainConfig(**coerced)


def load_config(path) -> TrainConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path}: invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path}: expected a JSON object")
    return parse_config(raw)


def save_config(cfg: TrainConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2,
                                     sort_keys=True) + "\n")


def config_hash(cfg: TrainConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
