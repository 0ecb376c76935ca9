"""Decoupled encoder, attention-based view generator, adaptive fusion.

The encoder keeps a feature channel sigma(Z W) and a structure channel
sigma(A_norm Z W) per layer with one shared projection W. Layer 1 fuses
its channels (through a hidden-width fusion MLP) before feeding layer 2;
the final layer stays channel-separate so the generator can perturb each
channel on its own support. A single graph-attention layer serves as the
generator for both channels: on the feature channel each node attends
to itself alone, which reduces to the layer's projection, and on the
structure channel the normalized-adjacency support reweights neighbors.
Fusion computes a per-node gate lambda_i = psi([h_f_i, h_s_i, score_i])
in [0, 1] and returns H = H_f + lambda * H_s; one psi instance is shared
by the encoder-side and generator-side fusions.

Each projection and each layer of psi is one autodiff.dense op, with
the layer's dropout drawn inside it (the encoder rate on the projections'
inputs, the fusion rate on psi's first layer), and the gated sum is one
combine_channels op.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import Tensor
from .graph import Graph, normalized_adjacency, structural_scores
from .graph_ops import GraphSupport, gat_layer, spmm

PRELU_INIT = 0.25
_CHECKPOINT_FORMAT = "fgwcl-checkpoint"
# the Model arguments a checkpoint header carries
_CHECKPOINT_FIELDS = ("num_features", "hidden_dim", "out_dim", "dropout",
                      "fusion_dropout", "seed")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class GraphTensors:
    """Constant per-graph inputs shared by every training step."""

    graph: Graph
    x: Tensor
    adj_norm: sp.csr_matrix
    struct_support: GraphSupport
    scores: Tensor


def prepare_graph(g: Graph, degree_feature: str = "raw",
                  normalize_features: bool = False) -> GraphTensors:
    x = np.asarray(g.x, dtype=np.float64)
    if normalize_features:
        norms = np.abs(x).sum(axis=1, keepdims=True)
        x = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)
    adj_norm = normalized_adjacency(g)
    scores = structural_scores(g, degree_feature).reshape(-1, 1)
    return GraphTensors(
        graph=g,
        x=ad.constant(x),
        adj_norm=adj_norm,
        struct_support=GraphSupport.from_sparse(adj_norm),
        scores=ad.constant(scores),
    )


def combine_channels(h_f: Tensor, h_s: Tensor, lam: Tensor) -> Tensor:
    """H = H_f + lambda * H_s with lambda an N x 1 gate, as one op."""
    if h_f.shape != h_s.shape or lam.shape != (h_f.shape[0], 1):
        raise ValueError(f"combine_channels: channels {h_f.shape} and "
                         f"{h_s.shape}, gate {lam.shape}")
    hf, hs, gate = h_f.data, h_s.data, lam.data
    out = gate * hs
    out += hf

    def back(g):
        return (g, g * gate if h_s._flow else None,
                (g * hs).sum(axis=1, keepdims=True) if lam._flow else None)

    return ad.make_op("combine_channels", (h_f, h_s, lam), out, back)


@dataclass
class ForwardPass:
    h_f: Tensor
    h_s: Tensor
    h: Tensor
    lam: Tensor
    h_hat_f: Tensor
    h_hat_s: Tensor
    h_hat: Tensor
    lam_hat: Tensor


class Model:
    """Parameter container plus the encode / generate / fuse operations.

    Parameter groups: encoder and generator weights train under one
    learning rate, the shared fusion MLP psi under its own.
    """

    def __init__(self, num_features: int, hidden_dim: int = 1024,
                 out_dim: int = 512, dropout: float = 0.0,
                 fusion_dropout: float = 0.0, seed: int = 0):
        if not 0.0 <= dropout < 1.0 or not 0.0 <= fusion_dropout < 1.0:
            raise ValueError("dropout rates must lie in [0, 1)")
        self.num_features = int(num_features)
        self.hidden_dim = int(hidden_dim)
        self.out_dim = int(out_dim)
        self.dropout = float(dropout)
        self.fusion_dropout = float(fusion_dropout)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        f, hd, d = self.num_features, self.hidden_dim, self.out_dim
        p: dict[str, Tensor] = {}

        def param(name, data):
            p[name] = Tensor(np.asarray(data, dtype=np.float64),
                             requires_grad=True)

        def psi(prefix, width):
            """A fusion MLP on [h_f | h_s | score] of width 2*width+1."""
            first = _glorot(rng, 2 * width + 1, width,
                            (2 * width + 1, width))
            param(prefix + "wf", first[:width])
            param(prefix + "ws", first[width:2 * width])
            param(prefix + "wd", first[2 * width:])
            param(prefix + "b1", np.zeros((1, width)))
            param(prefix + "slope", np.full((1, 1), PRELU_INIT))
            param(prefix + "w2", _glorot(rng, width, 1, (width, 1)))
            param(prefix + "b2", np.zeros((1, 1)))

        param("enc_w1", _glorot(rng, f, hd, (f, hd)))
        param("enc_slope1", np.full((1, 1), PRELU_INIT))
        param("enc_w2", _glorot(rng, hd, d, (hd, d)))
        param("enc_slope2", np.full((1, 1), PRELU_INIT))
        psi("enc_fuse_", hd)  # layer 1
        # one attention layer shared by both generator channels
        param("gat_w", _glorot(rng, d, d, (d, d)))
        att = _glorot(rng, 2 * d, 1, (2 * d, 1))
        param("gat_a_src", att[:d])
        param("gat_a_dst", att[d:])
        psi("fuse_", d)  # shared output-width psi
        self.params = p

    # -- parameter groups ---------------------------------------------------

    def encoder_generator_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items()
                if not k.startswith("fuse_")}

    def fusion_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items()
                if k.startswith("fuse_")}

    # -- forward pieces -----------------------------------------------------

    def _psi(self, prefix: str, h_f: Tensor, h_s: Tensor, scores: Tensor,
             training: bool, rng: Optional[np.random.Generator]) -> Tensor:
        p = self.params
        pre = ad.dense((h_f, h_s, scores),
                       (p[prefix + "wf"], p[prefix + "ws"], p[prefix + "wd"]),
                       p[prefix + "b1"],
                       self.fusion_dropout if training else 0.0, rng)
        hidden = ad.prelu(pre, p[prefix + "slope"])
        return ad.sigmoid(ad.dense((hidden,), (p[prefix + "w2"],),
                                   p[prefix + "b2"]))

    def encode(self, gt: GraphTensors, training: bool = False,
               rng: Optional[np.random.Generator] = None
               ) -> tuple[Tensor, Tensor]:
        """Final-layer channels (H_f, H_s), left unfused."""
        p = self.params
        if gt.x.shape[1] != self.num_features:
            raise ValueError(
                f"graph has {gt.x.shape[1]} features, model expects "
                f"{self.num_features}")
        rate = self.dropout if training else 0.0
        t1 = ad.dense((gt.x,), (p["enc_w1"],), rate=rate, rng=rng)
        f1 = ad.prelu(t1, p["enc_slope1"])
        s1 = ad.prelu(spmm(gt.adj_norm, t1), p["enc_slope1"])
        lam1 = self._psi("enc_fuse_", f1, s1, gt.scores, training, rng)
        z1 = combine_channels(f1, s1, lam1)
        t2 = ad.dense((z1,), (p["enc_w2"],), rate=rate, rng=rng)
        h_f = ad.prelu(t2, p["enc_slope2"])
        h_s = ad.prelu(spmm(gt.adj_norm, t2), p["enc_slope2"])
        return h_f, h_s

    def generate(self, gt: GraphTensors, h_f: Tensor, h_s: Tensor
                 ) -> tuple[Tensor, Tensor]:
        """Perturbed channels from one shared attention layer; attention
        over a node alone is 1, so the feature channel is a projection."""
        p = self.params
        h_hat_f = ad.matmul(h_f, p["gat_w"])
        h_hat_s = gat_layer(h_s, p["gat_w"], p["gat_a_src"], p["gat_a_dst"],
                            gt.struct_support)
        return h_hat_f, h_hat_s

    def fuse(self, h_f: Tensor, h_s: Tensor, scores: Tensor,
             training: bool = False,
             rng: Optional[np.random.Generator] = None
             ) -> tuple[Tensor, Tensor]:
        lam = self._psi("fuse_", h_f, h_s, scores, training, rng)
        return combine_channels(h_f, h_s, lam), lam

    def forward(self, gt: GraphTensors, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> ForwardPass:
        h_f, h_s = self.encode(gt, training, rng)
        h_hat_f, h_hat_s = self.generate(gt, h_f, h_s)
        h, lam = self.fuse(h_f, h_s, gt.scores, training, rng)
        h_hat, lam_hat = self.fuse(h_hat_f, h_hat_s, gt.scores, training,
                                   rng)
        return ForwardPass(h_f=h_f, h_s=h_s, h=h, lam=lam, h_hat_f=h_hat_f,
                           h_hat_s=h_hat_s, h_hat=h_hat, lam_hat=lam_hat)


# -- checkpoints ------------------------------------------------------------

def save_checkpoint(path, model: Model, extra: Optional[dict] = None
                    ) -> None:
    """JSON header (shapes, seed, optional config hash) then raw
    little-endian f64 arrays in parameter declaration order."""
    names = list(model.params)
    header = {
        "format": _CHECKPOINT_FORMAT,
        "version": 1,
        **{k: getattr(model, k) for k in _CHECKPOINT_FIELDS},
        "params": [[n, list(model.params[n].shape)] for n in names],
    }
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            arr = np.ascontiguousarray(model.params[name].data,
                                       dtype="<f8")
            fh.write(arr.tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        raw = fh.read(8)
        if len(raw) != 8:
            raise ValueError("checkpoint truncated before header length")
        (hlen,) = struct.unpack("<Q", raw)
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("checkpoint header is not a JSON object")
        if header.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError("not a model checkpoint file")
        missing = [k for k in _CHECKPOINT_FIELDS + ("params",)
                   if k not in header]
        if missing:
            raise ValueError(f"checkpoint header lacks {', '.join(missing)}")
        if not isinstance(header["params"], list) or not all(
                isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
                and isinstance(p[1], list)
                and all(type(k) is int and k >= 0 for k in p[1])
                for p in header["params"]):
            raise ValueError("checkpoint params are not [name, shape] pairs")
        arrays = {}
        for name, shape in header["params"]:
            count = int(np.prod(shape, dtype=np.int64))
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"checkpoint truncated in array {name}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape)
    return header, arrays


def restore_model(path) -> Model:
    header, arrays = load_checkpoint(path)
    model = Model(**{k: header[k] for k in _CHECKPOINT_FIELDS})
    for name, tensor in model.params.items():
        if name not in arrays:
            raise ValueError(f"checkpoint missing parameter {name}")
        if arrays[name].shape != tensor.shape:
            raise ValueError(f"checkpoint shape mismatch for {name}")
        tensor.data = arrays[name].astype(np.float64).copy()
    return model
