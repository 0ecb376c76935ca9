"""Graph data model, file formats, splits, structure statistics, and the
synthetic two-block generator with spiked Gaussian features."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

DEV_FRACTION = 0.8  # dev/test partition, fixed before any seeding
_PARTITION_SEED = 7_919  # constant so the test mask never moves across seeds
PAGERANK_DAMPING = 0.85
PAGERANK_ITERS = 100
EIGENSCORE_ITERS = 200


def canonicalize_edges(edges, n: int) -> tuple[np.ndarray, int, int]:
    """Sort each pair to u < v, drop self-loops and duplicates.

    Returns (edges, self_loops_dropped, duplicates_dropped).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError(f"edge endpoint out of range for {n} nodes")
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    keep = lo != hi
    self_loops = int((~keep).sum())
    pairs = np.stack([lo[keep], hi[keep]], axis=1)
    if pairs.size:
        codes = pairs[:, 0] * np.int64(n) + pairs[:, 1]
        unique_codes = np.unique(codes)
        duplicates = int(codes.size - unique_codes.size)
        pairs = np.stack([unique_codes // n, unique_codes % n], axis=1)
    else:
        duplicates = 0
    return pairs, self_loops, duplicates


@dataclass(frozen=True)
class Graph:
    """Undirected graph: canonical edge list (u < v, unique, no self-loops),
    dense feature matrix, optional integer labels."""

    n: int
    edges: np.ndarray
    x: np.ndarray
    labels: Optional[np.ndarray] = None
    _adj: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(f"feature matrix must be ({self.n}, F), got {x.shape}")
        edges, self_loops, dups = canonicalize_edges(self.edges, self.n)
        if self_loops or dups:
            raise ValueError("edge list must be canonical: "
                             f"{self_loops} self-loops, {dups} duplicates")
        labels = self.labels
        if labels is not None:
            labels = np.ascontiguousarray(labels, dtype=np.int64)
            if labels.shape != (self.n,):
                raise ValueError(f"labels must have length {self.n}")
            if labels.size and labels.min() < 0:
                raise ValueError("labels must be nonnegative class ids")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        if edges.size:
            rows = np.concatenate([edges[:, 0], edges[:, 1]])
            cols = np.concatenate([edges[:, 1], edges[:, 0]])
            adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                                shape=(self.n, self.n))
        else:
            adj = sp.csr_matrix((self.n, self.n))
        object.__setattr__(self, "_adj", adj)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.x.shape[1])

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency without self-loops."""
        return self._adj

    def degrees(self) -> np.ndarray:
        return np.asarray(self._adj.sum(axis=1)).ravel()


def make_graph(edges, x, labels=None) -> Graph:
    """Build a Graph, canonicalizing the edge list (drops logged)."""
    x = np.asarray(x, dtype=np.float64)
    edges, self_loops, dups = canonicalize_edges(edges, x.shape[0])
    if self_loops or dups:
        log.info("dropped %d self-loops and %d duplicate edges",
                 self_loops, dups)
    return Graph(n=x.shape[0], edges=edges, x=x, labels=labels)


# ---------------------------------------------------------------------------
# file formats

def load_graph(edge_file, feature_file, label_file=None) -> Graph:
    """Read a graph from text files.

    Edge file: "u v" integer pairs, one per line, 0-based; '#' lines are
    comments. Feature file: one node per line, comma-separated reals, line
    index = node id. Label file: one integer per line.
    """
    features = []
    width = None
    with open(feature_file) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(
                    f"{feature_file}:{lineno}: unparsable feature row") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{feature_file}:{lineno}: ragged row, expected "
                    f"{width} values, got {len(row)}")
            features.append(row)
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]

    raw_edges = []
    with open(edge_file) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{edge_file}:{lineno}: expected 'u v' pair")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(
                    f"{edge_file}:{lineno}: unparsable node ids") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"{edge_file}:{lineno}: node id out of range for {n} nodes")
            raw_edges.append((u, v))

    labels = None
    if label_file is not None:
        values = []
        with open(label_file) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    values.append(int(line))
                except ValueError as exc:
                    raise ValueError(
                        f"{label_file}:{lineno}: unparsable label") from exc
        if len(values) != n:
            raise ValueError(f"{label_file}: {len(values)} labels for {n} nodes")
        labels = np.asarray(values, dtype=np.int64)

    edges, self_loops, dups = canonicalize_edges(
        np.asarray(raw_edges, dtype=np.int64).reshape(-1, 2), n)
    if self_loops or dups:
        log.warning("%s: dropped %d self-loops and %d duplicate edges",
                    edge_file, self_loops, dups)
    return Graph(n=n, edges=edges, x=x, labels=labels)


def save_graph(g: Graph, edge_file, feature_file, label_file=None) -> None:
    with open(edge_file, "w") as fh:
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")
    with open(feature_file, "w") as fh:
        for row in g.x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    if label_file is not None:
        if g.labels is None:
            raise ValueError("graph has no labels to save")
        with open(label_file, "w") as fh:
            for y in g.labels:
                fh.write(f"{y}\n")


# ---------------------------------------------------------------------------
# structure operators

def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2}; isolated nodes get all-zero rows and columns."""
    deg = g.degrees()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    d = sp.diags(inv_sqrt)
    return sp.csr_matrix(d @ g.adjacency @ d)


def homophily(g: Graph) -> float:
    """Mean over non-isolated nodes of the same-label neighbor fraction."""
    if g.labels is None:
        raise ValueError("homophily requires labels")
    deg = g.degrees()
    y = g.labels[g.edges]
    same = np.bincount(g.edges[y[:, 0] == y[:, 1]].ravel(), minlength=g.n)
    mask = deg > 0
    if not mask.any():
        raise ValueError("homophily undefined: all nodes isolated")
    return float((same[mask] / deg[mask]).mean())


def induced_subgraph(adj, indices) -> np.ndarray:
    """Dense symmetric |S| x |S| adjacency slice A[S; S]."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if np.unique(idx).size != idx.size:
        raise ValueError("induced_subgraph: duplicate indices")
    adj = sp.csr_matrix(adj)
    return np.asarray(adj[np.ix_(idx, idx)].todense(), dtype=np.float64)


def pagerank(g: Graph) -> np.ndarray:
    """Power iteration; dangling (isolated) nodes redistribute uniformly."""
    n = g.n
    deg = g.degrees()
    adj = g.adjacency
    r = np.full(n, 1.0 / n)
    with np.errstate(divide="ignore"):
        inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-300), 0.0)
    for _ in range(PAGERANK_ITERS):
        spread = adj.T @ (r * inv_deg)
        dangling = r[deg == 0].sum() / n
        r = ((1.0 - PAGERANK_DAMPING) / n
             + PAGERANK_DAMPING * (spread + dangling))
    return r


def eigenscore(g: Graph) -> np.ndarray:
    """Principal-eigenvector centrality of the adjacency, unit L2 norm,
    nonnegative orientation. Zero vector on an empty graph."""
    adj = g.adjacency
    if g.num_edges == 0:
        return np.zeros(g.n)
    rng = np.random.default_rng(0)
    v = rng.random(g.n) + 1e-3
    v /= np.linalg.norm(v)
    for _ in range(EIGENSCORE_ITERS):
        w = adj @ v
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            return np.zeros(g.n)
        v = w / norm
    return np.abs(v)


def structural_scores(g: Graph, kind: str) -> np.ndarray:
    """Per-node centrality fed to the fusion weight network."""
    deg = g.degrees()
    if kind == "raw":
        return deg
    if kind == "normalized-1":
        return deg / max(g.n - 1, 1)
    if kind == "normalized-2":
        total = deg.sum()
        return deg / total if total > 0 else deg
    if kind == "pagerank":
        return pagerank(g)
    if kind == "eigenscore":
        return eigenscore(g)
    if kind == "none":
        return np.zeros(g.n)
    raise ValueError(f"unknown structural score kind {kind!r}")


# ---------------------------------------------------------------------------
# synthetic generator

@dataclass(frozen=True)
class CsbmParams:
    """Two balanced classes; edges by within/cross-class Bernoulli rates;
    features are a class-dependent spike plus standard Gaussian noise."""

    n: int
    feature_dim: int
    p: float
    q: float
    mu_sig: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.feature_dim < 2:
            raise ValueError("need n >= 2 and feature_dim >= 2")
        for name in ("p", "q"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def _sample_pairs_within(rng, nodes: np.ndarray, prob: float) -> np.ndarray:
    """Distinct unordered pairs inside a block: draw the binomial count,
    then rejection-sample distinct pairs (scales to large blocks without
    materializing the pair space)."""
    b = nodes.size
    num_pairs = b * (b - 1) // 2
    if num_pairs == 0 or prob == 0.0:
        return np.empty((0, 2), dtype=np.int64)
    count = int(rng.binomial(num_pairs, prob))
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    if count > num_pairs:
        count = num_pairs
    chosen: np.ndarray = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        draw = max(count - chosen.size, 16)
        i = rng.integers(0, b, size=2 * draw)
        j = rng.integers(0, b, size=2 * draw)
        keep = i < j
        codes = i[keep] * np.int64(b) + j[keep]
        chosen = np.unique(np.concatenate([chosen, codes]))
    chosen = rng.permutation(chosen)[:count]
    return np.stack([nodes[chosen // b], nodes[chosen % b]], axis=1)


def _sample_pairs_across(rng, a: np.ndarray, b: np.ndarray,
                         prob: float) -> np.ndarray:
    na, nb = a.size, b.size
    num_pairs = na * nb
    if num_pairs == 0 or prob == 0.0:
        return np.empty((0, 2), dtype=np.int64)
    count = int(rng.binomial(num_pairs, prob))
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    chosen: np.ndarray = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        draw = max(count - chosen.size, 16)
        codes = rng.integers(0, num_pairs, size=2 * draw)
        chosen = np.unique(np.concatenate([chosen, codes]))
    chosen = rng.permutation(chosen)[:count]
    return np.stack([a[chosen // nb], b[chosen % nb]], axis=1)


def generate_csbm(params: CsbmParams) -> Graph:
    """Two-block graph with spiked features, deterministic for a seed.

    y_i in {0, 1} (first ceil(n/2) nodes class 0); each within-class pair
    is an edge with probability p, each cross-class pair with probability
    q; x_i = mu_sig * u_{y_i} + N(0, I) with u_0, u_1 orthogonal unit
    vectors (first two coordinate axes).
    """
    rng = np.random.default_rng(params.seed)
    n = params.n
    labels = np.zeros(n, dtype=np.int64)
    labels[(n + 1) // 2:] = 1
    block0 = np.where(labels == 0)[0]
    block1 = np.where(labels == 1)[0]
    edges = np.concatenate([
        _sample_pairs_within(rng, block0, params.p),
        _sample_pairs_within(rng, block1, params.p),
        _sample_pairs_across(rng, block0, block1, params.q),
    ])
    x = rng.standard_normal((n, params.feature_dim))
    x[:, 0] += params.mu_sig * (labels == 0)
    x[:, 1] += params.mu_sig * (labels == 1)
    return make_graph(edges, x, labels)


# ---------------------------------------------------------------------------
# splits

@dataclass(frozen=True)
class SplitSpec:
    """Boolean masks: dev/test partition the graph; train/val partition dev.
    The test mask depends only on the node count, never on the seed."""

    dev_mask: np.ndarray
    test_mask: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    seed: int
    mode: str


def _dev_test_partition(n: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.random.default_rng(_PARTITION_SEED).permutation(n)
    dev_count = int(round(DEV_FRACTION * n))
    dev_mask = np.zeros(n, dtype=bool)
    dev_mask[order[:dev_count]] = True
    return dev_mask, ~dev_mask


def make_splits(g: Graph, mode: str, seed: int,
                per_class: int = 20, train_fraction: float = 0.6) -> SplitSpec:
    """Seeded train/validation split inside the fixed dev partition.

    ``planetoid`` draws ``per_class`` training nodes per class;
    ``fractional`` draws a ``train_fraction`` share of dev nodes.
    """
    if g.labels is None:
        raise ValueError("splits require labels")
    if mode not in ("planetoid", "fractional"):
        raise ValueError(f"unknown split mode {mode!r}")
    dev_mask, test_mask = _dev_test_partition(g.n)
    rng = np.random.default_rng(seed)
    train_mask = np.zeros(g.n, dtype=bool)
    dev_idx = np.where(dev_mask)[0]
    if mode == "planetoid":
        for c in np.unique(g.labels):
            pool = dev_idx[g.labels[dev_idx] == c]
            if pool.size < per_class:
                raise ValueError(
                    f"class {c} has {pool.size} dev nodes, needs {per_class}")
            train_mask[rng.choice(pool, size=per_class, replace=False)] = True
    else:
        take = int(round(train_fraction * dev_idx.size))
        train_mask[rng.choice(dev_idx, size=take, replace=False)] = True
    val_mask = dev_mask & ~train_mask
    return SplitSpec(dev_mask=dev_mask, test_mask=test_mask,
                     train_mask=train_mask, val_mask=val_mask,
                     seed=seed, mode=mode)


def save_splits(spec: SplitSpec, path) -> None:
    payload = {
        "mode": spec.mode,
        "seed": spec.seed,
        "dev": np.where(spec.dev_mask)[0].tolist(),
        "test": np.where(spec.test_mask)[0].tolist(),
        "train": np.where(spec.train_mask)[0].tolist(),
        "val": np.where(spec.val_mask)[0].tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def load_splits(path, n: int) -> SplitSpec:
    payload = json.loads(Path(path).read_text())

    def mask(ids):
        m = np.zeros(n, dtype=bool)
        m[np.asarray(ids, dtype=np.int64)] = True
        return m

    return SplitSpec(dev_mask=mask(payload["dev"]), test_mask=mask(payload["test"]),
                     train_mask=mask(payload["train"]), val_mask=mask(payload["val"]),
                     seed=int(payload["seed"]), mode=payload["mode"])
