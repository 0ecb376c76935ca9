"""Reverse-mode automatic differentiation on dense 2-D float64 matrices.

Every tensor is a (rows, cols) matrix; scalars are 1x1 and vectors are
column matrices. Operations are module functions (Tensor overloads no
operators) that record themselves on a tape, and a single
backward pass over the tape fills the ``grad`` field of every tensor
created with ``requires_grad=True``. The tape is rebuilt from scratch for
each training step, so the graph can change freely between steps.

The module owns the active tape, and the tape owns its ops and their
tensors. Tensors refer back to their tape only weakly, so reset_tape()
frees the previous step's tape and every intermediate on it by reference
counting alone; run backward before resetting.

Construction and backward are single-threaded; tensors are immutable once
written.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Sequence

import numpy as np

NORM_EPS = 1e-12  # rows with L2 norm below this are treated as zero vectors


class TapeOp:
    """One recorded operation: inputs, output and its backward rule."""

    __slots__ = ("kind", "inputs", "output", "backward_rule")

    def __init__(self, kind, inputs, output, backward_rule):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.backward_rule = backward_rule


class Tape:
    """Ordered record of operations; creation order is a topological order."""

    def __init__(self):
        self.ops: list[TapeOp] = []

    def __len__(self):
        return len(self.ops)

    def record(self, kind, inputs, output, backward_rule):
        self.ops.append(TapeOp(kind, inputs, output, backward_rule))


_current_tape = Tape()


def active_tape() -> Tape:
    return _current_tape


def reset_tape() -> Tape:
    """Install a fresh tape (call once per training step)."""
    global _current_tape
    _current_tape = Tape()
    return _current_tape


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ValueError(f"tensor data must be at most 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Tensor:
    """Dense float64 matrix, optionally participating in backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "_flow", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_matrix(data)
        if not np.isfinite(self.data).all():
            raise ArithmeticError("tensor: non-finite entries in input data")
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._flow = requires_grad
        self._tape: Optional[weakref.ref] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has shape {self.shape}, not 1x1")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def make_op(kind: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_rule: Callable[[np.ndarray], tuple]) -> Tensor:
    """Create the output tensor of an operation and record it if needed.

    ``backward_rule(grad_out)`` must return one gradient array (or None)
    per input, in order. Ops whose inputs carry no gradient flow are not
    recorded.
    """
    if not np.isfinite(out_data).all():
        raise ArithmeticError(f"{kind}: non-finite values in "
                              f"{np.shape(out_data)} result")
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(np.asarray(out_data, dtype=np.float64))
    out.requires_grad = False
    out.grad = None
    out._tape = None
    out._flow = any(t._flow for t in inputs)
    if out._flow:
        out._tape = weakref.ref(_current_tape)
        _current_tape.record(kind, tuple(inputs), out, backward_rule)
    return out


def backward(loss: Tensor):
    """Accumulate d(loss)/dt into ``t.grad`` for every requires_grad tensor.

    Repeated calls without resetting grads accumulate, matching the usual
    gradient-accumulation semantics.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward: loss must be 1x1, got {loss.shape}")
    if loss._tape is None:
        if loss.requires_grad:
            loss.accumulate_grad(np.ones((1, 1)))
        return
    tape = loss._tape()
    if tape is None:
        raise RuntimeError("backward: the loss's tape was released by "
                           "reset_tape()")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    holders: dict[int, Tensor] = {id(loss): loss}
    for op in reversed(tape.ops):
        g = grads.pop(id(op.output), None)
        if g is None:
            continue
        holders.pop(id(op.output), None)
        if op.output.requires_grad:
            op.output.accumulate_grad(g)
        in_grads = op.backward_rule(g)
        for t, gt in zip(op.inputs, in_grads):
            if gt is None or not t._flow:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gt
            else:
                grads[key] = gt
                holders[key] = t
    for key, g in grads.items():
        t = holders[key]
        if t.requires_grad:
            t.accumulate_grad(g)


# ---------------------------------------------------------------------------
# shape helpers

def _check_broadcast(kind: str, sa, sb):
    for da, db in zip(sa, sb):
        if da != db and da != 1 and db != 1:
            raise ValueError(f"{kind}: incompatible shapes {sa} and {sb}")
    return (max(sa[0], sb[0]), max(sa[1], sb[1]))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(i for i in range(2) if shape[i] == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


# ---------------------------------------------------------------------------
# elementwise binary ops

def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_broadcast("add", a.shape, b.shape)
    sa, sb = a.shape, b.shape
    return make_op("add", (a, b), a.data + b.data,
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_broadcast("sub", a.shape, b.shape)
    sa, sb = a.shape, b.shape
    return make_op("sub", (a, b), a.data - b.data,
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_broadcast("mul", a.shape, b.shape)
    da, db, sa, sb = a.data, b.data, a.shape, b.shape
    return make_op("mul", (a, b), da * db,
                   lambda g: (_unbroadcast(g * db, sa), _unbroadcast(g * da, sb)))


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    da, db = a.data, b.data
    return make_op("matmul", (a, b), da @ db,
                   lambda g: (g @ db.T, da.T @ g))


def transpose(a: Tensor) -> Tensor:
    a = _lift(a)
    return make_op("transpose", (a,), a.data.T.copy(),
                   lambda g: (g.T.copy(),))


def block_matmul_t(a: Tensor, b: Tensor, blocks: int) -> Tensor:
    """Block-diagonal products of row blocks: a stacks `blocks` equal
    blocks a_k of shape (n, d), b stacks blocks b_k of shape (m, d), and
    the result stacks a_k b_k^T as a (blocks * n, m) matrix."""
    a, b = _lift(a), _lift(b)
    if (blocks < 1 or a.shape[0] % blocks or b.shape[0] % blocks
            or a.shape[1] != b.shape[1]):
        raise ValueError(f"block_matmul_t: shapes {a.shape} and {b.shape} "
                         f"do not split into {blocks} blocks")
    d = a.shape[1]
    a3 = a.data.reshape(blocks, -1, d)
    b3 = b.data.reshape(blocks, -1, d)
    out = a3 @ b3.transpose(0, 2, 1)

    def back(g):
        g3 = g.reshape(out.shape)
        return ((g3 @ b3).reshape(a.shape),
                (g3.transpose(0, 2, 1) @ a3).reshape(b.shape))

    return make_op("block_matmul_t", (a, b), out.reshape(-1, out.shape[2]),
                   back)


# ---------------------------------------------------------------------------
# layout

def vstack(tensors: Sequence[Tensor]) -> Tensor:
    """Rows of the inputs, in order, as one matrix."""
    ts = tuple(_lift(t) for t in tensors)
    if not ts or any(t.shape[1] != ts[0].shape[1] for t in ts):
        raise ValueError("vstack: need one or more inputs with equal "
                         "column counts")
    splits = np.cumsum([t.shape[0] for t in ts])[:-1]
    return make_op("vstack", ts, np.concatenate([t.data for t in ts]),
                   lambda g: tuple(np.split(g, splits)))


def reshape(a: Tensor, shape) -> Tensor:
    """The entries of a in row-major order, as a matrix of `shape`."""
    a = _lift(a)
    shape_in = a.shape
    return make_op("reshape", (a,), a.data.reshape(shape),
                   lambda g: (g.reshape(shape_in),))


# ---------------------------------------------------------------------------
# elementwise unary ops

def exp(a: Tensor) -> Tensor:
    a = _lift(a)
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)
    return make_op("exp", (a,), out_data, lambda g: (g * out_data,))


def log(a: Tensor) -> Tensor:
    a = _lift(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    da = a.data
    return make_op("log", (a,), np.log(da), lambda g: (g / da,))


def sqrt(a: Tensor) -> Tensor:
    a = _lift(a)
    if np.any(a.data < 0.0):
        raise ValueError("sqrt: input must be nonnegative")
    out_data = np.sqrt(a.data)
    safe = np.where(out_data > 0.0, out_data, 1.0)
    pos = a.data > 0.0
    return make_op("sqrt", (a,), out_data,
                   lambda g: (np.where(pos, 0.5 * g / safe, 0.0),))


def abs_(a: Tensor) -> Tensor:
    a = _lift(a)
    sign = np.sign(a.data)
    return make_op("abs", (a,), np.abs(a.data), lambda g: (g * sign,))


def sigmoid(a: Tensor) -> Tensor:
    a = _lift(a)
    d = a.data
    out_data = np.empty_like(d)
    pos = d >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out_data[~pos] = ez / (1.0 + ez)
    return make_op("sigmoid", (a,), out_data,
                   lambda g: (g * out_data * (1.0 - out_data),))


def prelu(a: Tensor, slope: Tensor) -> Tensor:
    """PReLU with a single learnable slope (1x1 tensor) for the layer."""
    a, slope = _lift(a), _lift(slope)
    if slope.shape != (1, 1):
        raise ValueError(f"prelu: slope must be 1x1, got {slope.shape}")
    d = a.data
    pos = d > 0
    s = slope.data[0, 0]
    out_data = np.where(pos, d, s * d)
    return make_op("prelu", (a, slope), out_data,
                   lambda g: (np.where(pos, g, s * g),
                              np.sum(g * np.where(pos, 0.0, d)).reshape(1, 1)))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    a = _lift(a)
    d = a.data
    pos = d > 0
    return make_op("leaky_relu", (a,), np.where(pos, d, slope * d),
                   lambda g: (np.where(pos, g, slope * g),))


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row to unit L2 norm; rows with norm < NORM_EPS map to zero."""
    a = _lift(a)
    d = a.data
    norms = np.sqrt((d * d).sum(axis=1, keepdims=True))
    ok = norms >= NORM_EPS
    safe = np.where(ok, norms, 1.0)
    out_data = np.where(ok, d / safe, 0.0)

    def back(g):
        dot = (g * d).sum(axis=1, keepdims=True)
        gin = g / safe - d * (dot / (safe ** 3))
        return (np.where(ok, gin, 0.0),)

    return make_op("l2_normalize_rows", (a,), out_data, back)


def gather_rows(a: Tensor, indices) -> Tensor:
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"gather_rows: index out of range for {a.shape[0]} rows")
    n_rows, n_cols = a.shape

    def back(g):
        z = np.zeros((n_rows, n_cols))
        np.add.at(z, idx, g)
        return (z,)

    return make_op("gather_rows", (a,), a.data[idx], back)


# ---------------------------------------------------------------------------
# reductions
#
# Their backward rules return read-only broadcast views, not new buffers:
# backward never writes into an incoming gradient, and accumulate_grad
# copies on first write.

def sum_all(a: Tensor) -> Tensor:
    a = _lift(a)
    shape = a.shape
    return make_op("sum", (a,), np.array([[a.data.sum()]]),
                   lambda g: (np.broadcast_to(g, shape),))


def mean_all(a: Tensor) -> Tensor:
    a = _lift(a)
    shape = a.shape
    n = a.data.size
    return make_op("mean", (a,), np.array([[a.data.mean()]]),
                   lambda g: (np.broadcast_to(g / n, shape),))


def sum_rows(a: Tensor) -> Tensor:
    """Row sums as an (n, 1) column."""
    a = _lift(a)
    shape = a.shape
    return make_op("sum_rows", (a,), a.data.sum(axis=1, keepdims=True),
                   lambda g: (np.broadcast_to(g, shape),))


# ---------------------------------------------------------------------------
# regularization

def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout (training mode); the identity map at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    a = _lift(a)
    if rate == 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.shape) >= rate) / keep
    return make_op("dropout", (a,), a.data * mask, lambda g: (g * mask,))



# ---------------------------------------------------------------------------
# fused losses

# entries per embedding dimension in one row block: a block of an (S, S)
# similarity holds about NCE_BLOCK_ENTRIES_PER_DIM * d entries, 2^16 at
# d = 8 and 2^20 at d = 128. Forward plus backward over blocks of 2^16 to
# 2^21 entries (median of 7 runs, 1 BLAS thread): at d = 8, S = 2708 and
# 3600, 2^16 was fastest, 39-44% faster than 2^21 (small, cache-resident
# tiles); at d = 128, 2^19-2^20 was fastest, 35-37% faster than 2^16
# (tall tiles keep the GEMMs efficient)
NCE_BLOCK_ENTRIES_PER_DIM = 2 ** 13


def nce_block_rows(n: int, d: int) -> int:
    """Rows per block of info_nce on two (n, d) views."""
    return max(1, min(n, NCE_BLOCK_ENTRIES_PER_DIM * d // n))


def _exp_block(left: np.ndarray, right_t: np.ndarray, buf: np.ndarray,
               zero_diagonal: bool) -> np.ndarray:
    """exp(left right_t) for (b, d) left and (d, m) right_t, as a (b, m)
    array over the start of the flat buf; zero_diagonal zeroes its local
    diagonal (k, k), k < b."""
    b, m = left.shape[0], right_t.shape[1]
    e = np.matmul(left, right_t, out=buf[:b * m].reshape(b, m))
    np.exp(e, out=e)
    if zero_diagonal:
        np.fill_diagonal(e, 0.0)
    return e


def info_nce(z: Tensor, z_hat: Tensor, tau: float) -> Tensor:
    """Symmetric intra- plus cross-view InfoNCE (GRACE) of two
    row-normalized (S, d) views, as one op that holds no (S, S) matrix.

    With x = exp(z z_hat^T / tau) and the intra-view u = exp(z z^T / tau),
    v = exp(z_hat z_hat^T / tau), diagonals excluded, the loss is
    -1/(2S) sum_i [2 z_i.z_hat_i / tau - log r_i - log c_i], where
    r = rowsum(x) + rowsum(u) and c = colsum(x) + rowsum(v).

    Both passes walk row blocks I = [i0, i0 + b) of nce_block_rows(S, d)
    rows and recompute each block instead of storing it. x is computed in
    full. u and v are symmetric, so a block computes them only over the
    columns j >= i0, a triangle tile whose diagonal sits at local (k, k):
    its row sums go to r_I (c_I), and the column sums of its part right of
    the diagonal tile to r_j (c_j), j >= i0 + b. The backward pass feeds
    the same tile, weighted by a_i + a_j, into dz_I through u z and into
    dz_j through u^T z_I. That is S^2 + 2 sum_I b (S - i0), about 2 S^2,
    exps per pass.
    """
    z, z_hat = _lift(z), _lift(z_hat)
    if z.shape != z_hat.shape:
        raise ValueError(f"info_nce: view shapes differ: {z.shape} vs "
                         f"{z_hat.shape}")
    n, d = z.shape
    za, zb = z.data, z_hat.data
    # the views scaled by 1/tau, held as contiguous (d, S) transposes: at
    # d = 8 the block products ran ~10% faster against these than against
    # transposed (S, d) arrays
    sat, sbt = (np.multiply(v.T, 1.0 / tau, order="C") for v in (za, zb))
    sa, sb = sat.T, sbt.T
    step = nce_block_rows(n, d)
    blocks = [(i0, min(i0 + step, n)) for i0 in range(0, n, step)]

    r, c = np.zeros(n), np.zeros(n)
    buf = np.empty(step * n)
    with np.errstate(over="ignore"):
        for i0, i1 in blocks:
            rows = slice(i0, i1)
            x = _exp_block(za[rows], sbt, buf, False)
            r[rows] += x.sum(axis=1)
            c += x.sum(axis=0)
            for z_own, s_own, sums in ((za, sa, r), (zb, sb, c)):
                t = _exp_block(z_own[rows], s_own[i0:].T, buf, True)
                sums[rows] += t.sum(axis=1)
                sums[i1:] += t[:, i1 - i0:].sum(axis=0)
    if not (np.isfinite(r).all() and np.isfinite(c).all()):
        raise ArithmeticError(f"info_nce: non-finite values in ({n}, {n}) "
                              f"similarity")
    log_pos = (sa * zb).sum(axis=1)
    with np.errstate(divide="ignore"):
        value = (-1.0 / (2 * n)) * np.sum(2.0 * log_pos
                                          - (np.log(r) + np.log(c)))

    def back(g):
        gs = g[0, 0]
        a, b = gs / (2 * n * r), gs / (2 * n * c)
        dz, dz_hat = (np.multiply(v, -gs / n, order="C") for v in (sb, sa))
        blk, w = np.empty(step * n), np.empty(step * n)
        for i0, i1 in blocks:
            rows = slice(i0, i1)
            x = _exp_block(za[rows], sbt, blk, False)
            x *= np.add(a[rows, None], b, out=w[:x.size].reshape(x.shape))
            dz[rows] += x @ sb
            dz_hat += x.T @ sa[rows]
            for z_own, s_own, wts, grad in ((za, sa, a, dz),
                                            (zb, sb, b, dz_hat)):
                t = _exp_block(z_own[rows], s_own[i0:].T, blk, True)
                t *= np.add(wts[rows, None], wts[i0:],
                            out=w[:t.size].reshape(t.shape))
                grad[rows] += t @ s_own[i0:]
                grad[i1:] += t[:, i1 - i0:].T @ s_own[rows]
        return dz, dz_hat

    return make_op("info_nce", (z, z_hat), np.array([[value]]), back)
