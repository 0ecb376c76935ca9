"""Reverse-mode automatic differentiation on dense 2-D float64 matrices.

Every tensor is a (rows, cols) matrix; scalars are 1x1 and vectors are
column matrices. Operations are module functions (Tensor overloads no
operators) that record themselves on a tape, and a single backward pass
over the tape fills the ``grad`` field of every tensor created with
``requires_grad=True``, or raises ArithmeticError and fills none when one
of those gradients is not finite. The tape is rebuilt from scratch for
each training step, so the graph can change freely between steps.

The tape keeps what backward cannot cheaply recompute. A dense layer,
dropout included, is one op that keeps its dropout masks as bool arrays
and recomputes the dropped-out inputs in backward.

The module owns the active tape, and the tape owns its ops and their
tensors. Tensors refer back to their tape only weakly, so reset_tape()
frees the previous step's tape and every intermediate on it by reference
counting alone; run backward before resetting. backward frees the tape
sooner still: it takes each record off as it runs the record's rule, so
the record's output and the forward arrays its rule holds go while the
pass runs, and the peak of the pass is its own working set on top of the
part of the tape not yet consumed, not on top of the whole tape. A
consumed tape cannot be run again; build the loss anew for another pass.

Ops are built and differentiated on the calling thread, except that
info_nce's one tile walk, which serves its forward and backward pass,
runs half of its row blocks on one worker thread and joins it before
returning; tensors are immutable once written.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
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
# the tape every output of a record that backward took off refers to; it
# never holds an op
_CONSUMED = Tape()
_consumed = weakref.ref(_CONSUMED)


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
    """Accumulate d(loss)/dt into ``t.grad`` for every requires_grad tensor,
    after checking all of them: a non-finite one raises ArithmeticError
    and no ``.grad`` changes.

    The pass consumes the loss's tape: it takes every record off, last to
    first, as it runs that record's rule (or skips a record the loss does
    not depend on), so each record's output and the arrays its rule holds
    are freed by reference counting once nothing else refers to them. The
    tape is then empty, and a later backward from any of its outputs
    raises RuntimeError. Backward passes over losses built anew without
    resetting grads accumulate, matching the usual gradient-accumulation
    semantics.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"backward: loss must be 1x1, got {loss.shape}")
    # id -> (tensor, gradient); the tensor is held so its id stays unique
    grads: dict[int, tuple] = {id(loss): (loss, np.ones((1, 1)))}
    tape = Tape() if loss._tape is None else loss._tape()  # None: a leaf
    if tape is None:
        raise RuntimeError("backward: the loss's tape was released by "
                           "reset_tape()")
    if tape is _CONSUMED:
        raise RuntimeError("backward: the loss's tape was consumed by an "
                           "earlier backward")
    while tape.ops:
        op = tape.ops.pop()
        op.output._tape = _consumed
        entry = grads.pop(id(op.output), None)
        if entry is None:
            continue
        in_grads = op.backward_rule(entry[1])
        for t, gt in zip(op.inputs, in_grads):
            if gt is None or not t._flow:
                continue
            key = id(t)
            if key in grads:
                gt = grads[key][1] + gt
            grads[key] = (t, gt)
    leaves = [(t, g) for t, g in grads.values() if t.requires_grad]
    for t, g in leaves:
        if not np.isfinite(g).all():
            raise ArithmeticError(
                f"backward: non-finite gradient for a {t.shape} leaf")
    for t, g in leaves:
        if t.grad is None:
            t.grad = g.copy()
        else:
            t.grad += g


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
    """The logistic function with no overflow and no branch per element:
    with e = exp(-|d|), max(d >= 0, e) / (1 + e) is 1 / (1 + exp(-d)) for
    d >= 0 (-0.0 included) and exp(d) / (1 + exp(d)) for d < 0."""
    a = _lift(a)
    d = a.data
    e = np.exp(-np.abs(d))
    out_data = np.maximum(d >= 0, e)
    out_data /= 1.0 + e
    return make_op("sigmoid", (a,), out_data,
                   lambda g: (g * out_data * (1.0 - out_data),))


def slope_select(pos: np.ndarray, x: np.ndarray, s: float) -> np.ndarray:
    """x where the bool array pos holds, s * x elsewhere: the one slope rule,
    which prelu and gat_layer call in both passes. Bit for bit
    np.where(pos, x, s * x), which mispredicts about every other entry of
    a half-true mask, but with no branch per element: x times a factor of
    exactly 1.0 or s, max(pos, s) for 0 < s <= 1 and looked up by the
    mask's bytes (about three times slower) for other slopes."""
    if 0.0 < s <= 1.0:
        factor = np.maximum(pos, s)
    else:
        factor = np.take(np.array([s, 1.0]), pos.view(np.uint8))
    factor *= x
    return factor


def prelu(a: Tensor, slope: Tensor) -> Tensor:
    """PReLU with a single learnable slope (1x1 tensor) for the layer.

    Both passes select with slope_select, so they give np.where's results
    bit for bit, for every slope. Backward derives its select from the
    input, so the tape keeps no mask. The slope's gradient sums
    g * min(d, 0), the same products in the same order
    (np.minimum(-0.0, 0.0) may be 0.0, which can change only the sign of
    a sum of zeros)."""
    a, slope = _lift(a), _lift(slope)
    if slope.shape != (1, 1):
        raise ValueError(f"prelu: slope must be 1x1, got {slope.shape}")
    d = a.data
    s = slope.data[0, 0]
    return make_op("prelu", (a, slope), slope_select(d > 0, d, s),
                   lambda g: (slope_select(d > 0, g, s),
                              np.sum(g * np.minimum(d, 0.0)).reshape(1, 1)))


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row to unit L2 norm; rows with norm < NORM_EPS map to
    zero, with a zero gradient. Only those rows are zeroed: no pass
    selects over the full array."""
    a = _lift(a)
    d = a.data
    norms = np.sqrt((d * d).sum(axis=1, keepdims=True))
    tiny = ~(norms[:, 0] >= NORM_EPS)  # NaN norms too
    safe = np.where(tiny[:, None], 1.0, norms)
    out_data = d / safe
    out_data[tiny] = 0.0

    def back(g):
        dot = (g * d).sum(axis=1, keepdims=True)
        gin = g / safe - d * (dot / (safe ** 3))
        gin[tiny] = 0.0
        return (gin,)

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
# backward never writes into an incoming gradient, and copies it into a
# leaf's grad on first write.

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
# dense layers

def dense(inputs: Sequence[Tensor], weights: Sequence[Tensor],
          bias: Optional[Tensor] = None, rate: float = 0.0,
          rng: Optional[np.random.Generator] = None) -> Tensor:
    """sum_k dropout(x_k) W_k (+ bias) as one op, with inverted dropout at
    `rate` on every input x_k.

    The masks are drawn in input order, one rng.random(x_k.shape) each,
    and kept as bool arrays; rate 0 draws nothing. The terms x_k W_k and
    the bias are summed in adjacent pairs, ((t0 + t1) + (t2 + t3)) + ...,
    the order of the chain of adds this op replaces. Backward recomputes
    each dropped-out input from x_k and its mask instead of storing it,
    and computes no product for an operand that carries no gradient.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dense: dropout rate must be in [0, 1), got {rate}")
    xs = tuple(_lift(x) for x in inputs)
    ws = tuple(_lift(w) for w in weights)
    if not xs or len(xs) != len(ws):
        raise ValueError(f"dense: {len(xs)} inputs for {len(ws)} weights")
    n, m = xs[0].shape[0], ws[0].shape[1]
    for x, w in zip(xs, ws):
        if x.shape[0] != n or x.shape[1] != w.shape[0] or w.shape[1] != m:
            raise ValueError(f"dense: input {x.shape} and weight {w.shape} "
                             f"do not give an ({n}, {m}) product")
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != (1, m):
            raise ValueError(f"dense: bias must be (1, {m}), got {bias.shape}")
    xd = [x.data for x in xs]
    wd = [w.data for w in ws]
    scale = 1.0 / (1.0 - rate)
    masks = [rng.random(x.shape) >= rate for x in xd] if rate > 0.0 else None

    def dropped(k):
        if masks is None:
            return xd[k]
        out = np.multiply(xd[k], masks[k])
        out *= scale
        return out

    terms = [dropped(k) @ wd[k] for k in range(len(xd))]
    if bias is not None:
        terms.append(bias.data)
    while len(terms) > 1:
        # the left term of a pair is always an owned (n, m) product
        for i in range(0, len(terms) - 1, 2):
            terms[i] += terms[i + 1]
        terms = terms[::2]

    def back(g):
        gx, gw = [], []
        for k, (x, w) in enumerate(zip(xs, ws)):
            gi = None
            if x._flow:
                gi = g @ wd[k].T
                if masks is not None:
                    gi *= masks[k]
                    gi *= scale
            gx.append(gi)
            gw.append(dropped(k).T @ g if w._flow else None)
        gb = [] if bias is None else [g.sum(axis=0, keepdims=True)]
        return (*gx, *gw, *gb)

    operands = xs + ws + (() if bias is None else (bias,))
    return make_op("dense", operands, terms[0], back)


# ---------------------------------------------------------------------------
# fused losses

# entries per embedding dimension in one row block, at most
# NCE_BLOCK_MAX_ENTRIES: a block of an (S, S) similarity holds 2^16
# entries at d = 8 and 2^18 at d = 128, and each of info_nce's two threads
# holds one such tile. Forward plus backward on captured workload inputs
# (median of 9 runs, 1 BLAS thread, two threads per op): at d = 128,
# S = 2708, tiles of 2^16/2^17/2^18/2^19/2^20 took 190/155/138/141/142 ms
# (tall tiles keep the GEMMs efficient; 2^18 keeps the two threads' tiles
# within the single-thread 2^20); at d = 8, S = 3003, 2^15/2^16/2^17/2^18
# took 63/42/40/42 ms (small, cache-resident tiles)
NCE_BLOCK_ENTRIES_PER_DIM = 2 ** 13
NCE_BLOCK_MAX_ENTRIES = 2 ** 18


def nce_block_rows(n: int, d: int) -> int:
    """Rows per block of info_nce on two (n, d) views."""
    entries = min(NCE_BLOCK_ENTRIES_PER_DIM * d, NCE_BLOCK_MAX_ENTRIES)
    return max(1, min(n, entries // n))


def _exp_block(left: np.ndarray, right_t: np.ndarray, buf: np.ndarray,
               diagonal=None) -> np.ndarray:
    """exp(left right_t) for (b, d) left and (d, m) right_t, as a (b, m)
    array over the start of the flat buf; a `diagonal` of b values
    overwrites its local diagonal (k, k), k < b."""
    b, m = left.shape[0], right_t.shape[1]
    e = np.matmul(left, right_t, out=buf[:b * m].reshape(b, m))
    np.exp(e, out=e)
    if diagonal is not None:
        np.fill_diagonal(e, diagonal)
    return e


def _halves(blocks: list, n: int) -> list:
    """The row blocks of an (n, n) info_nce split into two contiguous
    groups of about equal work, or one group when there is one block.
    Block [i0, i1) exponentiates (i1 - i0)(3n - 2 i0) entries: its cross
    tile and its two triangle tiles."""
    work = np.cumsum([(i1 - i0) * (3 * n - 2 * i0) for i0, i1 in blocks])
    k = 1 + int(np.argmin(np.abs(2 * work - work[-1])))
    return [blocks[:k], blocks[k:]] if k < len(blocks) else [blocks]


def info_nce(z: Tensor, z_hat: Tensor, tau: float, counts=None) -> Tensor:
    """Symmetric intra- plus cross-view InfoNCE (GRACE) of two
    row-normalized (S, d) views, as one op that holds no (S, S) matrix.

    With x = exp(z z_hat^T / tau) and the intra-view u = exp(z z^T / tau),
    v = exp(z_hat z_hat^T / tau), diagonals excluded, the loss is
    -1/(2S) sum_i [2 z_i.z_hat_i / tau - log r_i - log c_i], where
    r = rowsum(x) + rowsum(u) and c = colsum(x) + rowsum(v).

    Per-row counts w >= 1 give the loss of the views with row i repeated
    w_i times, without the repeats; counts=None means every row once.
    S becomes sum(w), every sum over j weights pair (i, j) by w_j (a
    GEMV), the self-pair u_ii (v_ii) enters with weight w_i - 1, and row
    i's term with weight w_i. Backward scales the GEMMs' right operands
    by w, so pair (i, j) carries w_i w_j, and sets the intra tiles'
    diagonal to u_ii (1 - 1/w_i), so the self-pair carries w_i (w_i - 1);
    a row with count 1 keeps an exact 0 there.

    Both passes are one walk over row blocks I = [i0, i0 + b) of
    nce_block_rows(S, d) rows that recomputes each block instead of
    storing it. x is computed in full. u and v are symmetric, so a block
    computes them only over the columns j >= i0, a triangle tile whose
    diagonal sits at local (k, k): its row sums go to r_I (c_I), and the
    column sums of its part right of the diagonal tile to r_j (c_j),
    j >= i0 + b. That is S^2 + 2 sum_I b (S - i0), about 2 S^2, exps per
    pass. The forward walk sums the tiles against w into r and c; the
    backward walk weights x by a_i + b_j, u by a_i + a_j and v by
    b_i + b_j (a = g / (2S r), b = g / (2S c)) and sums them against the
    count-weighted views, w z / tau and w z_hat / tau, into dz and dz_hat.

    The blocks split into two contiguous groups of about equal work (block
    I exponentiates b (3S - 2 i0) entries), and the walk runs the second
    group on one worker thread while this thread runs the first; numpy's
    products and exps release the interpreter lock. Each group adds into
    its own tile buffers and partial sums, all allocated here, and this
    thread adds the worker's partials to its own after joining it. There
    are always two groups, whatever the core count, and they are added in
    a fixed order, so repeated calls give bit-identical results. A single
    block makes one group and starts no thread; the worker is joined
    before the pass returns or raises, and its exception is raised here.
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

    if counts is None:
        w = np.ones(n)
    else:
        w = np.asarray(counts, dtype=np.float64).ravel()
        if w.shape != (n,) or not (np.isfinite(w) & (w >= 1.0)).all():
            raise ValueError(f"info_nce: need {n} finite counts >= 1, got "
                             f"{np.shape(counts)}")
    total = w.sum()

    groups = _halves(blocks, n)
    with np.errstate(over="ignore"):
        # u_ii (1 - 1/w_i) and v_ii (1 - 1/w_i), exactly 0 at w_i = 1
        diag_a, diag_b = (np.exp((s * v).sum(axis=1), where=w > 1.0,
                                 out=np.zeros(n)) * (1.0 - 1.0 / w)
                          for s, v in ((sa, za), (sb, zb)))
    views, views_t, diags = (za, zb), (sat, sbt), (diag_a, diag_b)

    def walk(right, outs, scales=None):
        """One pass over every block's tiles: x as (p, q) = (0, 1), u as
        (0, 0) and v as (1, 1), each times scales[p]_i + scales[q]_j if
        given. A tile adds tile @ right[q] to outs[p] at its rows and
        tile^T @ right[p][rows] to outs[q] at its columns (right of its
        diagonal tile for u and v)."""
        parts = [outs] + [tuple(map(np.zeros_like, outs)) for _ in groups[1:]]
        tiles = [(np.empty(step * n),
                  None if scales is None else np.empty(step * n))
                 for _ in groups]

        def run(k):
            out, (buf, tmp) = parts[k], tiles[k]
            with np.errstate(over="ignore"):  # errstate is per thread
                for i0, i1 in groups[k]:
                    rows = slice(i0, i1)
                    # tile columns start at lo, its column sums at hi
                    for p, q, lo, hi in ((0, 1, 0, 0), (0, 0, i0, i1),
                                         (1, 1, i0, i1)):
                        t = _exp_block(views[p][rows], views_t[q][:, lo:],
                                       buf, diags[p][rows] if p == q else None)
                        if scales is not None:
                            t *= np.add(scales[p][rows, None], scales[q][lo:],
                                        out=tmp[:t.size].reshape(t.shape))
                        out[p][rows] += t @ right[q][lo:]
                        out[q][hi:] += t[:, hi - lo:].T @ right[p][rows]

        if len(groups) == 1:
            run(0)
            return
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(run, 1)
            run(0)
            future.result()
        for acc, part in zip(outs, parts[1]):
            acc += part

    r, c = np.zeros(n), np.zeros(n)
    walk((w, w), (r, c))
    if not (np.isfinite(r).all() and np.isfinite(c).all()):
        raise ArithmeticError(f"info_nce: non-finite values in ({n}, {n}) "
                              f"similarity")
    log_pos = (sa * zb).sum(axis=1)
    with np.errstate(divide="ignore"):
        terms = 2.0 * log_pos - (np.log(r) + np.log(c))
        value = (-1.0 / (2 * total)) * (w @ terms)

    def back(g):
        gs = g[0, 0]
        a, b = gs / (2 * total * r), gs / (2 * total * c)
        dz, dz_hat = (np.multiply(v, -gs / total, order="C")
                      for v in (sb, sa))
        # the GEMMs' right operands, weighted by the counts (by 1, which
        # changes no bit, without them)
        right = ((sa, sb) if counts is None
                 else (w[:, None] * sa, w[:, None] * sb))
        walk(right, (dz, dz_hat), (a, b))
        dz *= w[:, None]
        dz_hat *= w[:, None]
        return dz, dz_hat

    return make_op("info_nce", (z, z_hat), np.array([[value]]), back)
