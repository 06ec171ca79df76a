"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: only the kernels the summarizer needs. All values are
row-major numpy float64 arrays. Binary elementwise ops require identical
shapes; the only shape coercions are explicit ops (broadcast_to, reshape,
concat, ...). Repeated backward() calls accumulate into existing gradient
buffers until they are cleared.

matmul accepts, besides the plain 2-d case: a 1-d row vector against a
matrix, a stacked [..., r, k] left operand against a shared 2-d weight
matrix, and two stacks with identical leading dimensions.
"""

from __future__ import annotations

import contextlib
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, NumericInputError, UsageError, VocabularyError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference paths)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            data = self.data
            # zeros_like keeps a view's memory order, which later sums see
            self.grad = (np.zeros(data.shape) if data.flags.c_contiguous
                         else np.zeros_like(data))
        self.grad += g

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        Leaf gradients accumulate across calls until cleared; interior
        buffers are reset at the start of each pass so a repeated call adds
        exactly one more copy of the gradient.
        """
        if self.data.size != 1:
            raise UsageError(f"backward requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                # leaves have nothing to run; leaving them out of the walk
                # does not change the order of the nodes that do
                if parent._backward is not None and id(parent) not in seen:
                    stack.append((parent, False))
        for node in order:
            if node._backward is not None:
                node.grad = None
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=False)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _make(a.data * b.data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _make(-a.data, (a,), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * s)

    return _make(a.data * s, (a,), backward)


def add_const(a: Tensor, c: float) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g)

    return _make(a.data + float(c), (a,), backward)


def abs_(a: Tensor) -> Tensor:
    # Subgradient at exactly 0 is 0 (np.sign(0) == 0).
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    return _make(y, (a,), backward)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; exp(-|x|) never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid_values(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    return _make(y, (a,), backward)


def relu(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), backward)


def _weight_grad(ad: np.ndarray, g: np.ndarray, weight_shape) -> np.ndarray:
    """Gradient of a shared 2-d weight in `ad @ weight`, given the output's."""
    if ad.ndim == 1:
        return np.outer(ad, g)
    k, c = weight_shape
    return ad.reshape(-1, k).T @ g.reshape(-1, c)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise DimensionError(f"matmul: scalars not allowed, shapes {ad.shape} and {bd.shape}")
    inner_b = bd.shape[0] if bd.ndim == 1 else bd.shape[-2]
    if bd.ndim == 1 or ad.shape[-1] != inner_b:
        raise DimensionError(f"matmul: inner dimensions disagree for shapes {ad.shape} and {bd.shape}")

    if bd.ndim == 2:
        out = ad @ bd

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ bd.T)
            if b.requires_grad:
                b._accumulate(_weight_grad(ad, g, bd.shape))

        return _make(out, (a, b), backward)

    if ad.ndim == bd.ndim and ad.shape[:-2] == bd.shape[:-2]:
        out = ad @ bd

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ bd.swapaxes(-1, -2))
            if b.requires_grad:
                b._accumulate(ad.swapaxes(-1, -2) @ g)

        return _make(out, (a, b), backward)

    raise DimensionError(f"matmul: unsupported shapes {ad.shape} and {bd.shape}")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis` (max-subtraction)."""
    x = a.data
    if not np.all(np.isfinite(x)):
        raise NumericInputError("softmax: input contains non-finite values")
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            a._accumulate(y * (g - np.sum(g * y, axis=axis, keepdims=True)))

    return _make(y, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise UsageError("concat: need at least one tensor")
    first = tensors[0]
    ax = axis % first.ndim if first.ndim else 0
    for t in tensors[1:]:
        if t.ndim != first.ndim or any(
            t.shape[i] != first.shape[i] for i in range(first.ndim) if i != ax
        ):
            raise DimensionError(f"concat: shapes {first.shape} and {t.shape} differ off axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.shape[ax] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sel = [slice(None)] * g.ndim
                sel[ax] = slice(offset, offset + size)
                t._accumulate(g[tuple(sel)])
            offset += size

    return _make(out, tuple(tensors), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a [V, E] table; gradients scatter-add back into it."""
    if table.ndim != 2:
        raise DimensionError(f"embedding_lookup: table must be 2-d, got {table.shape}")
    ids_arr = np.asarray(ids, dtype=np.int64)
    vocab = table.shape[0]
    if ids_arr.size:
        lo, hi = int(ids_arr.min()), int(ids_arr.max())
        if lo < 0 or hi >= vocab:
            bad = lo if lo < 0 else hi
            raise VocabularyError(f"token id {bad} outside vocabulary of size {vocab}")
    out = table.data[ids_arr]

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids_arr.reshape(-1), g.reshape(-1, table.shape[1]))

    return _make(out, (table,), backward)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    def backward(g):
        if a.requires_grad:
            gexp = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gexp, a.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape))

    return _make(np.asarray(a.data.sum()), (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    count = a.size

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g / count, a.shape))

    return _make(np.asarray(a.data.mean()), (a,), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Explicit broadcast; trailing dims must match or be 1."""
    shape = tuple(int(d) for d in shape)
    added = len(shape) - a.ndim
    if added < 0:
        raise DimensionError(f"broadcast_to: cannot shrink {a.shape} to {shape}")
    for i, d in enumerate(a.shape):
        if d != shape[added + i] and d != 1:
            raise DimensionError(f"broadcast_to: {a.shape} is incompatible with {shape}")
    reduce_axes = tuple(range(added)) + tuple(
        added + i for i, d in enumerate(a.shape) if d == 1 and shape[added + i] != 1
    )

    def backward(g):
        if a.requires_grad:
            summed = g.sum(axis=reduce_axes) if reduce_axes else g
            a._accumulate(summed.reshape(a.shape))

    return _make(np.broadcast_to(a.data, shape), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(d) for d in shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise DimensionError(f"transpose_last2: need at least 2 dims, got {a.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.swapaxes(-1, -2))

    return _make(a.data.swapaxes(-1, -2), (a,), backward)


def slice_axis(a: Tensor, axis: int, index: int) -> Tensor:
    """Select one index along an axis, dropping that axis."""
    out = np.take(a.data, index, axis=axis)

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            sel = [slice(None)] * a.ndim
            sel[axis] = index
            a.grad[tuple(sel)] += g

    return _make(out, (a,), backward)


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Stack equal-shaped tensors along a new axis (reshape + concat)."""
    expanded = [
        reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors
    ]
    return concat(expanded, axis)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    # Gradient is 0 in the clamped region.
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > floor))

    return _make(np.maximum(a.data, floor), (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def gather_index(a: Tensor, index) -> Tensor:
    """Pick one entry along the last axis: [v] + int -> scalar, [B, v] +
    length-B ids -> [B]. Gradients scatter back."""
    if a.ndim == 1:
        i = int(index)
        if i < 0 or i >= a.shape[0]:
            raise VocabularyError(f"token id {i} outside vocabulary of size {a.shape[0]}")

        def backward(g):
            if a.requires_grad:
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                a.grad[i] += g

        return _make(np.asarray(a.data[i]), (a,), backward)

    if a.ndim == 2:
        ids = np.asarray(index, dtype=np.int64)
        if ids.shape != (a.shape[0],):
            raise DimensionError(f"gather_index: want {a.shape[0]} ids, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= a.shape[1]):
            bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
            raise VocabularyError(f"token id {bad} outside vocabulary of size {a.shape[1]}")
        rows = np.arange(a.shape[0])

        def backward(g):
            if a.requires_grad:
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                np.add.at(a.grad, (rows, ids), g)

        return _make(a.data[rows, ids], (a,), backward)

    raise DimensionError(f"gather_index: unsupported shape {a.shape}")


def cross_entropy(pred: Tensor, target) -> Tensor:
    """-ln(pred[target]) with the probability clamped at 1e-12.

    `pred` is either a length-v probability vector with an int target
    (returns a scalar) or a [B, v] matrix with length-B targets (returns
    per-row losses).
    """
    picked = gather_index(pred, target)
    return neg(log(clamp_min(picked, 1e-12)))


class GRUWeights(NamedTuple):
    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor


def _check_gru_shapes(xd: np.ndarray, hd: np.ndarray, w: GRUWeights) -> None:
    if xd.ndim not in (1, 2) or hd.ndim != xd.ndim or hd.shape[:-1] != xd.shape[:-1]:
        raise DimensionError(f"gru_cell: input {xd.shape} and state {hd.shape} disagree")
    e, l = xd.shape[-1], hd.shape[-1]
    want = {"w": (e, l), "u": (l, l), "b": (l,)}
    for name, part in zip(GRUWeights._fields, w):
        if part.shape != want[name[0]]:
            raise DimensionError(f"gru_cell: {name} has shape {part.shape}, want {want[name[0]]}")


def gru_cell(x: Tensor, h: Tensor, w: GRUWeights) -> Tensor:
    """One GRU step, convention h' = z*h + (1-z)*h~ with

        z  = sigmoid(Wz x + Uz h + bz)
        r  = sigmoid(Wr x + Ur h + br)
        h~ = tanh(Wh x + Uh (r*h) + bh)

    Accepts a single step ([E], [H]) or a batch ([B, E], [B, H]).

    The step is one tape node instead of a graph of about two dozen
    elementwise ops. Forward and backward do the float operations of that
    graph, and each parent gets its gradient terms in the order the
    graph's tape walk adds them, so the results are bitwise those of the
    op-by-op cell. For that, a batch keeps the graph's broadcast node for
    bh: the walk reaches it before h, so after a sequence GRU's backward
    bh's terms arrive first step first, as they did in the graph.
    """
    xd, hd = x.data, h.data
    _check_gru_shapes(xd, hd, w)
    wz, uz, bz, wr, ur, br, wh, uh, bh = (part.data for part in w)
    z = _sigmoid_values(xd @ wz + hd @ uz + bz)
    r = _sigmoid_values(xd @ wr + hd @ ur + br)
    rh = r * hd
    hbar = np.tanh(xd @ wh + rh @ uh + bh)
    oz = -z + 1.0
    out = Tensor(z * hd + oz * hbar)
    if not (_GRAD_ENABLED and (x.requires_grad or h.requires_grad
                               or any(part.requires_grad for part in w))):
        return out
    batched = xd.ndim == 2
    bh_in = broadcast_to(w.bh, hbar.shape) if batched else w.bh

    def bias_grad(g):
        # the graph summed a batch's bias rows in a broadcast node's
        # gradient buffer, which zeros_like lays out column-major
        return np.asfortranarray(g).sum(axis=(0,)) if batched else g

    def backward(g):
        gaz = (g * hd - g * hbar) * z * (1.0 - z)
        gah = g * oz * (1.0 - hbar * hbar)
        grh = gah @ uh.T
        gar = grh * hd * r * (1.0 - r)
        # z path, then h~ path, then r path: the graph's tape order.
        if h.requires_grad:
            h._accumulate(g * z)
        if x.requires_grad:
            x._accumulate(gaz @ wz.T)
        if w.wz.requires_grad:
            w.wz._accumulate(_weight_grad(xd, gaz, wz.shape))
        if h.requires_grad:
            h._accumulate(gaz @ uz.T)
        if w.uz.requires_grad:
            w.uz._accumulate(_weight_grad(hd, gaz, uz.shape))
        if w.bz.requires_grad:
            w.bz._accumulate(bias_grad(gaz))
        if x.requires_grad:
            x._accumulate(gah @ wh.T)
        if w.wh.requires_grad:
            w.wh._accumulate(_weight_grad(xd, gah, wh.shape))
        if w.uh.requires_grad:
            w.uh._accumulate(_weight_grad(rh, gah, uh.shape))
        if h.requires_grad:
            h._accumulate(grh * r)
        if x.requires_grad:
            x._accumulate(gar @ wr.T)
        if w.wr.requires_grad:
            w.wr._accumulate(_weight_grad(xd, gar, wr.shape))
        if h.requires_grad:
            h._accumulate(gar @ ur.T)
        if w.ur.requires_grad:
            w.ur._accumulate(_weight_grad(hd, gar, ur.shape))
        if w.br.requires_grad:
            w.br._accumulate(bias_grad(gar))
        if bh_in.requires_grad:
            bh_in._accumulate(gah)

    out.requires_grad = True
    out._parents = (x, w.wz, w.uz, w.bz, w.wr, w.ur, w.br, w.wh, w.uh, h, bh_in)
    out._backward = backward
    return out


def episodic_gate(f: Tensor, q: Tensor, m: Tensor, squash: bool = False) -> Tensor:
    """Scalar gate per row of three [B, d] inputs: tanh of the features
    [f*q, f*m, |f-q|, |f-m|], summed over the 4d features, then a sigmoid
    when `squash`. Returns [B, 1].

    One tape node in place of the graph mul, mul, sub, abs, sub, abs,
    concat, tanh, sum (and sigmoid); like gru_cell it does that graph's
    float operations and adds gradient terms in its tape order, so the
    results are bitwise the graph's.
    """
    fd, qd, md = f.data, q.data, m.data
    if fd.ndim != 2 or qd.shape != fd.shape or md.shape != fd.shape:
        raise DimensionError(f"episodic_gate: shapes {fd.shape}, {qd.shape}, {md.shape} "
                             "must be one [B, d]")
    d = fd.shape[1]
    diff_q, diff_m = fd - qd, fd - md
    t = np.tanh(np.concatenate([fd * qd, fd * md, np.abs(diff_q), np.abs(diff_m)], axis=1))
    s = t.sum(axis=1, keepdims=True)
    y = _sigmoid_values(s) if squash else s

    def backward(g):
        if squash:
            g = g * y * (1.0 - y)
        gt = np.broadcast_to(g, t.shape) * (1.0 - t * t)
        g_fq, g_fm = gt[:, :d], gt[:, d:2 * d]
        g_dq = gt[:, 2 * d:3 * d] * np.sign(diff_q)
        g_dm = gt[:, 3 * d:] * np.sign(diff_m)
        # mul(f, q), mul(f, m), sub(f, q), sub(f, m): the graph's tape order
        for a, ga, b, gb in ((f, g_fq * qd, q, g_fq * fd), (f, g_fm * md, m, g_fm * fd),
                             (f, g_dq, q, -g_dq), (f, g_dm, m, -g_dm)):
            if a.requires_grad:
                a._accumulate(ga)
            if b.requires_grad:
                b._accumulate(gb)

    # reversed, the walk meets m, then f, then q, as in the graph
    return _make(y, (q, f, m), backward)
