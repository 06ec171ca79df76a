"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: only the kernels the summarizer needs. All values are
row-major numpy float64 arrays. Binary elementwise ops require identical
shapes; the only shape coercions are explicit ops (broadcast_to, reshape,
concat, ...). Repeated backward() calls accumulate into existing gradient
buffers until they are cleared.

matmul accepts, besides the plain 2-d case, a stacked [..., r, k] left
operand against a shared 2-d weight matrix, and two stacks with identical
leading dimensions.
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


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


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


def _sigmoid_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1/(1+e^-x) in four in-place calls: allocating temporaries costs more
    # than the arithmetic at these shapes. Below x = -709 the exp overflows
    # to inf and the value is exactly 0, so that overflow is not an error.
    with np.errstate(over="ignore"):
        y = np.negative(x, out=out)
        np.exp(y, out=y)
        y += 1.0
        return np.reciprocal(y, out=y)


def relu(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least 2-d, "
                             f"shapes {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree for shapes {ad.shape} and {bd.shape}")

    if bd.ndim == 2:
        out = ad @ bd

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ bd.T)
            if b.requires_grad:
                b._accumulate(ad.reshape(-1, bd.shape[0]).T @ g.reshape(-1, bd.shape[1]))

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
            width = table.shape[1]
            flat_ids = ids_arr.reshape(-1, 1) * width + np.arange(width)
            _scatter_add(table, flat_ids, g)

    return _make(out, (table,), backward)


def _scatter_add(a: Tensor, flat_index: np.ndarray, g: np.ndarray) -> None:
    """Add g into a's gradient at the flat positions `flat_index` (same
    shape as g), repeats allowed. One 1-d np.add.at makes the additions of
    the 2-d np.add.at over rows in the same order, so the sums are bitwise
    the same; for 7,008 ids of width 16 it takes 0.36 ms with the index
    built, against 1.4 ms."""
    if a.grad is None:
        a.grad = np.zeros(a.shape)
    if not a.grad.flags.c_contiguous:
        raise UsageError(f"scatter: gradient buffer of shape {a.shape} is not C-contiguous, "
                         f"so it has no flat view")
    np.add.at(a.grad.reshape(-1), flat_index.reshape(-1), g.reshape(-1))


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
    """Pick one entry per row of a [B, v] matrix, given length-B ids;
    returns [B]. Gradients scatter back."""
    if a.ndim != 2:
        raise DimensionError(f"gather_index: unsupported shape {a.shape}")
    ids = np.asarray(index, dtype=np.int64)
    if ids.shape != (a.shape[0],):
        raise DimensionError(f"gather_index: want {a.shape[0]} ids, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[1]):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise VocabularyError(f"token id {bad} outside vocabulary of size {a.shape[1]}")
    rows = np.arange(a.shape[0])

    def backward(g):
        if a.requires_grad:
            _scatter_add(a, rows * a.shape[1] + ids, g)

    return _make(a.data[rows, ids], (a,), backward)


def cross_entropy(pred: Tensor, target) -> Tensor:
    """Per-row -ln(pred[row, target]) of a [B, v] probability matrix and
    length-B targets, with the probability clamped at 1e-12; returns [B]."""
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


def take_rows(a: Tensor, rows) -> Tensor:
    """Rows `rows` of `a` along axis 0, in order, repeats allowed. The backward
    adds gradients back as np.add.at would, 10x faster for 100 [96, 16] rows."""
    index = np.asarray(rows, dtype=np.int64)

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            for source, row in enumerate(index.tolist()):
                a.grad[row] += g[source]

    return _make(a.data[index], (a,), backward)


def gru_sequence(x: Tensor, w: GRUWeights, gate: Tensor | None = None,
                 h0: Tensor | None = None) -> Tensor:
    """A GRU over axis 1 of x [B, T, e] from h0 [B, l] (zeros when None);
    returns every state [B, T, l]. From state h, step t computes

        z = sigmoid(Wz x + Uz h + bz),  r = sigmoid(Wr x + Ur h + br),
        c = z*h + (1-z)*tanh(Wh x + Uh (r*h) + bh)

    and keeps c or, given a gate [B, T], a*c + (1-a)*h with a = gate[:, t]:
    a 0/1 length mask freezes rows past their length, and a differentiable
    gate is the episodic memory's update. One tape node: the input products
    of all steps, biases included, are one batched product (Appleyard et
    al., arXiv 1604.01946), and the backward runs backpropagation through
    time in one closure. Inside, a step's values are [features, B], so the
    carry to the previous step is one product against [uz | ur] and every
    elementwise call runs over one contiguous block; each step computes its
    own factors, which at these shapes is cheaper than a pass over all
    steps at once."""
    xd = x.data
    b, steps, e = xd.shape if xd.ndim == 3 else (0, 0, 0)
    l = w.uz.shape[0]
    want = {"w": (e, l), "u": (l, l), "b": (l,)}
    if (steps == 0 or any(p.shape != want[n[0]] for n, p in zip(GRUWeights._fields, w))
            or (gate is not None and gate.shape != (b, steps))
            or (h0 is not None and h0.shape != (b, l))):
        raise DimensionError(f"gru_sequence: input {xd.shape}, weights "
                             f"{[p.shape for p in w]}, gate {gate and gate.shape} and "
                             f"initial state {h0 and h0.shape} do not fit [B, T>0, e]")
    wz, uz, bz, wr, ur, br, wh, uh, bh = (part.data for part in w)
    w_x = np.concatenate([wh, wz, wr], axis=1)                  # [e, 3l], columns [h~ | z | r]
    u_zr = np.concatenate([uz, ur], axis=1)                     # [l, 2l]
    x_fm = xd.transpose(1, 2, 0)                                # [T, e, B]
    xw = np.matmul(w_x.T, x_fm)                                 # [T, 3l, B]
    xw += np.concatenate([bh, bz, br])[:, None]
    xw_h, xw_zr = xw[:, :l], xw[:, l:]
    u_zr_t, uh_t = np.ascontiguousarray(u_zr.T), np.ascontiguousarray(uh.T)
    a_fm = None if gate is None else gate.data.T[:, None, :]   # [T, 1, B]
    zrs, hbars, rhs = (np.empty((steps, k, b)) for k in (2 * l, l, l))
    zs, rs = zrs[:, :l], zrs[:, l:]
    hs = np.empty((steps + 1, l, b))                            # hs[t]: state step t starts from
    hs[0] = 0.0 if h0 is None else h0.data.T
    for t in range(steps):
        h, zr, hbar, c = hs[t], zrs[t], hbars[t], hs[t + 1]
        np.matmul(u_zr_t, h, out=zr)
        zr += xw_zr[t]
        _sigmoid_values(zr, out=zr)
        np.multiply(rs[t], h, out=rhs[t])
        np.matmul(uh_t, rhs[t], out=hbar)
        hbar += xw_h[t]
        np.tanh(hbar, out=hbar)
        np.subtract(h, hbar, out=c)                             # c = h~ + z*(h - h~)
        c *= zs[t]
        c += hbar
        if a_fm is not None:                                    # h + a*(c - h)
            c -= h
            c *= a_fm[t]
            c += h

    def backward(g):
        gcs = np.ascontiguousarray(g.transpose(1, 2, 0))        # [T, l, B]; step t adds its carry
        gpre = np.empty((steps, 3 * l, b))                      # pre-activation grads [h~ | z | r]
        g_h, g_zr = gpre[:, :l], gpre[:, l:]
        g_z, g_r = gpre[:, l:2 * l], gpre[:, 2 * l:]
        carry, ozr = np.zeros((l, b)), np.empty((2 * l, b))
        grh, gc_c, t1 = (np.empty((l, b)) for _ in range(3))
        oz, orr = ozr[:l], ozr[l:]
        for t in reversed(range(steps)):
            h, z, hbar, gc = hs[t], zs[t], hbars[t], gcs[t]
            gc += carry                                         # d loss / d (state after step t)
            if a_fm is not None:                                # d loss / d c
                gc = np.multiply(gcs[t], a_fm[t], out=gc_c)
            np.subtract(1.0, zrs[t], out=ozr)
            oz *= gc                                            # gc (1 - z), and orr = 1 - r
            np.multiply(hbar, hbar, out=t1)
            np.subtract(1.0, t1, out=t1)
            np.multiply(oz, t1, out=g_h[t])
            np.subtract(h, hbar, out=t1)
            t1 *= oz
            np.multiply(t1, z, out=g_z[t])
            np.matmul(uh, g_h[t], out=grh)                      # d loss / d (r*h)
            np.multiply(grh, rhs[t], out=t1)
            np.multiply(t1, orr, out=g_r[t])
            np.matmul(u_zr, g_zr[t], out=carry)
            np.multiply(gc, z, out=t1)
            carry += t1
            np.multiply(grh, rs[t], out=t1)
            carry += t1
            if a_fm is not None:                                # the (1-a) h share
                carry += gcs[t]
                carry -= gc
        if x.requires_grad:
            x._accumulate(np.matmul(w_x, gpre).transpose(2, 0, 1))
        # each weight gradient: one batched product over the steps, summed
        gw_h, gw_z, gw_r = np.split(np.matmul(x_fm, gpre.transpose(0, 2, 1)).sum(0), 3, axis=1)
        gu_z, gu_r = np.split(np.matmul(hs[:-1], g_zr.transpose(0, 2, 1)).sum(0), 2, axis=1)
        gu_h = np.matmul(rhs, g_h.transpose(0, 2, 1)).sum(0)
        gb_h, gb_z, gb_r = np.split(gpre.sum(axis=(0, 2)), 3)
        for part, grad in zip(w, (gw_z, gu_z, gb_z, gw_r, gu_r, gb_r, gw_h, gu_h, gb_h)):
            if part.requires_grad:
                part._accumulate(grad)
        if h0 is not None and h0.requires_grad:
            h0._accumulate(carry.T)
        if gate is not None and gate.requires_grad:             # d/da = c - h = (1-z)(h~ - h)
            gate._accumulate(np.sum(gcs * (1.0 - zs) * (hbars - hs[:-1]), axis=1).T)

    parents = (x, *w) + tuple(p for p in (gate, h0) if p is not None)
    return _make(hs[1:].transpose(2, 0, 1).copy(), parents, backward)


def gru_cell(x: Tensor, h: Tensor, w: GRUWeights) -> Tensor:
    """One GRU step on x [B, e] from state h [B, l]: gru_sequence for T = 1."""
    return reshape(gru_sequence(reshape(x, (x.shape[0], 1, -1)), w, h0=h), h.shape)


def episodic_gate(f: Tensor, q: Tensor, m: Tensor, squash: bool = False) -> Tensor:
    """The scalar gate of every statement of f [B, n, d] against one query
    q and one memory m [B, d]: tanh of the features [f*q, f*m, |f-q|, |f-m|],
    summed over the 4d features, then a sigmoid when `squash`. Returns
    [B, n] as one tape node; all the gates of a memory hop read the same
    (previous hop's) memory, so a hop needs one call."""
    fd, qd, md = f.data, q.data, m.data
    if fd.ndim != 3 or qd.shape != (fd.shape[0], fd.shape[2]) or md.shape != qd.shape:
        raise DimensionError(f"episodic_gate: statements {fd.shape}, query {qd.shape} and "
                             f"memory {md.shape} must be [B, n, d], [B, d], [B, d]")
    d = fd.shape[2]
    qb, mb = qd[:, None], md[:, None]
    diff_q, diff_m = fd - qb, fd - mb
    t = np.tanh(np.concatenate([fd * qb, fd * mb, np.abs(diff_q), np.abs(diff_m)], axis=2))
    s = t.sum(axis=2)
    y = _sigmoid_values(s) if squash else s

    def backward(g):
        if squash:
            g = g * y * (1.0 - y)
        gt = g[:, :, None] * (1.0 - t * t)
        g_fq, g_fm = gt[..., :d], gt[..., d:2 * d]
        g_dq = gt[..., 2 * d:3 * d] * np.sign(diff_q)
        g_dm = gt[..., 3 * d:] * np.sign(diff_m)
        if f.requires_grad:
            f._accumulate(g_fq * qb + g_fm * mb + g_dq + g_dm)
        if q.requires_grad:
            q._accumulate(np.sum(g_fq * fd - g_dq, axis=1))
        if m.requires_grad:
            m._accumulate(np.sum(g_fm * fd - g_dm, axis=1))

    return _make(y, (f, q, m), backward)
