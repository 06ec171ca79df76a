"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: only the kernels that the model and its training loop
call (gru_cell aside, see there), most of them one tape node per layer.
All values are row-major numpy float64 arrays; the only shape changes are
explicit (reshape, concat, slice_axis, embedding_lookup's row gather).
Repeated backward() calls accumulate into existing leaf gradient buffers
until they are cleared; an interior node's gradient is released as soon
as its backward has used it.

dense is the one product against a weight matrix: x [..., r, k] @ w [k, c]
+ b [c]. Products of two stacks occur only inside the fused kernels
(attend, gru_sequence).

A kernel's backward keeps only the arrays it reads and forms again what is
cheap to form (attend's row keys, gru_sequence's r*h, weighted_bag's masks).
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
            self.grad = np.zeros(self.data.shape)
        self.grad += g

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        Leaf gradients accumulate across calls until cleared. An interior
        node's gradient is handed to its backward and dropped from the node
        at once, so no interior buffer outlives its one reader; the reset at
        the start of a pass clears what a pass that raised left behind.
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
                g, node.grad = node.grad, None
                node._backward(g)

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


def _sigmoid_of_negated(y: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) in place, given y = -x: allocating temporaries costs more
    # than the arithmetic at these shapes. Below x = -709 the exp overflows
    # to inf and the value is exactly 0, so callers ignore that overflow.
    np.exp(y, out=y)
    y += 1.0
    return np.reciprocal(y, out=y)


def _sigmoid_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _sigmoid_of_negated(np.negative(x, out=out))


def relu(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), backward)


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x [..., r, k] @ w [k, c] + b [c] as one tape node. The bias gradient
    sums g channel-major, over a C-contiguous [c, ...] copy: that order
    keeps trained parameters bitwise those of the op chain in
    tests/op_graph.py, and a sum over the leading axes in C order does not."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise DimensionError(f"dense: input {xd.shape}, weights {wd.shape} and bias {bd.shape} "
                             f"are not [..., r, k], [k, c] and [c]")
    k, c = wd.shape
    y = xd @ wd
    y += bd

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ wd.T)
        if w.requires_grad:
            w._accumulate(xd.reshape(-1, k).T @ g.reshape(-1, c))
        if b.requires_grad:
            b._accumulate(np.ascontiguousarray(np.moveaxis(g, -1, 0)).reshape(c, -1).sum(axis=1))

    return _make(y, (x, w, b), backward)


def _softmax_values(x: np.ndarray, op: str, axis: int = -1,
                    out: np.ndarray | None = None) -> np.ndarray:
    # numerically stable (max-subtraction); a non-finite input is an error.
    # Given out (which may be x), the values are formed there in place.
    if not np.all(np.isfinite(x)):
        raise NumericInputError(f"{op}: input contains non-finite values")
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`."""
    y = _softmax_values(a.data, "softmax", axis)

    def backward(g):
        if a.requires_grad:
            a._accumulate(y * (g - np.sum(g * y, axis=axis, keepdims=True)))

    return _make(y, (a,), backward)


def attend(q: Tensor, k: Tensor, rows) -> Tensor:
    """Dot-product attention of the queries q [B, C, l], read contiguous,
    over keys k [K, T, l] that are also the values, row b reading k[rows[b]]:
    softmax(q kᵀ) k, [B, C, l], as one tape node, bitwise the chain
    embedding_lookup, matmul, softmax, matmul. The row keys are gathered
    again in the backward, not kept; a row loop adds their gradient to k's
    rows in np.add.at's order, 2.4-2.8x faster than np.add.at at 100 rows
    of [96, 16]. The softmax and the score gradient are formed in the
    buffers of q kᵀ and g kᵀ, and the key's two gradient terms, yᵀg and
    (qᵀ gs)ᵀ, are summed in one buffer."""
    qd, kd, index = np.ascontiguousarray(q.data), k.data, np.asarray(rows, dtype=np.int64)
    if qd.ndim != 3 or kd.ndim != 3 or qd.shape[2] != kd.shape[2] or index.shape != qd.shape[:1]:
        raise DimensionError(f"attend: queries {qd.shape}, keys {kd.shape} and rows "
                             f"{index.shape} must be [B, C, l], [K, T, l] and [B]")
    keys = kd[index]                                             # [B, T, l]
    scores = qd @ keys.swapaxes(-1, -2)                          # [B, C, T]
    y = _softmax_values(scores, "attend", out=scores)

    def backward(g):
        keys = kd[index]
        gs = g @ keys.swapaxes(-1, -2)                          # d loss / d y, then
        gs -= np.sum(gs * y, axis=-1, keepdims=True)            # d loss / d scores
        gs *= y
        if q.requires_grad:
            q._accumulate(gs @ keys)
        if k.requires_grad:
            gk = y.swapaxes(-1, -2) @ g
            gk += (qd.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
            if k.grad is None:
                k.grad = np.zeros(kd.shape)
            for source, row in enumerate(index.tolist()):
                k.grad[row] += gk[source]

    return _make(y @ keys, (q, k), backward)


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


def _check_ids(ids, size: int) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise VocabularyError(f"token id {bad} outside vocabulary of size {size}")
    return ids


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a [V, ...] table along axis 0, repeats allowed:
    [*ids.shape, ...]. Gradients scatter-add back into the rows."""
    if table.ndim < 2:
        raise DimensionError(f"embedding_lookup: table must be 2-d or more, got {table.shape}")
    ids_arr = _check_ids(ids, table.shape[0])

    def backward(g):
        if table.requires_grad:
            _scatter_add(table, ids_arr, g)

    return _make(table.data[ids_arr], (table,), backward)


def weighted_bag(table: Tensor, ids, weights: np.ndarray, mask) -> Tensor:
    """Σ_y table[ids[..., y]] * weights[y] * mask[..., y] for ids [..., Y]
    into a [V, E] table, slot weights [Y, E] and a 0/1 mask [..., Y]: one
    tape node that holds the ids and the mask, not the [..., Y, E] gather.
    (x w) m is bitwise x (w m) for a 0/1 m, signed zeros included, so values
    and gradients are those of the chain embedding_lookup, mul, sum over Y."""
    ids = _check_ids(ids, table.shape[0])
    mask = np.asarray(mask, dtype=np.float64)[..., None]
    if mask.shape[:-1] != ids.shape or weights.shape != (ids.shape[-1], table.shape[1]):
        raise DimensionError(f"weighted_bag: ids {ids.shape}, weights {weights.shape} and "
                             f"mask {mask.shape[:-1]} must be [..., Y], [Y, E] and [..., Y]")

    def backward(g):
        if table.requires_grad:
            _scatter_add(table, ids, g[..., None, :] * weights * mask)

    return _make((table.data[ids] * weights * mask).sum(axis=-2), (table,), backward)


def _scatter_add(a: Tensor, rows: np.ndarray, g: np.ndarray) -> None:
    """Add g into rows `rows` of a's gradient seen as rows of g.size /
    rows.size entries, repeats allowed. One 1-d np.add.at makes the
    additions of the 2-d np.add.at over rows in the same order, so the sums
    are bitwise the same; for 7,008 ids of width 16 it takes 0.36 ms with
    the index built, against 1.4 ms."""
    if a.grad is None:
        a.grad = np.zeros(a.shape)
    if not a.grad.flags.c_contiguous:
        raise UsageError(f"scatter: gradient buffer of shape {a.shape} is not C-contiguous, "
                         f"so it has no flat view")
    width = g.size // max(rows.size, 1)
    flat_index = rows.reshape(-1, 1) * width + np.arange(width)
    np.add.at(a.grad.reshape(-1), flat_index.reshape(-1), g.reshape(-1))


def mean_all(a: Tensor) -> Tensor:
    count = a.size

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g / count, a.shape))

    return _make(np.asarray(a.data.mean()), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(d) for d in shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


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


def cross_entropy(pred: Tensor, target) -> Tensor:
    """Per-row -ln(max(p, 1e-12)) of p = pred[row, target], for a [B, v]
    probability matrix and length-B target ids; returns [B]. The gradient
    is 0 where p is clamped and scatters back into pred's gradient."""
    if pred.ndim != 2:
        raise DimensionError(f"cross_entropy: unsupported shape {pred.shape}")
    b, v = pred.shape
    ids = np.asarray(target, dtype=np.int64)
    if ids.shape != (b,):
        raise DimensionError(f"cross_entropy: want {b} ids, got shape {ids.shape}")
    ids = _check_ids(ids, v)
    flat_index = np.arange(b) * v + ids
    p = pred.data.reshape(-1)[flat_index]
    floored = np.maximum(p, 1e-12)

    def backward(g):
        if pred.requires_grad:
            _scatter_add(pred, flat_index, (-g) / floored * (p > 1e-12))

    return _make(-np.log(floored), (pred,), backward)


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
    time in one closure, which keeps z|r, h~ and the states (the output is
    their view) and recomputes every r*h in one product. Inside, a step's
    values are [features, B], so the carry to the previous step is one
    product against [uz | ur] and every elementwise call runs over one
    contiguous block; each step computes its own factors, cheaper at these
    shapes than a pass over all steps at once. At small B a step costs its numpy calls rather than
    their arithmetic, so the loops make few. z and r come from their negated
    pre-activations, (-[uz | ur]ᵀ) h + (-(W x + b)), so their sigmoid
    negates nothing per step; IEEE negation is exact, so the bits are those
    of -(U h + W x + b). The forward loop runs inside one errstate, where
    e^-x may overflow to inf and the gate is then exactly 0."""
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
    xw_h, nxw_zr = xw[:, :l], np.negative(xw[:, l:], out=xw[:, l:])
    # C order matters: an F-ordered operand takes another BLAS path
    nu_zr_t, uh_t = -np.ascontiguousarray(u_zr.T), np.ascontiguousarray(uh.T)
    a_fm = [None] * steps if gate is None else gate.data.T[:, None, :]   # [T, 1, B]
    zrs, hbars, rh = np.empty((steps, 2 * l, b)), np.empty((steps, l, b)), np.empty((l, b))
    zs, rs = zrs[:, :l], zrs[:, l:]
    hs = np.empty((steps + 1, l, b))                            # hs[t]: state step t starts from
    hs[0] = 0.0 if h0 is None else h0.data.T
    with np.errstate(over="ignore"):
        for h, c, zr, z, r, hbar, nxw, xwh, a in zip(
                hs[:-1], hs[1:], zrs, zs, rs, hbars, nxw_zr, xw_h, a_fm):
            np.dot(nu_zr_t, h, out=zr)
            zr += nxw
            _sigmoid_of_negated(zr)
            np.multiply(r, h, out=rh)
            np.dot(uh_t, rh, out=hbar)
            hbar += xwh
            np.tanh(hbar, out=hbar)
            np.subtract(h, hbar, out=c)                         # c = h~ + z*(h - h~)
            c *= z
            c += hbar
            if a is not None:                                   # h + a*(c - h)
                c -= h
                c *= a
                c += h

    def backward(g):
        gcs = np.ascontiguousarray(g.transpose(1, 2, 0))        # [T, l, B]; step t adds its carry
        rhs = np.multiply(rs, hs[:-1])                          # every step's r*h, recomputed
        gpre = np.empty((steps, 3 * l, b))                      # pre-activation grads [h~ | z | r]
        g_h, g_zr = gpre[:, :l], gpre[:, l:]
        g_z, g_r = gpre[:, l:2 * l], gpre[:, 2 * l:]
        carry, ozr = np.zeros((l, b)), np.empty((2 * l, b))
        grh, gc_c, t1 = (np.empty((l, b)) for _ in range(3))
        oz, orr = ozr[:l], ozr[l:]
        for h, z, zr, r, hbar, rh, gc_t, gh, gz, gr, gzr, a in zip(
                *(seq[::-1] for seq in (hs[:-1], zs, zrs, rs, hbars, rhs, gcs,
                                        g_h, g_z, g_r, g_zr, a_fm))):
            gc_t += carry                                       # d loss / d (state after step t)
            gc = gc_t if a is None else np.multiply(gc_t, a, out=gc_c)   # d loss / d c
            np.subtract(1.0, zr, out=ozr)
            oz *= gc                                            # gc (1 - z), and orr = 1 - r
            np.multiply(hbar, hbar, out=t1)
            np.subtract(1.0, t1, out=t1)
            np.multiply(oz, t1, out=gh)
            np.subtract(h, hbar, out=t1)
            t1 *= oz
            np.multiply(t1, z, out=gz)
            np.dot(uh, gh, out=grh)                             # d loss / d (r*h)
            np.multiply(grh, rh, out=t1)
            np.multiply(t1, orr, out=gr)
            np.dot(u_zr, gzr, out=carry)
            np.multiply(gc, z, out=t1)
            carry += t1
            np.multiply(grh, r, out=t1)
            carry += t1
            if a is not None:                                   # the (1-a) h share
                carry += gc_t
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
    return _make(hs[1:].transpose(2, 0, 1), parents, backward)


def gru_cell(x: Tensor, h: Tensor, w: GRUWeights) -> Tensor:
    """One GRU step on x [B, e] from state h [B, l]: gru_sequence for T = 1.
    The model does not call it; it stays as the benchmark tracer's hook."""
    return reshape(gru_sequence(reshape(x, (x.shape[0], 1, -1)), w, h0=h), h.shape)


def episodic_gate(f: Tensor, q: Tensor, m: Tensor, valid,
                  squash: bool = False) -> Tensor:
    """The scalar gate of every statement of f [B, n, d] against one query
    q and one memory m [B, d]: tanh of the features [f*q, f*m, |f-q|, |f-m|],
    summed over the 4d features, then a sigmoid when `squash`, times the
    0/1 mask `valid` [B, n] of real statements. Returns [B, n] as one tape
    node; all the gates of a memory hop read the same (previous hop's)
    memory, so a hop needs one call."""
    fd, qd, md = f.data, q.data, m.data
    mask = np.asarray(valid, dtype=np.float64)
    if (fd.ndim != 3 or qd.shape != (fd.shape[0], fd.shape[2]) or md.shape != qd.shape
            or mask.shape != fd.shape[:2]):
        raise DimensionError(f"episodic_gate: statements {fd.shape}, query {qd.shape}, "
                             f"memory {md.shape} and mask {mask.shape} must be "
                             f"[B, n, d], [B, d], [B, d] and [B, n]")
    d = fd.shape[2]
    qb, mb = qd[:, None], md[:, None]
    diff_q, diff_m = fd - qb, fd - mb
    t = np.tanh(np.concatenate([fd * qb, fd * mb, np.abs(diff_q), np.abs(diff_m)], axis=2))
    s = t.sum(axis=2)
    y = _sigmoid_values(s) if squash else s

    def backward(g):
        g = g * mask
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

    return _make(y * mask, (f, q, m), backward)
