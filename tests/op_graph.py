"""Op-graph references for the fused kernels.

`gru_sequence`, `episodic_gate`, `take_rows`, `attend`, `weighted_bag`,
`dense` and `cross_entropy` in `stmtmem.tensor` are one tape node each,
with hand-written backwards. The step loops and graphs of elementwise tape
ops below compute the same functions one op per node, so their values and
gradients must agree with the kernels' up to the order of float sums (for
`attend`, `weighted_bag`, `dense`, `cross_entropy` and the gate's mask,
bitwise). The ops those graphs need, and the model does not, live here
rather than in the package, as do the earlier forms of two kernels: the
two-branch sigmoid and the 2-d np.add.at scatters.
"""

import numpy as np

from stmtmem import tensor as T


def add(a, b):
    T._check_same_shape(a, b, "add")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return T._make(a.data + b.data, (a, b), backward)


def neg(a):
    def backward(g):
        if a.requires_grad:
            a._accumulate(-g)

    return T._make(-a.data, (a,), backward)


def log(a):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return T._make(np.log(a.data), (a,), backward)


def clamp_min(a, floor):
    # Gradient is 0 in the clamped region.
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > floor))

    return T._make(np.maximum(a.data, floor), (a,), backward)


def matmul(a, b):
    """[..., r, k] against a shared [k, c]."""
    ad, bd = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ bd.T)
        if b.requires_grad:
            b._accumulate(ad.reshape(-1, bd.shape[0]).T @ g.reshape(-1, bd.shape[1]))

    return T._make(ad @ bd, (a, b), backward)


def broadcast_to(a, shape):
    """Explicit broadcast; trailing dims must match or be 1. The backward
    sums the incoming gradient in a buffer laid out as np.zeros_like lays
    out the broadcast view (the broadcast axes innermost), as the kernel
    did when gradient buffers followed their node's memory order."""
    shape = tuple(int(d) for d in shape)
    added = len(shape) - a.ndim
    reduce_axes = tuple(range(added)) + tuple(
        added + i for i, d in enumerate(a.shape) if d == 1 and shape[added + i] != 1)
    view = np.broadcast_to(a.data, shape)

    def backward(g):
        if a.requires_grad:
            buffer = np.zeros_like(view)
            buffer += g
            summed = buffer.sum(axis=reduce_axes) if reduce_axes else buffer
            a._accumulate(summed.reshape(a.shape))

    return T._make(view, (a,), backward)


def dense(x, w, b):
    """x @ w + b as the chain matmul, broadcast_to, add."""
    s = matmul(x, w)
    return add(s, broadcast_to(b, s.shape))


def sum_axis(a, axis):
    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.shape))

    return T._make(a.data.sum(axis=axis), (a,), backward)


def weighted_bag(table, ids, weights, mask):
    """The chain embedding_lookup (2-d np.add.at), mul by the masked slot
    weights, sum over the slots."""
    masked = weights * np.asarray(mask, dtype=np.float64)[..., None]
    return sum_axis(T.mul(embedding_lookup(table, ids), T.constant(masked)), -2)


def add_const(a, c):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g)

    return T._make(a.data + float(c), (a,), backward)


def sub(a, b):
    T._check_same_shape(a, b, "sub")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return T._make(a.data - b.data, (a, b), backward)


def abs_(a):
    # Subgradient at exactly 0 is 0 (np.sign(0) == 0).
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * np.sign(a.data))

    return T._make(np.abs(a.data), (a,), backward)


def tanh(a):
    y = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    return T._make(y, (a,), backward)


def sigmoid_two_branch(x):
    """The sigmoid as 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, written
    exp(min(x, 0)) / (1 + exp(-|x|)) so that no exp overflows."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def embedding_lookup(table, ids):
    """Rows of a [V, E] table whose backward scatters with a 2-d np.add.at."""
    ids = np.asarray(ids, dtype=np.int64)

    def backward(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.shape[1]))

    return T._make(table.data[ids], (table,), backward)


def gather_index(a, index):
    """One entry per row of a [B, v] matrix; the backward is a 2-d np.add.at."""
    rows, ids = np.arange(a.shape[0]), np.asarray(index, dtype=np.int64)

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, (rows, ids), g)

    return T._make(a.data[rows, ids], (a,), backward)


def cross_entropy(pred, target):
    """-ln(max(pred[row, target], 1e-12)) as the chain gather_index,
    clamp_min, log, neg."""
    return neg(log(clamp_min(gather_index(pred, target), 1e-12)))


def sigmoid(a):
    y = T._sigmoid_values(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    return T._make(y, (a,), backward)


def gru_cell(x, h, w):
    """The GRU step as a graph of elementwise tape ops, one node per op."""
    def affine(x, h, wm, um, b):
        s = add(matmul(x, wm), matmul(h, um))
        return add(s, broadcast_to(b, s.shape))

    z = sigmoid(affine(x, h, w.wz, w.uz, w.bz))
    r = sigmoid(affine(x, h, w.wr, w.ur, w.br))
    hbar = tanh(affine(x, T.mul(r, h), w.wh, w.uh, w.bh))
    return add(T.mul(z, h), T.mul(add_const(neg(z), 1.0), hbar))


def gru_sequence(x, w, gate=None, h0=None):
    """A step loop of `gru_cell` over axis 1 of x [B, T, e]; with a gate
    [B, T], step t keeps a*GRU(x_t, h) + (1-a)*h."""
    b, steps, _ = x.shape
    h = h0 if h0 is not None else T.constant(np.zeros((b, w.uz.shape[0])))
    states = []
    for t in range(steps):
        c = gru_cell(T.slice_axis(x, 1, t), h, w)
        if gate is None:
            h = c
        else:
            a = broadcast_to(T.reshape(T.slice_axis(gate, 1, t), (b, 1)), c.shape)
            h = add(T.mul(a, c), T.mul(add_const(neg(a), 1.0), h))
        states.append(h)
    return T.concat([T.reshape(s, (b, 1, s.shape[1])) for s in states], 1)


def episodic_gate(f, q, m, valid, squash=False):
    """The episodic gate of f [B, n, d] against q, m [B, d] as a graph of
    elementwise tape ops, times the 0/1 mask `valid` [B, n] in a node of
    its own; returns [B, n]."""
    b, n, d = f.shape
    qb, mb = (broadcast_to(T.reshape(v, (b, 1, d)), (b, n, d)) for v in (q, m))
    feats = T.concat([T.mul(f, qb), T.mul(f, mb), abs_(sub(f, qb)), abs_(sub(f, mb))], 2)
    g = sum_axis(tanh(feats), 2)
    return T.mul(sigmoid(g) if squash else g, T.constant(np.asarray(valid, dtype=np.float64)))


def take_rows(a, rows):
    """Rows of `a` as a one-hot matrix product, so its gradient is a
    matrix product too rather than a scatter."""
    one_hot = np.eye(a.shape[0])[np.asarray(rows)]
    flat = T.reshape(a, (a.shape[0], a.size // a.shape[0]))
    return T.reshape(matmul(T.constant(one_hot), flat), (len(rows),) + a.shape[1:])


def matmul_stacked(a, b):
    """The product of two stacks [..., r, k] and [..., k, c] with identical
    leading dimensions."""
    ad, bd = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ bd.swapaxes(-1, -2))
        if b.requires_grad:
            b._accumulate(ad.swapaxes(-1, -2) @ g)

    return T._make(ad @ bd, (a, b), backward)


def transpose_last2(a):
    def backward(g):
        if a.requires_grad:
            a._accumulate(g.swapaxes(-1, -2))

    return T._make(a.data.swapaxes(-1, -2), (a,), backward)


def attend(q, k, rows):
    """softmax(q kᵀ) k over the keys of each row's sample, as the chain of
    a row gather (the flattened keys' rows, scattered back with a 2-d
    np.add.at in take_rows' order) and four tape nodes."""
    samples, steps, width = k.shape
    keys = T.reshape(embedding_lookup(T.reshape(k, (samples, steps * width)), rows),
                     (len(rows), steps, width))
    return matmul_stacked(T.softmax(matmul_stacked(q, transpose_last2(keys)), axis=-1), keys)
