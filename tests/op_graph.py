"""Op-graph references for the fused kernels.

`gru_sequence`, `episodic_gate` and `take_rows` in `stmtmem.tensor` are one
tape node each, with hand-written backwards. The step loops and graphs of
elementwise tape ops below compute the same functions one op per node, so
their values and gradients must agree with the kernels' up to the order of
float sums. The elementwise ops those graphs need, and the model does not,
live here rather than in the package, as do the earlier forms of two
kernels: the two-branch sigmoid and the 2-d np.add.at scatters.
"""

import numpy as np

from stmtmem import tensor as T


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


def sigmoid(a):
    y = T._sigmoid_values(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    return T._make(y, (a,), backward)


def gru_cell(x, h, w):
    """The GRU step as a graph of elementwise tape ops, one node per op."""
    def affine(x, h, wm, um, b):
        s = T.add(T.matmul(x, wm), T.matmul(h, um))
        return T.add(s, T.broadcast_to(b, s.shape))

    z = sigmoid(affine(x, h, w.wz, w.uz, w.bz))
    r = sigmoid(affine(x, h, w.wr, w.ur, w.br))
    hbar = tanh(affine(x, T.mul(r, h), w.wh, w.uh, w.bh))
    return T.add(T.mul(z, h), T.mul(add_const(T.neg(z), 1.0), hbar))


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
            a = T.broadcast_to(T.reshape(T.slice_axis(gate, 1, t), (b, 1)), c.shape)
            h = T.add(T.mul(a, c), T.mul(add_const(T.neg(a), 1.0), h))
        states.append(h)
    return T.concat([T.reshape(s, (b, 1, s.shape[1])) for s in states], 1)


def episodic_gate(f, q, m, squash=False):
    """The episodic gate of f [B, n, d] against q, m [B, d] as a graph of
    elementwise tape ops; returns [B, n]."""
    b, n, d = f.shape
    qb, mb = (T.broadcast_to(T.reshape(v, (b, 1, d)), (b, n, d)) for v in (q, m))
    feats = T.concat([T.mul(f, qb), T.mul(f, mb), abs_(sub(f, qb)), abs_(sub(f, mb))], 2)
    g = T.sum_axis(tanh(feats), 2)
    return sigmoid(g) if squash else g


def take_rows(a, rows):
    """Rows of `a` as a one-hot matrix product, so its gradient is a
    matrix product too rather than a scatter."""
    one_hot = np.eye(a.shape[0])[np.asarray(rows)]
    flat = T.reshape(a, (a.shape[0], a.size // a.shape[0]))
    return T.reshape(T.matmul(T.constant(one_hot), flat), (len(rows),) + a.shape[1:])
