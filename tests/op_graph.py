"""Op-graph references for the fused kernels.

`gru_cell` and `episodic_gate` in `stmtmem.tensor` are one tape node each,
with hand-written backwards that must be bitwise those of the graphs of
elementwise tape ops below. The elementwise ops those graphs need, and
the model does not, live here rather than in the package.
"""

import numpy as np

from stmtmem import tensor as T


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
    return T.add(T.mul(z, h), T.mul(T.add_const(T.neg(z), 1.0), hbar))


def episodic_gate(f, q, m, squash=False):
    """The episodic gate as a graph of elementwise tape ops."""
    feats = T.concat([T.mul(f, q), T.mul(f, m), abs_(sub(f, q)), abs_(sub(f, m))], 1)
    g = T.sum_axis(tanh(feats), 1, keepdims=True)
    return sigmoid(g) if squash else g
