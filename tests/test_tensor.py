"""Tensor kernels, autodiff, Adam, and the checkpoint container."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stmtmem import tensor as T
from stmtmem.errors import (
    DataError,
    DimensionError,
    NumericInputError,
    UsageError,
    VocabularyError,
)
from stmtmem.params import (
    AdamState,
    ParameterSet,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from stmtmem import verify

import op_graph


def leaf(data):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def mm(a, b):
    """a @ b through dense with a zero bias."""
    return T.dense(a, b, T.constant(np.zeros(b.shape[1])))


class TestMatmul:
    def test_identity(self):
        out = mm(T.constant(np.eye(2)), T.constant([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_product(self):
        out = mm(T.constant([[1.0, 2.0], [3.0, 4.0]]), T.constant([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self):
        out = mm(T.constant(np.zeros((3, 4))), T.constant(np.ones((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_shape_error_names_all_three_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\).*\(2,\)"):
            mm(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 2))))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(3, 2\).*\(3,\)"):
            T.dense(T.constant(np.ones((2, 3))), T.constant(np.ones((3, 2))),
                    T.constant(np.ones(3)))

    def test_gradients_flow_to_both_operands(self):
        a, b = leaf([[1.0, 2.0], [3.0, 4.0]]), leaf([[5.0, 6.0], [7.0, 8.0]])
        bias = leaf([0.0, 0.0])
        op_graph.sum_all(T.dense(a, b, bias)).backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 2)))
        np.testing.assert_array_equal(bias.grad, [2.0, 2.0])

    def test_associativity_and_distributivity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b, c = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
            ta, tb, tc = map(T.constant, (a, b, c))
            assoc_l = mm(mm(ta, tb), tc).data
            assoc_r = mm(ta, mm(tb, tc)).data
            np.testing.assert_allclose(assoc_l, assoc_r, atol=1e-9)
            ident = mm(ta, T.constant(np.eye(3))).data
            np.testing.assert_allclose(ident, a, atol=1e-12)
            dist_l = mm(ta, T.constant(b + c)).data
            dist_r = mm(ta, tb).data + mm(ta, tc).data
            np.testing.assert_allclose(dist_l, dist_r, atol=1e-9)


class TestElementwise:
    def test_tanh_at_zero_value_and_gradient(self):
        x = leaf([0.0])
        y = op_graph.tanh(x)
        assert y.data[0] == 0.0
        op_graph.sum_all(y).backward()
        assert x.grad[0] == 1.0

    def test_sigmoid_at_zero(self):
        assert op_graph.sigmoid(T.constant([0.0])).data[0] == 0.5

    def sigmoid_inputs(self):
        edges = np.arange(709.0, 746.0)
        return np.concatenate([np.linspace(-1000.0, 1000.0, 20001), edges, -edges,
                               [0.0, -0.0, 709.5, -709.5, 745.5, -745.5]])

    def test_sigmoid_is_finite_bounded_and_silent(self):
        x = self.sigmoid_inputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = T._sigmoid_values(x.copy())
            into = np.empty_like(x)
            assert T._sigmoid_values(x, out=into) is into
        assert np.isfinite(y).all() and (y >= 0.0).all() and (y <= 1.0).all()
        assert y[x < -745].max() == 0.0 and y[x > 40].min() == 1.0
        np.testing.assert_array_equal(into, y)

    def test_sigmoid_matches_two_branch_form(self):
        x = self.sigmoid_inputs()
        y = T._sigmoid_values(x.copy())
        old = op_graph.sigmoid_two_branch(x)
        kept = old > 1e-300
        assert kept.sum() > 15000
        assert (np.abs(y[kept] - old[kept]) <= 1e-15 * old[kept]).all()

    def test_abs_definition_and_zero_subgradient(self):
        x = leaf([-0.1, 0.0])
        y = op_graph.abs_(x)
        np.testing.assert_array_equal(y.data, [0.1, 0.0])
        op_graph.sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0])

    def test_binary_ops_reject_shape_mismatch(self):
        for op in (op_graph.add, op_graph.sub, op_graph.mul):
            with pytest.raises(DimensionError):
                op(T.constant(np.ones(3)), T.constant(np.ones(4)))

    def test_relu_blocks_negative_gradient(self):
        x = leaf([-1.0, 2.0])
        op_graph.sum_all(T.relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(T.softmax(T.constant([0.0, 0.0])).data, [0.5, 0.5])

    def test_hand_values(self):
        out = T.softmax(T.constant([1.0, 2.0, 3.0])).data
        np.testing.assert_allclose(out, [0.09003, 0.24473, 0.66524], atol=5e-6)

    def test_extreme_logits_do_not_overflow(self):
        out = T.softmax(T.constant([1000.0, 0.0])).data
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericInputError):
            T.softmax(T.constant([np.inf, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_sum_one_and_shift_invariance(self, logits, shift):
        base = T.softmax(T.constant(logits)).data
        assert abs(base.sum() - 1.0) <= 1e-12
        assert (base > 0).all()
        shifted = T.softmax(T.constant([v + shift for v in logits])).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestAttend:
    def run(self, attend_op, q, k, rows, weights):
        qt, kt = leaf(q), leaf(k)
        out = attend_op(qt, kt, rows)
        op_graph.sum_all(op_graph.mul(out, T.constant(weights))).backward()
        return out.data, qt.grad, kt.grad

    def test_matches_reference_chain_bitwise(self):
        # B > 1 stacks and more keys than queries (T > C), as in the model;
        # a row map with distinct rows, and one that repeats rows, as a
        # training batch's does
        rng = np.random.default_rng(17)
        for rows in ([0, 1, 2], [2, 0, 2, 2, 1]):
            q, k = rng.uniform(-2, 2, (len(rows), 4, 5)), rng.uniform(-2, 2, (3, 7, 5))
            weights = rng.uniform(0.5, 1.5, (len(rows), 4, 5))
            fused = self.run(T.attend, q, k, rows, weights)
            chain = self.run(op_graph.attend, q, k, rows, weights)
            for mine, theirs in zip(fused, chain):
                assert mine.shape == theirs.shape
                assert mine.tobytes() == theirs.tobytes()

    def test_strided_queries_read_as_contiguous(self):
        # a gru_sequence output is a strided view of its time-major states
        rng = np.random.default_rng(6)
        q, k = rng.uniform(-2, 2, (4, 5, 3)), rng.uniform(-2, 2, (2, 6, 3))
        view = T.constant(np.ascontiguousarray(q.transpose(1, 2, 0)).transpose(2, 0, 1))
        assert not view.data.flags.c_contiguous
        assert (T.attend(view, T.constant(k), [1, 0, 1, 1]).data.tobytes()
                == T.attend(T.constant(q), T.constant(k), [1, 0, 1, 1]).data.tobytes())

    @pytest.mark.parametrize("q, k", [
        (np.full((1, 1, 2), np.nan), np.ones((1, 3, 2))),
        (np.full((1, 1, 2), 1e200), np.full((1, 3, 2), 1e200)),    # finite inputs, inf score
    ])
    def test_non_finite_score_rejected(self, q, k):
        # the overflow warning is silenced as the command line does
        with np.errstate(over="ignore"), pytest.raises(NumericInputError, match="attend"):
            T.attend(T.constant(q), T.constant(k), [0])

    def test_leaves_its_inputs_and_incoming_gradient_untouched(self):
        # the softmax and the score gradient are formed in place, in buffers
        # the kernel owns
        rng = np.random.default_rng(3)
        q, k = leaf(rng.uniform(-2, 2, (2, 3, 4))), leaf(rng.uniform(-2, 2, (2, 5, 4)))
        g = rng.uniform(-1, 1, (2, 3, 4))
        kept = [a.copy() for a in (q.data, k.data, g)]
        T.attend(q, k, [1, 0])._backward(g)
        for now, before in zip((q.data, k.data, g), kept):
            assert now.tobytes() == before.tobytes()

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 1, 3\).*\(2, 4, 2\)"):
            T.attend(T.constant(np.ones((2, 1, 3))), T.constant(np.ones((2, 4, 2))), [0, 1])

    def test_row_map_needs_one_row_per_query(self):
        with pytest.raises(DimensionError, match=r"rows \(3,\)"):
            T.attend(T.constant(np.ones((2, 1, 3))), T.constant(np.ones((2, 4, 3))), [0, 1, 1])


class TestConcat:
    def test_single_argument_identity(self):
        x = T.constant([1.0, 2.0])
        np.testing.assert_array_equal(T.concat([x], axis=0).data, x.data)

    def test_row_concatenation(self):
        out = T.concat([T.constant([[1.0], [2.0]]), T.constant([[3.0], [4.0]])], axis=0)
        np.testing.assert_array_equal(out.data, [[1.0], [2.0], [3.0], [4.0]])

    def test_gate_feature_layout(self):
        parts = [T.constant(np.full(5, float(i))) for i in range(4)]
        assert T.concat(parts, axis=0).shape == (20,)

    def test_mismatched_off_axis_dims(self):
        with pytest.raises(DimensionError):
            T.concat([T.constant(np.ones((2, 3))), T.constant(np.ones((2, 4)))], axis=0)

    def test_gradient_splits_back(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0])
        out = T.concat([a, b], axis=0)
        op_graph.sum_all(op_graph.mul(out, T.constant([1.0, 2.0, 3.0]))).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0])


class TestEmbeddingLookup:
    def test_repeated_id_copies_row(self):
        table = T.constant(np.arange(12.0).reshape(4, 3))
        out = T.embedding_lookup(table, [0, 0])
        np.testing.assert_array_equal(out.data, [table.data[0], table.data[0]])

    def test_gradient_scatter_adds(self):
        table = leaf(np.zeros((5, 3)))
        op_graph.sum_all(T.embedding_lookup(table, [3, 3])).backward()
        expected = np.zeros((5, 3))
        expected[3] = 2.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_empty_id_list(self):
        out = T.embedding_lookup(T.constant(np.ones((4, 3))), [])
        assert out.shape == (0, 3)

    def test_out_of_range_id_reported(self):
        with pytest.raises(VocabularyError, match="7"):
            T.embedding_lookup(T.constant(np.ones((4, 3))), [1, 7])

    def test_flat_scatters_match_2d_add_at_bitwise(self):
        # values spread over 24 orders of magnitude, so that adding in
        # another order would change the low bits; ids repeat, one table
        # is read by two lookups (as embed.code is by the code and by the
        # statements), and two cross-entropies pick from one matrix
        rng = np.random.default_rng(5)
        spread = lambda shape: rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, shape)
        table, probs = spread((7, 4)), np.abs(spread((6, 9)))
        code_ids = rng.integers(0, 7, (6, 30))
        stmt_ids = rng.integers(0, 3, (6, 5, 4))
        picks = [rng.integers(0, 9, 6), rng.integers(0, 9, 6)]
        w_code, w_stmt = spread((6, 30, 4)), spread((6, 5, 4, 4))
        w_pick = [spread(6), spread(6)]
        grads = []
        for lookup, pick in ((T.embedding_lookup, T.cross_entropy),
                             (op_graph.embedding_lookup, op_graph.cross_entropy)):
            tab, pr = leaf(table), leaf(probs)
            terms = [op_graph.mul(lookup(tab, code_ids), T.constant(w_code)),
                     op_graph.mul(lookup(tab, stmt_ids), T.constant(w_stmt))]
            terms += [op_graph.mul(pick(pr, p), T.constant(w)) for p, w in zip(picks, w_pick)]
            loss = op_graph.sum_all(terms[0])
            for term in terms[1:]:
                loss = op_graph.add(loss, op_graph.sum_all(term))
            loss.backward()
            grads.append((tab.grad, pr.grad))
        (mine_tab, mine_pr), (ref_tab, ref_pr) = grads
        assert mine_tab.tobytes() == ref_tab.tobytes()
        assert mine_pr.tobytes() == ref_pr.tobytes()
        assert np.count_nonzero(ref_tab) == 28 and np.count_nonzero(ref_pr) > 6

    def test_rows_of_a_3d_table_scatter_as_a_row_loop_bitwise(self):
        # the summary_vector memory gathers [n, d] statement blocks at the
        # batch rows; repeated rows add back in row order, as a loop would
        rng = np.random.default_rng(6)
        spread = lambda shape: rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, shape)
        table, rows = leaf(spread((3, 5, 4))), np.array([2, 0, 2, 2, 1, 0])
        weights = T.constant(spread((6, 5, 4)))
        out = T.embedding_lookup(table, rows)
        np.testing.assert_array_equal(out.data, table.data[rows])
        op_graph.sum_all(op_graph.mul(out, weights)).backward()
        looped = np.zeros(table.shape)
        for source, row in enumerate(rows):
            looped[row] += weights.data[source]
        assert table.grad.tobytes() == looped.tobytes()

    def test_table_needs_two_dimensions(self):
        with pytest.raises(DimensionError, match="2-d or more"):
            T.embedding_lookup(T.constant(np.ones(4)), [1])

    def test_scatter_needs_a_contiguous_gradient(self):
        table = leaf(np.ones((4, 3)))
        table.grad = np.zeros((3, 4)).T                         # a view with no flat form
        out = T.embedding_lookup(table, [1, 2])
        with pytest.raises(UsageError, match="C-contiguous"):
            op_graph.sum_all(out).backward()


class TestGRUCell:
    def zero_weights(self, e, h):
        z = lambda shape: T.constant(np.zeros(shape))
        return T.GRUWeights(z((e, h)), z((h, h)), z(h),
                            z((e, h)), z((h, h)), z(h),
                            z((e, h)), z((h, h)), z(h))

    def test_zero_fixed_point(self):
        w = self.zero_weights(3, 4)
        out = T.gru_cell(T.constant(np.zeros((1, 3))), T.constant(np.zeros((1, 4))), w)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_zero_weights_halve_state(self):
        w = self.zero_weights(3, 4)
        h = np.array([[1.0, -2.0, 0.5, 4.0]])
        out = T.gru_cell(T.constant(np.zeros((1, 3))), T.constant(h), w)
        np.testing.assert_allclose(out.data, 0.5 * h)

    def test_finite_difference(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            w = T.GRUWeights(*(leaf(rng.uniform(-1, 1, s)) for s in
                               [(3, 4), (4, 4), (4,)] * 3))
            x, h = leaf(rng.uniform(-1, 1, (1, 3))), leaf(rng.uniform(-1, 1, (1, 4)))
            proj = T.constant(rng.uniform(0.5, 1.5, (1, 4)))
            result = verify.check_gradient(
                f"gru{trial}", lambda: op_graph.sum_all(op_graph.mul(T.gru_cell(x, h, w), proj)),
                [x, h, *w])
            assert result.max_rel_err < 1e-4


class TestGRUSequence:
    @pytest.mark.parametrize("form", ["plain", "gated", "h0"])
    def test_saturated_gates_are_exact_finite_and_silent(self, form):
        # unit weights and inputs of +-800 drive every pre-activation past
        # +-709, where e^-x overflows: z and r must come out exactly 0 or 1,
        # which makes every z- and r-parameter gradient exactly 0
        b, steps, e, l = 4, 5, 3, 2
        x = leaf(np.where(np.arange(b)[:, None, None] % 2, 800.0, -800.0)
                 * np.ones((b, steps, e)))
        w = T.GRUWeights(*(leaf(np.ones(s)) for s in [(e, l), (l, l), (l,)] * 3))
        gate = leaf(np.full((b, steps), 0.5)) if form == "gated" else None
        h0 = leaf(np.full((b, l), 0.25)) if form == "h0" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.gru_sequence(x, w, gate=gate, h0=h0)
            op_graph.sum_all(op_graph.mul(out, T.constant(np.full(out.shape, 0.5)))).backward()
        assert np.isfinite(out.data).all()
        for p in (x, *w, gate, h0):
            if p is not None:
                assert np.isfinite(p.grad).all()
        for p in (w.wz, w.uz, w.bz, w.wr, w.ur, w.br):
            assert (p.grad == 0.0).all()


class TestCrossEntropy:
    def test_uniform_case(self):
        dist = T.constant(np.full((1, 4), 0.25))
        assert math.isclose(T.cross_entropy(dist, [2]).data[0], math.log(4), rel_tol=1e-12)

    def test_perfect_prediction(self):
        dist = T.constant([[0.0, 1.0, 0.0]])
        assert math.isclose(T.cross_entropy(dist, [1]).data[0], 0.0, abs_tol=1e-9)

    def test_quarter_probability(self):
        dist = T.constant([[0.25, 0.5, 0.25]])
        assert math.isclose(T.cross_entropy(dist, [0]).data[0], 1.38629, abs_tol=1e-5)

    def test_out_of_range_target(self):
        with pytest.raises(VocabularyError):
            T.cross_entropy(T.constant([[0.5, 0.5]]), [2])

    def test_batched_rows(self):
        dist = T.constant([[0.5, 0.5], [0.25, 0.75]])
        out = T.cross_entropy(dist, [0, 1])
        np.testing.assert_allclose(out.data, [-np.log(0.5), -np.log(0.75)])


class TestOneNodeLayers:
    """dense, cross_entropy, weighted_bag and the masked episodic_gate
    replace chains of tape nodes; their values and every gradient are
    bitwise the chains'."""

    @staticmethod
    def run(build, arrays, weights):
        leaves = [leaf(a) for a in arrays]
        out = build(*leaves)
        op_graph.sum_all(op_graph.mul(out, T.constant(weights))).backward()
        return [out.data.tobytes()] + [x.grad.tobytes() for x in leaves]

    @pytest.mark.parametrize("shape", [(100, 13, 32), (100, 27)])
    def test_dense_is_bitwise_matmul_broadcast_add(self, shape):
        # the output layers' training shapes: [B, comlen, projection] from
        # [B, comlen, 3l], and [B, v] from the flattened projection
        rng = np.random.default_rng(4)
        k = 48 if len(shape) == 3 else 416
        arrays = [rng.normal(size=shape[:-1] + (k,)), rng.normal(size=(k, shape[-1])),
                  rng.normal(size=shape[-1])]
        weights = rng.normal(size=shape)
        mine = self.run(T.dense, arrays, weights)
        assert mine == self.run(op_graph.dense, arrays, weights)
        # the bias sum is order-sensitive here: summing in C order differs
        c_order = weights.sum(axis=tuple(range(len(shape) - 1)))
        assert c_order.tobytes() != mine[3]

    def test_cross_entropy_is_bitwise_the_gather_clamp_log_neg_chain(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(9, 27))
        targets = rng.integers(0, 27, 9)
        logits[2, targets[2]] = -60.0               # p < 1e-12: clamped, gradient 0
        weights = rng.uniform(0.5, 1.5, 9)
        results = [self.run(lambda x: ce(T.softmax(x), targets), [logits], weights)
                   for ce in (T.cross_entropy, op_graph.cross_entropy)]
        assert results[0] == results[1]
        pred = leaf(T.softmax(T.constant(logits)).data)
        op_graph.sum_all(T.cross_entropy(pred, targets)).backward()
        assert pred.data[2, targets[2]] < 1e-12 and pred.grad[2].tolist() == [0.0] * 27
        assert np.count_nonzero(pred.grad) == 8

    @pytest.mark.parametrize("squash", [False, True])
    def test_masked_gate_is_bitwise_the_gate_times_its_mask(self, squash):
        rng = np.random.default_rng(2)
        arrays = [rng.uniform(-1, 1, (6, 5, 4)), rng.uniform(-1, 1, (6, 4)),
                  rng.uniform(-1, 1, (6, 4))]
        valid = rng.integers(0, 2, (6, 5)).astype(bool)
        weights = rng.uniform(0.5, 1.5, (6, 5))
        masked = self.run(lambda f, q, m: T.episodic_gate(f, q, m, valid, squash),
                          arrays, weights)
        chain = self.run(lambda f, q, m: op_graph.mul(T.episodic_gate(f, q, m, np.ones((6, 5)), squash),
                                               T.constant(valid.astype(np.float64))),
                         arrays, weights)
        assert masked == chain

    def test_weighted_bag_is_bitwise_the_lookup_mul_sum_chain(self):
        # a repeated id, an all-pad statement and statements cut short; slot
        # weights of both signs, so the masked slots hold zeros of both signs
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 6, (3, 4, 5))
        ids[0, 1] = 2
        mask = (np.arange(5) < np.array([[5, 5, 2, 0], [3, 1, 0, 0], [5, 4, 4, 1]])[..., None])
        slot_weights = rng.uniform(-1, 1, (5, 4))
        weights = rng.uniform(0.5, 1.5, (3, 4, 4))
        table = rng.uniform(-1, 1, (6, 4))
        results = [self.run(lambda t: bag(t, ids, slot_weights, mask), [table], weights)
                   for bag in (T.weighted_bag, op_graph.weighted_bag)]
        assert results[0] == results[1]
        out = np.frombuffer(results[0][0]).reshape(3, 4, 4)
        assert not out[0, 3].any() and not out[1, 2:].any()

    def test_weighted_bag_checks_ids_and_shapes(self):
        table = T.constant(np.ones((4, 3)))
        with pytest.raises(VocabularyError, match="id 4 outside vocabulary of size 4"):
            T.weighted_bag(table, [[1, 4]], np.ones((2, 3)), [[1, 1]])
        with pytest.raises(DimensionError, match="weighted_bag"):
            T.weighted_bag(table, [[1, 2]], np.ones((3, 3)), [[1, 1]])

    def test_cross_entropy_checks_shapes(self):
        with pytest.raises(DimensionError, match="want 2 ids"):
            T.cross_entropy(T.constant(np.full((2, 3), 0.5)), [1])
        with pytest.raises(DimensionError):
            T.cross_entropy(T.constant(np.full(3, 0.5)), [1])


class TestBackward:
    def test_square_derivative(self):
        x = leaf([3.0])
        op_graph.sum_all(op_graph.mul(x, x)).backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_tanh_derivative_at_zero(self):
        x = leaf([0.0])
        op_graph.sum_all(op_graph.tanh(x)).backward()
        assert x.grad[0] == 1.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(UsageError):
            leaf([1.0, 2.0]).backward()

    def test_interior_gradients_are_released_once_used(self):
        # y feeds two consumers, so its gradient holds both terms before its
        # backward reads it; the leaves keep exact gradients
        x, w = leaf([1.0, -2.0, 3.0]), leaf([0.5, 2.0, -1.0])
        y = op_graph.mul(x, x)
        s = op_graph.add(y, y)
        loss = op_graph.sum_all(op_graph.mul(s, w))
        loss.backward()
        assert y.grad is None and s.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, 4.0 * x.data * w.data)
        np.testing.assert_array_equal(w.grad, 2.0 * x.data * x.data)

    def test_repeated_backward_accumulates(self):
        x = leaf([2.0])
        y = op_graph.sum_all(op_graph.mul(x, x))
        y.backward()
        first = x.grad.copy()
        y.backward()
        np.testing.assert_array_equal(x.grad, 2 * first)

    def test_deep_chain_is_iterative(self):
        # 5000 chained ops would overflow a recursive traversal.
        x = leaf([1.0])
        y = x
        for _ in range(5000):
            y = op_graph.add_const(y, 0.0)
        op_graph.sum_all(y).backward()
        assert x.grad[0] == 1.0


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = ParameterSet(0)
        p = params.add("w", np.array([1.0]))
        p.grad = np.array([2.0])
        state = AdamState.bind(params)
        adam_step(params, state, 1e-3)
        assert p.data[0] == pytest.approx(1.0 - 1e-3, abs=1e-9)
        assert p.grad is None and state.t == 1

    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = ParameterSet(0)
        p = params.add("w", np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        adam_step(params, AdamState.bind(params), 1e-3)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_missing_gradient_names_parameter(self):
        params = ParameterSet(0)
        params.add("alpha", np.ones(2))
        with pytest.raises(UsageError, match="alpha"):
            adam_step(params, AdamState.bind(params), 1e-3)

    def test_identical_runs_are_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            params = ParameterSet(42)
            p = params.add("w", rng.uniform(-1, 1, 8))
            state = AdamState.bind(params)
            for _ in range(5):
                p.grad = np.sin(p.data)
                adam_step(params, state, 1e-3)
            return p.data.tobytes()
        assert run() == run()


def public_kernels() -> set[str]:
    """The kernels of stmtmem.tensor: its public functions that take a
    Tensor and return one."""
    def is_kernel(fn):
        sig = inspect.signature(fn)
        return sig.return_annotation == "Tensor" and any(
            "Tensor" in str(p.annotation) for p in sig.parameters.values())

    return {name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and fn.__module__ == T.__name__
            and not name.startswith("_") and is_kernel(fn)}


class TestFiniteDifferenceInvariant:
    def test_all_ops_match_central_differences(self):
        results = verify.run_op_checks(seed=123, trials=4)
        for r in results:
            assert r.passed, f"{r.name}: {r.max_rel_err:.3e}"

    def test_every_kernel_has_a_gradient_check(self):
        # a case is named after its kernel, with an optional _suffix for a
        # variant (dense_shared)
        kernels = public_kernels()
        assert {"dense", "cross_entropy", "attend", "gru_sequence", "gru_cell", "episodic_gate",
                "embedding_lookup"} <= kernels
        cases = [name for name, _, _ in verify.op_check_cases(np.random.default_rng(0))]
        checked = {}
        for case in cases:
            named = [k for k in kernels if case == k or case.startswith(k + "_")]
            assert named, f"gradient check {case!r} names no kernel"
            checked[case] = max(named, key=len)
        assert sorted(kernels - set(checked.values())) == []


class TestDeterminism:
    def test_same_seed_same_parameters(self):
        from stmtmem.model import init_params
        cfg = verify.toy_config()
        a, b = init_params(cfg), init_params(cfg)
        for (name_a, ta), (name_b, tb) in zip(a.items(), b.items()):
            assert name_a == name_b
            assert ta.data.tobytes() == tb.data.tobytes()


class TestParameterSet:
    def test_iteration_is_lexicographic(self):
        params = ParameterSet(0)
        for name in ("zeta", "alpha", "midway"):
            params.add(name, np.zeros(1))
        assert params.names() == ["alpha", "midway", "zeta"]

    def test_duplicate_names_rejected(self):
        params = ParameterSet(0)
        params.add("w", np.zeros(1))
        with pytest.raises(UsageError):
            params.add("w", np.zeros(1))


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cfg = verify.toy_config()
        from stmtmem.model import init_params
        params = init_params(cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, cfg, params)
        loaded_cfg, loaded = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded.names() == params.names()
        for (_, orig), (_, back) in zip(params.items(), loaded.items()):
            assert orig.data.tobytes() == back.data.tobytes()

    def test_rewrite_is_bytewise_identical(self, tmp_path):
        cfg = verify.toy_config()
        from stmtmem.model import init_params
        params = init_params(cfg)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, cfg, params)
        save_checkpoint(p2, cfg, params)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def saved_toy(self, tmp_path):
        from stmtmem.model import init_params
        cfg = verify.toy_config()
        params = init_params(cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, cfg, params)
        return path, params

    def rewrite_manifest(self, path, edit):
        blob = open(path, "rb").read()
        head, _, rest = blob.partition(b"\ndata\n")
        lines = edit(head.decode("utf-8").split("\n"))
        with open(path, "wb") as fh:
            fh.write("\n".join(lines).encode("utf-8") + b"\ndata\n" + rest)

    def test_missing_parameter_named(self, tmp_path):
        path, _ = self.saved_toy(tmp_path)

        def drop_proj_w(lines):
            kept = [line for line in lines[3:] if not line.startswith("proj.w\t")]
            return lines[:2] + [str(len(kept))] + kept

        self.rewrite_manifest(path, drop_proj_w)
        with pytest.raises(DataError, match="proj.w"):
            load_checkpoint(path)

    def test_unexpected_parameter_named(self, tmp_path):
        path, _ = self.saved_toy(tmp_path)
        self.rewrite_manifest(path, lambda lines: [line.replace("proj.w\t", "proj.v\t")
                                                   for line in lines])
        with pytest.raises(DataError, match="unexpected parameter 'proj.v'"):
            load_checkpoint(path)

    def test_shape_mismatch_named(self, tmp_path):
        path, _ = self.saved_toy(tmp_path)

        def reshape_out_b(lines):
            # same byte count, different shape
            return [line.replace("out.b\t5\t", "out.b\t5,1\t") for line in lines]

        self.rewrite_manifest(path, reshape_out_b)
        with pytest.raises(DataError, match="out.b"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, _ = self.saved_toy(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(DataError, match="8 bytes after the last parameter"):
            load_checkpoint(path)

    def test_truncated_data_names_the_parameter(self, tmp_path):
        path, params = self.saved_toy(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-8])
        with pytest.raises(DataError, match=f"parameter '{params.names()[-1]}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut, message", [
        (lambda head, rest: b"", "header: its format line is '', not 'stmtmem-checkpoint 1'"),
        (lambda head, rest: head[:10], "header: its format line is 'stmtmem-ch', not"),
        (lambda head, rest: head.split(b"\n")[0], "the header ends before its config line"),
        (lambda head, rest: b"\n".join(head.split(b"\n")[:2]),
         "the header ends before its manifest count"),
        (lambda head, rest: head.replace(b"{", b"[", 1) + b"\ndata\n" + rest, "config line: "),
        (lambda head, rest: head + b"\n", "manifest: no 'data' line follows it"),
        (lambda head, rest: head + b"\ndata\n",
         "the data section holds 0 bytes; parameter 'dec_gru.bh' at offset 0 needs 0..24"),
        (lambda head, rest: head + b"\ndata\n" + rest[:-8], "holds 2792 bytes; parameter 'proj.w' at offset 2512 needs 2512..2800"),
    ], ids=["empty", "cut_in_format_line", "format_line_only", "no_manifest_count",
            "config_line", "no_data_line", "header_only", "short_data"])
    def test_structure_errors_name_the_part(self, tmp_path, cut, message):
        path, _ = self.saved_toy(tmp_path)
        head, _, rest = open(path, "rb").read().partition(b"\ndata\n")
        with open(path, "wb") as fh:
            fh.write(cut(head, rest))
        with pytest.raises(DataError, match=re.escape(message)):
            load_checkpoint(path)

    def test_kept_benchmark_members_load(self):
        import os
        members = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "members")
        for name in ("positional", "eos"):
            config, params = load_checkpoint(os.path.join(members, f"{name}.ckpt"))
            assert len(params) > 0 and config.encoder_kind == "smn"

