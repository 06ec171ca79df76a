"""Tensor kernels, autodiff, Adam, and the checkpoint container."""

import inspect
import math
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


class TestMatmul:
    def test_identity(self):
        out = T.matmul(T.constant(np.eye(2)), T.constant([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_product(self):
        out = T.matmul(T.constant([[1.0, 2.0], [3.0, 4.0]]),
                       T.constant([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self):
        out = T.matmul(T.constant(np.zeros((3, 4))), T.constant(np.ones((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 2))))

    def test_gradients_flow_to_both_operands(self):
        a, b = leaf([[1.0, 2.0], [3.0, 4.0]]), leaf([[5.0, 6.0], [7.0, 8.0]])
        T.sum_all(T.matmul(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 2)))

    def test_associativity_and_distributivity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b, c = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
            ta, tb, tc = map(T.constant, (a, b, c))
            assoc_l = T.matmul(T.matmul(ta, tb), tc).data
            assoc_r = T.matmul(ta, T.matmul(tb, tc)).data
            np.testing.assert_allclose(assoc_l, assoc_r, atol=1e-9)
            ident = T.matmul(ta, T.constant(np.eye(3))).data
            np.testing.assert_allclose(ident, a, atol=1e-12)
            dist_l = T.matmul(ta, T.add(tb, tc)).data
            dist_r = T.add(T.matmul(ta, tb), T.matmul(ta, tc)).data
            np.testing.assert_allclose(dist_l, dist_r, atol=1e-9)


class TestElementwise:
    def test_tanh_at_zero_value_and_gradient(self):
        x = leaf([0.0])
        y = op_graph.tanh(x)
        assert y.data[0] == 0.0
        T.sum_all(y).backward()
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
        T.sum_all(y).backward()
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0])

    def test_binary_ops_reject_shape_mismatch(self):
        for op in (T.add, op_graph.sub, T.mul):
            with pytest.raises(DimensionError):
                op(T.constant(np.ones(3)), T.constant(np.ones(4)))

    def test_relu_blocks_negative_gradient(self):
        x = leaf([-1.0, 2.0])
        T.sum_all(T.relu(x)).backward()
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
        T.sum_all(T.mul(out, T.constant([1.0, 2.0, 3.0]))).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0])


class TestEmbeddingLookup:
    def test_repeated_id_copies_row(self):
        table = T.constant(np.arange(12.0).reshape(4, 3))
        out = T.embedding_lookup(table, [0, 0])
        np.testing.assert_array_equal(out.data, [table.data[0], table.data[0]])

    def test_gradient_scatter_adds(self):
        table = leaf(np.zeros((5, 3)))
        T.sum_all(T.embedding_lookup(table, [3, 3])).backward()
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
        # statements), and two gathers pick from one matrix
        rng = np.random.default_rng(5)
        spread = lambda shape: rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, shape)
        table, probs = spread((7, 4)), spread((6, 9))
        code_ids = rng.integers(0, 7, (6, 30))
        stmt_ids = rng.integers(0, 3, (6, 5, 4))
        picks = [rng.integers(0, 9, 6), rng.integers(0, 9, 6)]
        w_code, w_stmt = spread((6, 30, 4)), spread((6, 5, 4, 4))
        w_pick = [spread(6), spread(6)]
        grads = []
        for lookup, gather in ((T.embedding_lookup, T.gather_index),
                               (op_graph.embedding_lookup, op_graph.gather_index)):
            tab, pr = leaf(table), leaf(probs)
            terms = [T.mul(lookup(tab, code_ids), T.constant(w_code)),
                     T.mul(lookup(tab, stmt_ids), T.constant(w_stmt))]
            terms += [T.mul(gather(pr, p), T.constant(w)) for p, w in zip(picks, w_pick)]
            loss = T.sum_all(terms[0])
            for term in terms[1:]:
                loss = T.add(loss, T.sum_all(term))
            loss.backward()
            grads.append((tab.grad, pr.grad))
        (mine_tab, mine_pr), (ref_tab, ref_pr) = grads
        assert mine_tab.tobytes() == ref_tab.tobytes()
        assert mine_pr.tobytes() == ref_pr.tobytes()
        assert np.count_nonzero(ref_tab) == 28 and np.count_nonzero(ref_pr) > 6

    def test_scatter_needs_a_contiguous_gradient(self):
        table = leaf(np.ones((4, 3)))
        table.grad = np.zeros((3, 4)).T                         # a view with no flat form
        out = T.embedding_lookup(table, [1, 2])
        with pytest.raises(UsageError, match="C-contiguous"):
            T.sum_all(out).backward()


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
                f"gru{trial}", lambda: T.sum_all(T.mul(T.gru_cell(x, h, w), proj)),
                [x, h, *w])
            assert result.max_rel_err < 1e-4


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


class TestBackward:
    def test_square_derivative(self):
        x = leaf([3.0])
        T.sum_all(T.mul(x, x)).backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_tanh_derivative_at_zero(self):
        x = leaf([0.0])
        T.sum_all(op_graph.tanh(x)).backward()
        assert x.grad[0] == 1.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(UsageError):
            leaf([1.0, 2.0]).backward()

    def test_repeated_backward_accumulates(self):
        x = leaf([2.0])
        y = T.sum_all(T.mul(x, x))
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
        T.sum_all(y).backward()
        assert x.grad[0] == 1.0


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = ParameterSet(0)
        p = params.add("w", np.array([1.0]))
        p.grad = np.array([2.0])
        state = AdamState.bind(params, lr=1e-3)
        adam_step(params, state)
        assert p.data[0] == pytest.approx(1.0 - 1e-3, abs=1e-9)
        assert p.grad is None and state.t == 1

    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = ParameterSet(0)
        p = params.add("w", np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        adam_step(params, AdamState.bind(params))
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_missing_gradient_names_parameter(self):
        params = ParameterSet(0)
        params.add("alpha", np.ones(2))
        with pytest.raises(UsageError, match="alpha"):
            adam_step(params, AdamState.bind(params))

    def test_identical_runs_are_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            params = ParameterSet(42)
            p = params.add("w", rng.uniform(-1, 1, 8))
            state = AdamState.bind(params)
            for _ in range(5):
                p.grad = np.sin(p.data)
                adam_step(params, state)
            return p.data.tobytes()
        assert run() == run()


class TestFiniteDifferenceInvariant:
    def test_all_ops_match_central_differences(self):
        results = verify.run_op_checks(seed=123, trials=4)
        for r in results:
            assert r.passed, f"{r.name}: {r.max_rel_err:.3e}"

    def test_every_kernel_has_a_gradient_check(self):
        # a kernel is a public function of stmtmem.tensor that takes a
        # Tensor and returns one; a case is named after its kernel, with
        # an optional _suffix for a variant (matmul_shared)
        def is_kernel(fn):
            sig = inspect.signature(fn)
            return sig.return_annotation == "Tensor" and any(
                "Tensor" in str(p.annotation) for p in sig.parameters.values())

        kernels = {name for name, fn in vars(T).items()
                   if inspect.isfunction(fn) and fn.__module__ == T.__name__
                   and not name.startswith("_") and is_kernel(fn)}
        assert {"matmul", "gru_sequence", "gru_cell", "episodic_gate", "take_rows"} <= kernels
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

    def test_kept_benchmark_members_load(self):
        import os
        members = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "members")
        for name in ("positional", "eos"):
            config, params = load_checkpoint(os.path.join(members, f"{name}.ckpt"))
            assert len(params) > 0 and config.encoder_kind == "smn"

