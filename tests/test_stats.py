"""Student-t machinery against frozen table values and scipy as an oracle."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from stmtmem.errors import UsageError
from stmtmem.stats import (
    paired_t_test,
    regularized_incomplete_beta,
    student_t_two_tailed,
)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in [(2.0, 0.5, 0.3), (5.0, 5.0, 0.72), (0.5, 4.0, 0.11)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_against_scipy_grid(self):
        for a in (0.5, 1.0, 2.0, 5.0, 17.0):
            for b in (0.5, 1.0, 3.5, 12.0):
                for x in np.linspace(0.01, 0.99, 23):
                    mine = regularized_incomplete_beta(a, b, float(x))
                    ref = float(scipy.special.betainc(a, b, x))
                    assert mine == pytest.approx(ref, abs=1e-12)


class TestStudentT:
    def test_table_value_df4(self):
        assert student_t_two_tailed(4.2426, 4) == pytest.approx(0.0132, abs=0.0005)

    def test_table_value_df10(self):
        assert student_t_two_tailed(2.228, 10) == pytest.approx(0.050, abs=0.001)

    def test_against_scipy(self):
        for df in (1, 2, 5, 30, 100):
            for t in (0.0, 0.5, 1.7, 2.5, 6.0):
                mine = student_t_two_tailed(t, df)
                ref = 2.0 * float(scipy.stats.t.sf(abs(t), df))
                assert mine == pytest.approx(ref, abs=1e-12)

    def test_zero_statistic_gives_p_one(self):
        assert student_t_two_tailed(0.0, 7) == 1.0


class TestPairedTTest:
    def test_hand_computed_example(self):
        result = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert result.t == pytest.approx(3.0 / (math.sqrt(2.5) / math.sqrt(5)), abs=1e-9)
        assert result.t == pytest.approx(4.2426, abs=1e-4)
        assert result.p == pytest.approx(0.0132, abs=0.0005)
        assert not result.degenerate

    def test_identical_samples_are_null(self):
        a = [0.3, 0.5, 0.9, 0.1]
        result = paired_t_test(a, list(a))
        assert result.t == 0.0 and result.p == 1.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, 12).tolist()
        b = rng.uniform(0, 1, 12).tolist()
        ab = paired_t_test(a, b)
        ba = paired_t_test(b, a)
        assert ab.t == pytest.approx(-ba.t, abs=1e-12)
        assert ab.p == pytest.approx(ba.p, abs=1e-12)

    def test_constant_nonzero_difference_is_degenerate(self):
        result = paired_t_test([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
        assert result.p == 0.0
        assert result.degenerate
        assert math.isinf(result.t) and result.t > 0

    def test_alignment_and_size_validation(self):
        with pytest.raises(UsageError):
            paired_t_test([1.0, 2.0], [1.0])
        with pytest.raises(UsageError):
            paired_t_test([1.0], [])

    def test_fewer_than_two_pairs_have_no_test(self):
        assert paired_t_test([1.0], [0.5]) is None
        assert paired_t_test([], []) is None

    def test_matches_scipy_on_random_data(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(0.1, 1.0, 15)
            b = rng.normal(0.0, 1.0, 15)
            mine = paired_t_test(a.tolist(), b.tolist())
            ref = scipy.stats.ttest_rel(a, b)
            assert mine.t == pytest.approx(float(ref.statistic), abs=1e-10)
            assert mine.p == pytest.approx(float(ref.pvalue), abs=1e-10)
