"""Column-by-column class-axis reductions and softmax, bit for bit against numpy."""

import numpy as np
import pytest

from dts_ssl.numerics import row_max, row_sum, softmax, softmax_vjp

WIDTHS = range(1, 12)


def wide_range_rows(width, seed=0, n=3000):
    """Rows spanning 16 decades with mixed signs, so any change of summation order shows."""
    rng = np.random.default_rng(seed + 100 * width)
    return rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))


def loop_sum(x):
    """Left-to-right sum onto 0.0, one column at a time (the oracle for row_sum)."""
    acc = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        acc = acc + x[..., j]
    return acc


def reduction_softmax(z):
    """The softmax formula with numpy's own max/sum reductions."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TestRowMax:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_bit_equal_to_numpy_max(self, width):
        x = wide_range_rows(width)
        rng = np.random.default_rng(width)
        x[::13, rng.integers(0, width)] = np.nan
        x[::17, -1] = np.inf
        x[::19, 0] = -np.inf
        x[::23] = -np.inf
        x[::29] = np.nan
        x[5::31, :] = np.inf
        x[7::37, :] = -0.0
        assert row_max(x).tobytes() == x.max(axis=-1).tobytes()

    def test_leaves_input_untouched_and_keeps_leading_axes(self):
        x = wide_range_rows(5).reshape(30, 100, 5)
        before = x.copy()
        assert row_max(x).tobytes() == x.max(axis=-1).tobytes()
        assert x.tobytes() == before.tobytes()


class TestRowSum:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_bit_equal_to_left_to_right_loop(self, width):
        x = wide_range_rows(width)
        x[::11] = -0.0
        assert row_sum(x).tobytes() == loop_sum(x).tobytes()

    @pytest.mark.parametrize("width", range(1, 8))
    def test_bit_equal_to_numpy_sum_up_to_width_seven(self, width):
        x = wide_range_rows(width, seed=1)
        x[::11] = -0.0
        x[::13, 0] = -0.0
        assert row_sum(x).tobytes() == x.sum(axis=-1).tobytes()

    def test_leaves_input_untouched(self):
        x = wide_range_rows(5)
        before = x.copy()
        row_sum(x)
        assert x.tobytes() == before.tobytes()


class TestSoftmax:
    @pytest.mark.parametrize("width", range(2, 8))
    def test_bit_equal_to_reduction_formula(self, width):
        rng = np.random.default_rng(width)
        z = rng.normal(scale=rng.choice([0.1, 3.0, 40.0], size=(4000, 1)), size=(4000, width))
        z[::7, 0] += 800.0  # rows that underflow to exact zeros elsewhere
        z[::9] = 0.0  # exact ties
        assert softmax(z).tobytes() == reduction_softmax(z).tobytes()

    def test_one_row_and_leading_axes(self):
        z = np.random.default_rng(0).normal(size=(3, 4, 5))
        assert softmax(z).tobytes() == reduction_softmax(z).tobytes()
        assert softmax(z[0, 0]).tobytes() == reduction_softmax(z[0, 0]).tobytes()

    def test_leaves_input_untouched(self):
        # several losses softmax the same logits, so softmax must never write into them
        z = np.random.default_rng(1).normal(scale=5.0, size=(500, 5))
        before = z.copy()
        p = softmax(z)
        assert z.tobytes() == before.tobytes()
        assert not np.shares_memory(p, z)

    @pytest.mark.parametrize("width", range(2, 8))
    def test_vjp_bit_equal_to_reduction_formula(self, width):
        rng = np.random.default_rng(width)
        p = softmax(rng.normal(scale=4.0, size=(2000, width)))
        dp = rng.normal(size=(2000, width)) * 10.0 ** rng.integers(-6, 6, (2000, width))
        expected = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        assert softmax_vjp(p, dp).tobytes() == expected.tobytes()
