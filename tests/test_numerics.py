"""Class-major reductions and softmax, bit for bit against numpy and the (N, C) formulas."""

import numpy as np
import pytest

from dts_ssl.numerics import PROB_CLAMP, class_max, class_sum, softmax, softmax_vjp

WIDTHS = range(1, 12)


def wide_range_rows(width, seed=0, n=3000):
    """Rows spanning 16 decades with mixed signs, so any change of summation order shows."""
    rng = np.random.default_rng(seed + 100 * width)
    return rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))


def class_major(x):
    """The C-contiguous (C, N) layout of an (N, C) block."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def loop_sum(x):
    """Left-to-right sum onto 0.0, one column at a time (the oracle for class_sum)."""
    acc = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        acc = acc + x[..., j]
    return acc


# The (N, C) formulas the class-major helpers replace, as they were written.


def old_row_max(x):
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out


def old_row_sum(x):
    out = x[..., 0] + 0.0
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


def old_softmax(z):
    e = z - old_row_max(z)[..., None]
    np.exp(e, out=e)
    e /= old_row_sum(e)[..., None]
    return e


def old_softmax_vjp(probs, d_probs):
    return probs * (d_probs - old_row_sum(d_probs * probs)[..., None])


def reduction_softmax(z):
    """The softmax formula with numpy's own max/sum reductions."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def special_rows(x, width, seed):
    """NaN, +-inf and -0 entries and whole rows, in place."""
    rng = np.random.default_rng(seed)
    x[::13, rng.integers(0, width)] = np.nan
    x[::17, -1] = np.inf
    x[::19, 0] = -np.inf
    x[::23] = -np.inf
    x[::29] = np.nan
    x[5::31, :] = np.inf
    x[7::37, :] = -0.0
    return x


def logit_rows(width, n=4000):
    """Logits at three scales, rows that underflow to exact zeros, rows whose smallest
    probability sits at the clamp floor, exact ties, and special values."""
    rng = np.random.default_rng(width)
    z = rng.normal(scale=rng.choice([0.1, 3.0, 40.0], size=(n, 1)), size=(n, width))
    z[::7, 0] += 800.0  # rows that underflow to exact zeros elsewhere
    z[3::11] = 0.0
    z[3::11, 0] = np.log(1.0 / PROB_CLAMP)  # the other columns at about the clamp floor
    z[::9] = 0.0  # exact ties
    return special_rows(z, width, width + 50)


class TestClassMax:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_bit_equal_to_numpy_max(self, width):
        x = special_rows(wide_range_rows(width), width, width)
        expected = x.max(axis=-1).tobytes()
        assert class_max(class_major(x)).tobytes() == expected
        assert class_max(x.T).tobytes() == expected  # a strided view: the logits block's .T
        assert old_row_max(x).tobytes() == expected

    def test_leaves_input_untouched_and_keeps_trailing_axes(self):
        x = class_major(wide_range_rows(5).reshape(30, 100, 5))
        before = x.copy()
        assert class_max(x).tobytes() == x.max(axis=0).tobytes()
        assert x.tobytes() == before.tobytes()


class TestClassSum:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_bit_equal_to_left_to_right_loop(self, width):
        x = wide_range_rows(width)
        x[::11] = -0.0
        expected = loop_sum(x).tobytes()
        assert class_sum(class_major(x)).tobytes() == expected
        assert class_sum(class_major(x[:1])).tobytes() == loop_sum(x[:1]).tobytes()  # one sample
        assert old_row_sum(x).tobytes() == expected

    @pytest.mark.parametrize("width", range(1, 8))
    def test_bit_equal_to_numpy_sum_up_to_width_seven(self, width):
        x = wide_range_rows(width, seed=1)
        x[::11] = -0.0
        x[::13, 0] = -0.0
        assert class_sum(class_major(x)).tobytes() == x.sum(axis=-1).tobytes()

    def test_leaves_input_untouched(self):
        x = class_major(wide_range_rows(5))
        before = x.copy()
        class_sum(x)
        assert x.tobytes() == before.tobytes()


class TestSoftmax:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_bit_equal_to_sample_major_formula(self, width):
        z = logit_rows(width)
        with np.errstate(invalid="ignore"):
            expected = class_major(old_softmax(z)).tobytes()
            assert softmax(z.T).tobytes() == expected
            assert softmax(class_major(z)).tobytes() == expected

    @pytest.mark.parametrize("width", range(2, 8))
    def test_bit_equal_to_reduction_formula(self, width):
        rng = np.random.default_rng(width)
        z = rng.normal(scale=rng.choice([0.1, 3.0, 40.0], size=(4000, 1)), size=(4000, width))
        z[::7, 0] += 800.0  # rows that underflow to exact zeros elsewhere
        z[::9] = 0.0  # exact ties
        assert softmax(z.T).tobytes() == class_major(reduction_softmax(z)).tobytes()

    def test_one_sample_and_trailing_axes(self):
        z = np.random.default_rng(0).normal(size=(3, 4, 5))
        assert softmax(class_major(z)).tobytes() == class_major(reduction_softmax(z)).tobytes()
        assert softmax(z[0, 0]).tobytes() == reduction_softmax(z[0, 0]).tobytes()

    def test_leaves_input_untouched(self):
        # every loss term on a block reads the one softmax, so softmax must never write
        # into the logits it is given
        z = np.random.default_rng(1).normal(scale=5.0, size=(500, 5))
        before = z.copy()
        p = softmax(z.T)
        assert z.tobytes() == before.tobytes()
        assert not np.shares_memory(p, z)
        assert p.shape == (5, 500) and p.flags.c_contiguous

    @pytest.mark.parametrize("width", WIDTHS)
    def test_vjp_bit_equal_to_sample_major_formula(self, width):
        rng = np.random.default_rng(width)
        p = old_softmax(rng.normal(scale=4.0, size=(2000, width)))
        p[::5] = 0.0
        p[::5, 0] = 1.0  # one-hot rows, zeros below the clamp floor
        dp = special_rows(rng.normal(size=(2000, width)) * 10.0 ** rng.integers(-6, 6, (2000, width)),
                          width, width)
        with np.errstate(invalid="ignore"):
            expected = class_major(old_softmax_vjp(p, dp)).tobytes()
            assert softmax_vjp(class_major(p), class_major(dp)).tobytes() == expected

    @pytest.mark.parametrize("width", range(2, 8))
    def test_vjp_bit_equal_to_reduction_formula(self, width):
        rng = np.random.default_rng(width)
        p = softmax(rng.normal(scale=4.0, size=(2000, width)).T)
        dp = class_major(rng.normal(size=(2000, width)) * 10.0 ** rng.integers(-6, 6, (2000, width)))
        expected = p * (dp - (dp * p).sum(axis=0, keepdims=True))
        assert softmax_vjp(p, dp).tobytes() == expected.tobytes()
