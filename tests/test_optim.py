"""Adam update rule properties."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgwcl import autodiff as ad
from fgwcl.optim import AdamState, adam_step, zero_grads


def make_param(data):
    return ad.Tensor(data, requires_grad=True)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        w = make_param(np.zeros((3, 4)))
        w.grad = np.ones((3, 4))
        state = AdamState({"w": w}, lr=0.01)
        adam_step({"w": w}, state)
        # bias-corrected m_hat/sqrt(v_hat) = 1 on the first step
        assert_allclose(w.data, -0.01, rtol=1e-6)
        assert state.step_count == 1

    def test_zero_gradient_leaves_params_unchanged(self):
        w = make_param(np.full((2, 2), 3.0))
        w.grad = np.zeros((2, 2))
        state = AdamState({"w": w}, lr=0.1)
        adam_step({"w": w}, state)
        assert_allclose(w.data, 3.0)

    def test_missing_grad_names_parameter(self):
        w = make_param(np.zeros((2, 2)))
        state = AdamState({"encoder_w1": w}, lr=0.1)
        with pytest.raises(ValueError, match="encoder_w1"):
            adam_step({"encoder_w1": w}, state)

    def test_quadratic_descends(self):
        w = make_param([[1.0]])
        state = AdamState({"w": w}, lr=0.1)
        values = []
        for _ in range(2):
            ad.reset_tape()
            loss = ad.mul(w, w)
            values.append(loss.item)
            zero_grads({"w": w})
            ad.backward(loss)
            adam_step({"w": w}, state)
        ad.reset_tape()
        values.append(ad.mul(w, w).item)
        assert values[1] < values[0]
        assert values[2] < values[1]

    def test_quadratic_converges(self):
        w = make_param([[5.0, -3.0]])
        state = AdamState({"w": w}, lr=0.2)
        for _ in range(300):
            ad.reset_tape()
            loss = ad.sum_all(ad.mul(w, w))
            zero_grads({"w": w})
            ad.backward(loss)
            adam_step({"w": w}, state)
        assert np.abs(w.data).max() < 1e-2

    def test_moments_match_param_shapes(self):
        params = {"a": make_param(np.zeros((3, 5))), "b": make_param(np.zeros((1, 1)))}
        state = AdamState(params, lr=0.01)
        assert state.m["a"].shape == (3, 5)
        assert state.v["b"].shape == (1, 1)

    def test_step_counter_strictly_increases(self):
        w = make_param([[0.0]])
        state = AdamState({"w": w}, lr=0.01)
        for expected in (1, 2, 3):
            w.grad = np.ones((1, 1))
            adam_step({"w": w}, state)
            assert state.step_count == expected

    def test_grads_untouched_by_step(self):
        w = make_param([[1.0]])
        w.grad = np.array([[2.0]])
        state = AdamState({"w": w}, lr=0.01)
        adam_step({"w": w}, state)
        assert_allclose(w.grad, [[2.0]])

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            AdamState({"w": make_param([[0.0]])}, lr=0.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="positive and finite"):
            AdamState({"w": make_param([[0.0]])}, lr=lr)
