"""Tape engine: forward values against numpy, gradients against central
finite differences."""

import gc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgwcl import autodiff as ad
from conftest import check_grad, fd_gradient, rel_err


class TestForward:
    def test_arithmetic_matches_numpy(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3)) + 3.0
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        assert_allclose(ad.add(ta, tb).data, a + b)
        assert_allclose(ad.sub(ta, tb).data, a - b)
        assert_allclose(ad.mul(ta, tb).data, a * b)

    def test_broadcast_shapes(self, rng):
        a = rng.standard_normal((4, 3))
        col = rng.standard_normal((4, 1))
        row = rng.standard_normal((1, 3))
        s = rng.standard_normal((1, 1))
        assert_allclose(ad.add(ad.Tensor(a), ad.Tensor(col)).data, a + col)
        assert_allclose(ad.mul(ad.Tensor(a), ad.Tensor(row)).data, a * row)
        assert_allclose(ad.sub(ad.Tensor(a), ad.Tensor(s)).data, a - s)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            ad.add(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 2))))
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))

    def test_matmul_transpose(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        assert_allclose(ad.matmul(ad.Tensor(a), ad.Tensor(b)).data, a @ b)
        assert_allclose(ad.transpose(ad.Tensor(a)).data, a.T)

    def test_unary_matches_numpy(self, rng):
        a = rng.standard_normal((3, 4))
        assert_allclose(ad.exp(ad.Tensor(a)).data, np.exp(a))
        assert_allclose(ad.log(ad.Tensor(np.abs(a) + 0.5)).data, np.log(np.abs(a) + 0.5))
        assert_allclose(ad.abs_(ad.Tensor(a)).data, np.abs(a))
        assert_allclose(ad.sqrt(ad.Tensor(a * a)).data, np.abs(a))
        sig = 1.0 / (1.0 + np.exp(-a))
        assert_allclose(ad.sigmoid(ad.Tensor(a)).data, sig, rtol=1e-12)

    def test_sigmoid_stable_at_extremes(self):
        x = ad.Tensor([[-1000.0, -50.0, 0.0, 50.0, 1000.0]])
        out = ad.sigmoid(x).data
        assert np.isfinite(out).all()
        assert out[0, 0] == 0.0 or out[0, 0] < 1e-300
        assert out[0, 4] == 1.0

    def test_l2_normalize_unit_rows_and_zero_guard(self, rng):
        a = rng.standard_normal((4, 6))
        a[2] = 0.0
        out = ad.l2_normalize_rows(ad.Tensor(a)).data
        norms = np.linalg.norm(out, axis=1)
        assert_allclose(norms[[0, 1, 3]], 1.0, atol=1e-12)
        assert norms[2] == 0.0

    def test_reductions(self, rng):
        a = rng.standard_normal((3, 5))
        assert ad.sum_all(ad.Tensor(a)).item == pytest.approx(a.sum())
        assert ad.mean_all(ad.Tensor(a)).item == pytest.approx(a.mean())
        assert_allclose(ad.sum_rows(ad.Tensor(a)).data, a.sum(axis=1, keepdims=True))

    def test_gather_rows(self, rng):
        a = rng.standard_normal((6, 3))
        idx = [4, 0, 4, 2]
        assert_allclose(ad.gather_rows(ad.Tensor(a), idx).data, a[idx])
        with pytest.raises(IndexError):
            ad.gather_rows(ad.Tensor(a), [6])

    def test_scalar_item(self):
        assert ad.Tensor(3.5).item == 3.5
        with pytest.raises(ValueError):
            _ = ad.Tensor(np.zeros((2, 2))).item


class TestValidation:
    def test_nonfinite_result_raises(self):
        with pytest.raises(ArithmeticError, match="exp"):
            ad.exp(ad.Tensor([[1e4]]))
        with pytest.raises(ArithmeticError, match=r"exp: .* \(1, 2\) result"):
            ad.exp(ad.Tensor([[0.0, 800.0]]))

    def test_nonfinite_input_raises(self):
        with pytest.raises(ArithmeticError):
            ad.Tensor([[np.nan]])
        with pytest.raises(ArithmeticError):
            ad.Tensor([[np.inf]])

    def test_log_domain(self):
        with pytest.raises(ValueError):
            ad.log(ad.Tensor([[0.0]]))
        with pytest.raises(ValueError):
            ad.log(ad.Tensor([[-1.0]]))

    def test_sqrt_domain(self):
        with pytest.raises(ValueError):
            ad.sqrt(ad.Tensor([[-1e-9]]))

    def test_backward_requires_scalar(self):
        ad.reset_tape()
        t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        out = ad.mul(t, t)
        with pytest.raises(ValueError):
            ad.backward(out)


class TestGradients:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_binary_elementwise(self, op, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 3.0
        fn = getattr(ad, op)
        check_grad(lambda p: ad.sum_all(ad.mul(fn(p["a"], p["b"]),
                                               ad.exp(p["a"]))),
                   {"a": a, "b": b})

    @pytest.mark.parametrize("shape_b", [(3, 1), (1, 4), (1, 1)])
    def test_broadcast_gradients(self, shape_b, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(shape_b) + 2.0
        check_grad(lambda p: ad.sum_all(ad.add(ad.sub(ad.mul(p["a"], p["b"]),
                                                      p["b"]),
                                               ad.mul(p["a"], p["b"]))),
                   {"a": a, "b": b})

    def test_matmul_chain(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        c = rng.standard_normal((3, 2))
        check_grad(lambda p: ad.sum_all(ad.mul(ad.matmul(p["a"], p["b"]),
                                               p["c"])),
                   {"a": a, "b": b, "c": c})

    def test_transpose(self, rng):
        a = rng.standard_normal((3, 4))
        check_grad(lambda p: ad.sum_all(ad.matmul(ad.transpose(p["a"]),
                                                  p["a"])), {"a": a})

    @pytest.mark.parametrize("op", ["exp", "sigmoid", "abs_"])
    def test_unary(self, op, rng):
        a = rng.standard_normal((3, 4)) + 0.05  # keep abs away from the kink
        fn = getattr(ad, op)
        check_grad(lambda p: ad.sum_all(ad.mul(fn(p["a"]), p["a"])), {"a": a})

    def test_log_sqrt(self, rng):
        a = rng.random((3, 4)) + 0.5
        check_grad(lambda p: ad.sum_all(ad.add(ad.log(p["a"]),
                                               ad.sqrt(p["a"]))),
                   {"a": a})

    def test_sqrt_zero_subgradient(self):
        ad.reset_tape()
        t = ad.Tensor([[0.0, 4.0]], requires_grad=True)
        ad.backward(ad.sum_all(ad.sqrt(t)))
        assert_allclose(t.grad, [[0.0, 0.25]])

    def test_prelu(self, rng):
        a = rng.standard_normal((4, 5)) + 0.1
        s = np.array([[0.25]])
        check_grad(lambda p: ad.sum_all(ad.mul(ad.prelu(p["a"], p["s"]), p["a"])),
                   {"a": a, "s": s})

    def test_leaky_relu(self, rng):
        a = rng.standard_normal((4, 5)) + 0.05
        check_grad(lambda p: ad.sum_all(ad.mul(ad.leaky_relu(p["a"]), p["a"])),
                   {"a": a})

    def test_l2_normalize_rows(self, rng):
        a = rng.standard_normal((4, 5))
        w = rng.standard_normal((4, 5))
        check_grad(lambda p: ad.sum_all(ad.mul(ad.l2_normalize_rows(p["a"]),
                                               ad.constant(w))),
                   {"a": a})

    def test_l2_normalize_zero_row_no_gradient(self):
        ad.reset_tape()
        t = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        ad.backward(ad.sum_all(ad.l2_normalize_rows(t)))
        assert_allclose(t.grad, np.zeros((2, 3)))

    def test_gather_rows_accumulates_duplicates(self, rng):
        a = rng.standard_normal((5, 3))
        ad.reset_tape()
        t = ad.Tensor(a, requires_grad=True)
        ad.backward(ad.sum_all(ad.gather_rows(t, [1, 1, 1])))
        expect = np.zeros((5, 3))
        expect[1] = 3.0
        assert_allclose(t.grad, expect)

    @pytest.mark.parametrize("red", ["sum_all", "mean_all", "sum_rows"])
    def test_reductions(self, red, rng):
        a = rng.standard_normal((4, 4))
        fn = getattr(ad, red)
        check_grad(lambda p: ad.sum_all(ad.mul(fn(p["a"]), fn(p["a"]))),
                   {"a": a})

    def test_repeated_use_accumulates(self, rng):
        # same leaf feeding two branches; tape must sum both contributions
        a = rng.standard_normal((3, 3))
        check_grad(lambda p: ad.sum_all(ad.add(ad.mul(p["a"], p["a"]),
                                               ad.matmul(ad.exp(p["a"]),
                                                         p["a"]))),
                   {"a": a})

    def test_broadcast_reduction_grads_are_owned(self, rng):
        # reduction backward rules hand out read-only broadcast views; the
        # leaves must still own writeable gradients that keep accumulating
        ad.reset_tape()
        t = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        u = ad.Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        w1, w2 = rng.standard_normal((3, 1)), rng.standard_normal((3, 1))
        loss = ad.add(ad.add(ad.sum_all(ad.mul(ad.sum_rows(t), w1)),
                             ad.sum_all(ad.mul(ad.sum_rows(t), w2))),
                      ad.mean_all(u))
        ad.backward(loss)
        want_t = np.repeat(w1 + w2, 4, axis=1)
        assert_allclose(t.grad, want_t, rtol=1e-15)
        assert_allclose(u.grad, np.full((2, 5), 0.1), rtol=1e-15)
        assert t.grad.flags.writeable and u.grad.flags.writeable
        ad.backward(loss)
        assert_allclose(t.grad, 2.0 * want_t, rtol=1e-15)
        assert_allclose(u.grad, np.full((2, 5), 0.2), rtol=1e-15)

    def test_backward_twice_accumulates(self):
        ad.reset_tape()
        t = ad.Tensor([[2.0]], requires_grad=True)
        loss = ad.mul(t, t)
        ad.backward(loss)
        assert_allclose(t.grad, [[4.0]])
        ad.backward(loss)
        assert_allclose(t.grad, [[8.0]])
        t.zero_grad()
        assert t.grad is None

    def test_constant_branch_gets_no_gradient(self):
        ad.reset_tape()
        t = ad.Tensor([[1.0]], requires_grad=True)
        c = ad.Tensor([[5.0]])
        ad.backward(ad.mul(t, c))
        assert c.grad is None
        assert_allclose(t.grad, [[5.0]])

    def test_deep_chain(self, rng):
        a = rng.random((2, 2)) + 0.5
        def build(p):
            x = p["a"]
            for _ in range(30):
                x = ad.sigmoid(ad.mul(x, ad.constant(1.1)))
            return ad.sum_all(x)
        check_grad(build, {"a": a})


class TestDropout:
    def test_training_mask_scaling(self):
        rng = np.random.default_rng(7)
        a = ad.Tensor(np.ones((200, 50)))
        out = ad.dropout(a, 0.3, rng).data
        kept = out != 0.0
        assert_allclose(out[kept], 1.0 / 0.7)
        assert abs(kept.mean() - 0.7) < 0.02

    def test_zero_rate_is_identity(self, rng):
        a = ad.Tensor(np.ones((3, 3)))
        assert ad.dropout(a, 0.0, rng) is a

    def test_rate_bounds(self, rng):
        with pytest.raises(ValueError):
            ad.dropout(ad.Tensor([[1.0]]), 1.0, rng)

    def test_gradient_uses_mask(self):
        rng = np.random.default_rng(3)
        ad.reset_tape()
        t = ad.Tensor(np.ones((10, 10)), requires_grad=True)
        out = ad.dropout(t, 0.4, rng)
        ad.backward(ad.sum_all(out))
        # gradient equals the mask: zero where dropped, 1/keep elsewhere
        assert_allclose(t.grad, out.data)


class TestTapeMechanics:
    def test_reset_tape_clears_ops(self, rng):
        ad.reset_tape()
        t = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        ad.sum_all(ad.mul(t, t))
        assert len(ad.active_tape()) == 2
        ad.reset_tape()
        assert len(ad.active_tape()) == 0

    def test_reset_frees_finished_tape_without_cycle_collector(self, rng):
        gc.disable()
        try:
            tape = ad.reset_tape()
            t = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            loss = ad.sum_all(ad.exp(ad.mul(t, t)))
            ad.backward(loss)
            finished = weakref.ref(tape)
            del tape
            ad.reset_tape()
            assert finished() is None
        finally:
            gc.enable()

    def test_backward_after_reset_is_an_error(self):
        ad.reset_tape()
        t = ad.Tensor([[2.0]], requires_grad=True)
        loss = ad.mul(t, t)
        ad.reset_tape()
        with pytest.raises(RuntimeError, match="released"):
            ad.backward(loss)

    def test_no_flow_not_recorded(self, rng):
        ad.reset_tape()
        a = ad.Tensor(rng.standard_normal((2, 2)))
        b = ad.Tensor(rng.standard_normal((2, 2)))
        ad.mul(a, b)
        assert len(ad.active_tape()) == 0

    def test_fd_oracle_sanity(self):
        # the checker itself: d/dx sum(x^2) = 2x
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        g = fd_gradient(lambda v: float((v * v).sum()), x)
        assert rel_err(g, 2 * x) < 1e-9
