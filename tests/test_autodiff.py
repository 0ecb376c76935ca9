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

    def test_nonfinite_gradient_raises_and_writes_no_grad(self):
        # log's forward at a subnormal input is finite (-736.8), but its
        # gradient 1/x overflows; backward writes no grad at all, not even
        # the other leaf's finite one
        ad.reset_tape()
        x = ad.Tensor([[1e-320]], requires_grad=True)
        y = ad.Tensor([[2.0]], requires_grad=True)
        loss = ad.add(ad.log(x), ad.mul(y, y))
        assert np.isfinite(loss.item)
        with np.errstate(divide="ignore", over="ignore"):
            with pytest.raises(ArithmeticError,
                               match=r"non-finite gradient for a \(1, 1\) "
                                     r"leaf"):
                ad.backward(loss)
        assert x.grad is None
        assert y.grad is None

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
        # 0.25 takes the maximum of d and s d, 1.5 and -0.5 the lookup
        # select
        for s in (0.25, 1.5, -0.5):
            check_grad(lambda p: ad.sum_all(ad.mul(ad.prelu(p["a"], p["s"]),
                                                   p["a"])),
                       {"a": a, "s": np.array([[s]])})

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

        def loss():
            return ad.add(ad.add(ad.sum_all(ad.mul(ad.sum_rows(t), w1)),
                                 ad.sum_all(ad.mul(ad.sum_rows(t), w2))),
                          ad.mean_all(u))

        ad.backward(loss())
        want_t = np.repeat(w1 + w2, 4, axis=1)
        assert_allclose(t.grad, want_t, rtol=1e-15)
        assert_allclose(u.grad, np.full((2, 5), 0.1), rtol=1e-15)
        assert t.grad.flags.writeable and u.grad.flags.writeable
        ad.backward(loss())
        assert_allclose(t.grad, 2.0 * want_t, rtol=1e-15)
        assert_allclose(u.grad, np.full((2, 5), 0.2), rtol=1e-15)

    def test_backward_twice_accumulates(self):
        ad.reset_tape()
        t = ad.Tensor([[2.0]], requires_grad=True)
        ad.backward(ad.mul(t, t))
        assert_allclose(t.grad, [[4.0]])
        ad.backward(ad.mul(t, t))
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


def same_bits(got, want):
    """Equal in every bit, so -0.0 differs from 0.0."""
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


def with_zeros(rng, shape):
    """Normal entries, about a tenth of them 0.0 and a tenth -0.0."""
    d = rng.standard_normal(shape)
    u = rng.random(shape)
    d[u < 0.1] = 0.0
    d[u > 0.9] = -0.0
    return d


def last_op_rules(out, g):
    """The output and the gradients of the tape's last op for upstream g."""
    return out.data, ad.active_tape().ops[-1].backward_rule(g)


class TestBranchFreeSelects:
    """The select-free rules against the np.where formulation they replace."""

    @pytest.mark.parametrize("slope", [-0.5, 0.0, 0.25, 1.0, 1.5])
    def test_prelu_matches_where_bit_for_bit(self, slope, rng):
        d = with_zeros(rng, (67, 33))
        g = with_zeros(rng, d.shape)
        ad.reset_tape()
        out, (gx, gs) = last_op_rules(
            ad.prelu(ad.Tensor(d, requires_grad=True),
                     ad.Tensor([[slope]], requires_grad=True)), g)
        pos = d > 0
        assert same_bits(out, np.where(pos, d, slope * d))
        assert same_bits(gx, np.where(pos, g, slope * g))
        assert same_bits(gs, np.sum(g * np.where(pos, 0.0, d)).reshape(1, 1))

    def test_prelu_keeps_no_mask(self, rng):
        ad.reset_tape()
        d = rng.standard_normal((5, 4))
        ad.prelu(ad.Tensor(d, requires_grad=True),
                 ad.Tensor([[0.25]], requires_grad=True))
        rule = ad.active_tape().ops[-1].backward_rule
        kept = [c.cell_contents for c in rule.__closure__]
        assert not any(isinstance(v, np.ndarray) and v.dtype == bool
                       for v in kept)

    @pytest.mark.parametrize("slope", [
        5e-324, 1e-3, 0.2, 0.25, 1.0,  # the factor max(pos, s)
        -0.5, 0.0, 1.5, 2.0])  # the factor looked up by the mask
    @pytest.mark.parametrize("own_sign", [True, False])
    def test_slope_select_matches_where_bit_for_bit(self, slope, own_sign,
                                                    rng):
        x = with_zeros(rng, (67, 33))
        pos = (x if own_sign else with_zeros(rng, x.shape)) > 0
        assert same_bits(ad.slope_select(pos, x, slope),
                         np.where(pos, x, slope * x))

    @pytest.mark.parametrize("draws", [False, True])
    def test_sigmoid_matches_two_form_reference_bit_for_bit(self, draws,
                                                            rng):
        if draws:
            d = 30.0 * rng.standard_normal((100, 1000))
        else:
            edges = [0.0, 1e-300, 40.0, 745.2, 746.0, 800.0]
            d = np.array([[v for e in edges for v in (e, -e)]])
        want = np.empty_like(d)
        pos = d >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
        ez = np.exp(d[~pos])
        want[~pos] = ez / (1.0 + ez)
        assert same_bits(ad.sigmoid(ad.Tensor(d)).data, want)

    @pytest.mark.parametrize("tiny_row", [False, True])
    def test_l2_normalize_rows_matches_where_bit_for_bit(self, tiny_row,
                                                         rng):
        d = rng.standard_normal((6, 5))
        if tiny_row:  # nonzero, but below NORM_EPS: maps to 0, no gradient
            d[3] = 1e-14
        g = rng.standard_normal(d.shape)
        ad.reset_tape()
        out, (gin,) = last_op_rules(
            ad.l2_normalize_rows(ad.Tensor(d, requires_grad=True)), g)
        norms = np.sqrt((d * d).sum(axis=1, keepdims=True))
        ok = norms >= ad.NORM_EPS
        safe = np.where(ok, norms, 1.0)
        dot = (g * d).sum(axis=1, keepdims=True)
        assert same_bits(out, np.where(ok, d / safe, 0.0))
        assert same_bits(gin, np.where(
            ok, g / safe - d * (dot / (safe ** 3)), 0.0))
        assert (out[3] == 0.0).all() == tiny_row
        assert (gin[3] == 0.0).all() == tiny_row


def reference_dropout(a, rate, rng):
    """Inverted dropout as the separate op the dense op replaced."""
    if rate == 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return ad.mul(a, ad.constant(mask))


def unfused_dense_reference(xs, ws, bias, rate, rng):
    """dropout -> matmul -> add, one op each, with the terms and the bias
    summed in adjacent pairs: psi's (A + B) + (C + b) order."""
    terms = [ad.matmul(reference_dropout(x, rate, rng), w)
             for x, w in zip(xs, ws)]
    if bias is not None:
        terms.append(bias)
    while len(terms) > 1:
        terms = [ad.add(*terms[i:i + 2]) if i + 1 < len(terms) else terms[i]
                 for i in range(0, len(terms), 2)]
    return terms[0]


def dense_case(rng, inputs, with_bias, constant_input):
    """Operands of a dense layer with inputs of widths 4, 1, 3 (a score
    column among them) onto 5 outputs; with constant_input, the last
    input is a constant and not among the returned params."""
    widths = (4, 1, 3)[:inputs]
    params = {f"x{k}": rng.standard_normal((6, w))
              for k, w in enumerate(widths)}
    params.update({f"w{k}": rng.standard_normal((w, 5))
                   for k, w in enumerate(widths)})
    if with_bias:
        params["b"] = rng.standard_normal((1, 5))
    const = (ad.constant(params.pop(f"x{inputs - 1}")) if constant_input
             else None)

    def operands(p):
        return ([p.get(f"x{k}", const) for k in range(inputs)],
                [p[f"w{k}"] for k in range(inputs)], p.get("b"))

    return params, operands


class TestDense:
    @pytest.mark.parametrize("constant_input", [False, True])
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("inputs", [1, 3])
    def test_matches_unfused_reference(self, rng, inputs, with_bias, rate,
                                       constant_input):
        params, operands = dense_case(rng, inputs, with_bias, constant_input)
        target = ad.constant(rng.standard_normal((6, 5)))
        results = []
        for layer in (ad.dense, unfused_dense_reference):
            ad.reset_tape()
            leaves = {k: ad.Tensor(v, requires_grad=True)
                      for k, v in params.items()}
            out = layer(*operands(leaves), rate, np.random.default_rng(9))
            ad.backward(ad.sum_all(ad.mul(out, target)))
            results.append((out.data, {k: t.grad for k, t in leaves.items()}))
        (fused, fused_grads), (chain, chain_grads) = results
        np.testing.assert_array_equal(fused, chain)
        for k, g in chain_grads.items():
            scale = max(np.abs(g).max(), 1e-300)
            assert rel_err(fused_grads[k], g, floor=scale) < 1e-12

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_gradient(self, rng, rate):
        params, operands = dense_case(rng, 3, True, False)
        target = ad.constant(rng.standard_normal((6, 5)))
        check_grad(lambda p: ad.sum_all(ad.mul(
            ad.dense(*operands(p), rate, np.random.default_rng(4)), target)),
            params)

    def test_constant_input_gets_no_product(self, rng):
        ad.reset_tape()
        x = ad.constant(rng.standard_normal((4, 3)))
        w = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        out = ad.dense((x,), (w,), rate=0.5, rng=rng)
        op = ad.active_tape().ops[-1]
        grads = op.backward_rule(np.ones(out.shape))
        assert grads[0] is None and grads[1].shape == (3, 2)

    def test_mismatched_operands_rejected(self, rng):
        x = ad.Tensor(rng.standard_normal((4, 3)))
        with pytest.raises(ValueError, match="dense"):
            ad.dense((x,), (ad.Tensor(np.ones((2, 2))),))
        with pytest.raises(ValueError, match="dense"):
            ad.dense((x,), (ad.Tensor(np.ones((3, 2))),),
                     ad.Tensor(np.ones((1, 3))))
        with pytest.raises(ValueError, match="dense"):
            ad.dense((x, x), (ad.Tensor(np.ones((3, 2))),))


class TestDropout:
    """Dropout inside the dense op, seen through an identity weight."""

    def test_training_mask_scaling(self):
        rng = np.random.default_rng(7)
        a = ad.Tensor(np.ones((200, 50)))
        out = ad.dense((a,), (ad.constant(np.eye(50)),), rate=0.3,
                       rng=rng).data
        kept = out != 0.0
        assert_allclose(out[kept], 1.0 / 0.7)
        assert abs(kept.mean() - 0.7) < 0.02

    def test_zero_rate_is_identity(self, rng):
        a = ad.Tensor(np.ones((3, 3)))
        out = ad.dense((a,), (ad.constant(np.eye(3)),), rate=0.0, rng=rng)
        np.testing.assert_array_equal(out.data, a.data)
        # nothing was drawn: the rng's next number is its first
        assert rng.random() == np.random.default_rng(0).random()

    def test_rate_bounds(self, rng):
        for rate in (1.0, 1.5):
            with pytest.raises(ValueError):
                ad.dense((ad.Tensor([[1.0]]),), (ad.constant([[1.0]]),),
                         rate=rate, rng=rng)

    def test_gradient_uses_mask(self):
        rng = np.random.default_rng(3)
        ad.reset_tape()
        t = ad.Tensor(np.ones((10, 10)), requires_grad=True)
        out = ad.dense((t,), (ad.constant(np.eye(10)),), rate=0.4, rng=rng)
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



class TestRelease:
    """backward consumes the tape as it goes."""

    def test_tape_is_empty_after_backward(self, rng):
        # a shared leaf, a dense op with dropout, gather_rows over
        # duplicate indices, and info_nce with and without counts
        ad.reset_tape()
        x = ad.Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        h = ad.dense([x], [w], b, rate=0.3, rng=np.random.default_rng(1))
        z = ad.l2_normalize_rows(ad.gather_rows(h, [2, 0, 2, 5, 2]))
        zh = ad.l2_normalize_rows(ad.gather_rows(ad.exp(h), [1, 4, 4, 0, 3]))
        loss = ad.add(ad.add(ad.info_nce(z, zh, 0.5),
                             ad.info_nce(z, zh, 0.7, [1, 2, 1, 3, 1])),
                      ad.sum_all(ad.mul(x, x)))
        assert len(ad.active_tape()) > 0
        ad.backward(loss)
        assert len(ad.active_tape()) == 0
        assert all(t.grad is not None for t in (x, w, b))

    def test_intermediates_freed_by_backward(self, rng):
        gc.disable()
        try:
            ad.reset_tape()
            t = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            mid = ad.exp(ad.mul(t, t))
            mid_data = weakref.ref(mid.data)
            loss = ad.sum_all(mid)
            del mid
            assert mid_data() is not None
            ad.backward(loss)
            assert mid_data() is None
            assert loss.item > 0.0
        finally:
            gc.enable()

    def test_consumed_tape_cannot_run_again(self, rng):
        # a second pass from the loss, or from a 1x1 output it consumed,
        # raises instead of returning with no gradient written
        ad.reset_tape()
        t = ad.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        inner = ad.sum_all(ad.exp(t))
        loss = ad.mul(inner, inner)
        ad.backward(loss)
        first = t.grad.copy()
        for again in (loss, inner):
            with pytest.raises(RuntimeError, match="consumed"):
                ad.backward(again)
        assert same_bits(t.grad, first)
