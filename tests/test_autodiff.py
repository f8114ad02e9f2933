"""Reverse-mode autodiff engine tests.

Every primitive is checked against central finite differences through a
non-degenerate scalar loss (a fixed random weighting, so nothing cancels
to an identically-zero gradient), plus closed-form cases where the exact
gradient is known.
"""

import tracemalloc

import numpy as np
import pytest

from gridpose import (
    Adam,
    NotDifferentiablePathError,
    Tensor,
    concat,
    finite_diff_check,
    init_model_from_config,
    model_forward,
    reorder_bins,
    sgd_step,
    sinkhorn_normalize,
    zero_grads,
)
from gridpose.autodiff import no_grad, split
from conftest import toy_run_config

TIGHT = 1e-7  # 64-bit central differences on smooth ops


def weighted(out, w):
    """Scalar loss sum(out * w) with a constant weighting array."""
    return (out * Tensor(w)).sum()


class TestPrimitiveGradients:
    """Each op's backward vs finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def check(self, f, leaves, tol=TIGHT):
        err = finite_diff_check(f, leaves, eps=1e-5, rng=np.random.default_rng(0))
        assert err <= tol, f"gradient mismatch: rel err {err:.3e}"

    def test_add_broadcast(self):
        x = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        y = Tensor(self.rng.normal(size=(4,)), requires_grad=True)
        w = self.rng.normal(size=(3, 4))
        self.check(lambda: weighted(x + y, w), {"x": x, "y": y})

    def test_sub_and_neg(self):
        x = Tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        y = Tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        w = self.rng.normal(size=(2, 3))
        self.check(lambda: weighted(x - y, w) + weighted(-x, 2.0 * w), {"x": x, "y": y})

    def test_mul_broadcast(self):
        x = Tensor(self.rng.normal(size=(3, 1)), requires_grad=True)
        y = Tensor(self.rng.normal(size=(1, 4)), requires_grad=True)
        w = self.rng.normal(size=(3, 4))
        self.check(lambda: weighted(x * y, w), {"x": x, "y": y})

    def test_pow(self):
        x = Tensor(self.rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        w = self.rng.normal(size=(5,))
        self.check(lambda: weighted(x ** 3, w) + weighted(x ** -0.5, w), {"x": x})

    def test_matmul(self):
        a = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 2)), requires_grad=True)
        w = self.rng.normal(size=(3, 2))
        self.check(lambda: weighted(a @ b, w), {"a": a, "b": b})

    def test_matmul_batched(self):
        a = Tensor(self.rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(2, 4, 5)), requires_grad=True)
        w = self.rng.normal(size=(2, 3, 5))
        self.check(lambda: weighted(a @ b, w), {"a": a, "b": b})

    def test_reshape_transpose(self):
        x = Tensor(self.rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = self.rng.normal(size=(4, 6))
        self.check(
            lambda: weighted(x.transpose((2, 0, 1)).reshape(4, 6), w), {"x": x}
        )

    def test_sum_mean_axes(self):
        x = Tensor(self.rng.normal(size=(3, 4, 5)), requires_grad=True)
        w1 = self.rng.normal(size=(3, 5))
        w2 = self.rng.normal(size=(4,))
        self.check(
            lambda: weighted(x.sum(axis=1), w1) + weighted(x.mean(axis=(0, 2)), w2),
            {"x": x},
        )

    def test_relu_away_from_kinks(self):
        # probe only where |x| > 1e-3 so central differences stay one-sided
        data = self.rng.normal(size=(4, 4))
        data[np.abs(data) < 1e-3] = 0.5
        x = Tensor(data, requires_grad=True)
        w = self.rng.normal(size=(4, 4))
        err = finite_diff_check(lambda: weighted(x.relu(), w), {"x": x}, eps=1e-5)
        assert err <= 1e-6

    def test_exp_abs(self):
        x = Tensor(self.rng.uniform(0.5, 2.0, size=(6,)), requires_grad=True)
        y = Tensor(self.rng.choice([-1.5, 1.5], size=(6,)) + self.rng.normal(size=6) * 0.1,
                   requires_grad=True)
        w = self.rng.normal(size=(6,))
        self.check(
            lambda: weighted(x.exp(), w) + weighted(y.abs(), w),
            {"x": x, "y": y},
        )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_log_softmax(self, axis):
        x = Tensor(self.rng.normal(size=(3, 5)), requires_grad=True)
        w = self.rng.normal(size=(3, 5))
        self.check(lambda: weighted(x.log_softmax(axis=axis), w), {"x": x})
        out = x.log_softmax(axis=axis)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=axis), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_log_softmax_large_values_stable(self, axis):
        x = Tensor(np.array([[1000.0, 1000.0], [-1000.0, 1000.0]]), requires_grad=True)
        out = x.log_softmax(axis=axis)
        assert np.all(np.isfinite(out.data))
        # x - (log-sum-exp) at |x| = 1000 rounds to an ulp of 1000, ~1.1e-13
        np.testing.assert_allclose(np.exp(out.data).sum(axis=axis), 1.0, rtol=1e-12)
        weighted(out, np.array([[1.0, -2.0], [0.5, 3.0]])).backward()
        assert np.all(np.isfinite(x.grad))
        # each slice's gradient sums to 0: shifting a slice moves no output
        np.testing.assert_allclose(x.grad.sum(axis=axis), 0.0, atol=1e-12)

    def test_softmax(self):
        x = Tensor(self.rng.normal(size=(4, 6)), requires_grad=True)
        w = self.rng.normal(size=(4, 6))
        self.check(lambda: weighted(x.softmax(axis=-1), w), {"x": x})

    def test_concat(self):
        a = Tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        w = self.rng.normal(size=(6, 3))
        self.check(lambda: weighted(concat([a, b], axis=0), w), {"a": a, "b": b})

    @pytest.mark.parametrize("axis, sizes", [(0, (1, 3)), (1, (2, 1, 2)), (2, (3,))])
    def test_split(self, axis, sizes):
        x = Tensor(self.rng.normal(size=(4, 5, 3)), requires_grad=True)
        ws = [self.rng.normal(size=p.shape) for p in split(x, sizes, axis=axis)]

        def loss():
            pieces = split(x, sizes, axis=axis)
            # the first piece feeds the loss twice; the last one, when there
            # are several, not at all (its slice of the gradient stays 0)
            total = weighted(pieces[0], ws[0]) + weighted(pieces[0] * pieces[0], ws[0])
            for piece, w in zip(pieces[1:-1], ws[1:-1]):
                total = total + weighted(piece, w)
            return total

        self.check(loss, {"x": x})
        if len(sizes) > 1:
            last = (slice(None),) * axis + (slice(x.shape[axis] - sizes[-1], None),)
            assert np.all(x.grad[last] == 0.0)

    @pytest.mark.parametrize("layout", ["C", "F", "channels-last", "reversed"])
    def test_split_gradient_is_laid_out_like_the_value(self, layout):
        # the zero gradient that split's pieces accumulate into takes the
        # value's stride order, as np.zeros_like(value) does
        value = self.rng.normal(size=(3, 4, 5, 6))
        value = {"C": value, "F": np.asfortranarray(value),
                 "channels-last": np.ascontiguousarray(value.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
                 "reversed": value[::-1, :, ::-1]}[layout]
        x = Tensor(value, requires_grad=True)
        pieces = split(x, (1, 2), axis=0)
        sum(weighted(p, np.ones(p.shape)) for p in pieces).backward()
        assert x.grad.strides == np.zeros_like(value).strides
        assert np.array_equal(x.grad, np.ones(value.shape))

    def test_split_pieces_view_input(self):
        x = np.arange(24.0).reshape(4, 6)
        a, b = split(x, (2, 4), axis=1)
        assert np.array_equal(concat([a, b], axis=1).data, x)
        assert np.shares_memory(a.data, x) and np.shares_memory(b.data, x)
        with pytest.raises(ValueError):
            split(x, (2, 3), axis=1)


class TestClosedFormGradients:
    def test_quadratic_gradient_is_2w(self):
        w = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
        (w * w).sum().backward()
        np.testing.assert_allclose(w.grad, 2.0 * w.data, rtol=0, atol=1e-14)

    def test_softmax_mean_gradient_sums_to_zero(self):
        # softmax is shift invariant, so the derivative along all-ones is 0
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(10,)), requires_grad=True)
        x.softmax(axis=-1).mean().backward()
        assert abs(x.grad.sum()) < 1e-15

    def test_linear_function_error_tiny(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        err = finite_diff_check(lambda: (Tensor(a) * x).sum(), {"x": x}, eps=1e-5)
        assert err <= 1e-10

    def test_chained_composition(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(4, 8)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.normal(size=(8, 2)) * 0.5, requires_grad=True)
        t = rng.normal(size=(3, 2))

        def f():
            h = (x @ w1).relu()
            return ((h @ w2 - Tensor(t)).abs()).mean()

        err = finite_diff_check(f, {"x": x, "w1": w1, "w2": w2}, eps=1e-5)
        assert err <= 1e-4


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = Tensor(np.array([3.0]), requires_grad=True)
        (x * y + x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])  # y + 1
        np.testing.assert_allclose(y.grad, [2.0])

    def test_reused_node_grad_sums(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        h = x * x
        (h + h).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])  # 2 * 2x

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_zero_grad_resets(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_constant_inputs_collect_no_grad(self):
        x = Tensor(np.array([1.0, 2.0]))
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (x * y).sum().backward()
        assert x.grad is None
        np.testing.assert_allclose(y.grad, x.data)
        # the engine drops what a backward hands a tensor that does not require grad
        x._node.accumulate(np.ones(2))
        x._node.accumulate_at(slice(0, 1), np.ones(1))
        assert x.grad is None

    def test_first_gradient_is_a_copy_in_the_tensor_dtype(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        x._node.accumulate(g)
        g[:] = -1.0
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])
        x._node.accumulate(np.ones(3))
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [2.0, 3.0, 4.0])

    def test_first_gradient_write_does_not_alias_the_upstream_gradient(self):
        # add's backward hands x and y the same upstream array, and x's
        # second contribution is added in place: it must not reach y
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        y = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
        w_a, w_b = np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0])
        (weighted(x + y, w_a) + weighted(x, w_b)).backward()
        np.testing.assert_array_equal(y.grad, w_a)
        np.testing.assert_array_equal(x.grad, w_a + w_b)

    def test_gradients_deterministic(self):
        def grads():
            rng = np.random.default_rng(21)
            x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            (x.softmax(axis=-1) * Tensor(rng.normal(size=(8, 8)))).sum().backward()
            return x.grad

        assert grads().tobytes() == grads().tobytes()


class TestFiniteDiffCheck:
    def test_rejects_non_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda: x * 2, {"x": x})

    def test_detects_wrong_gradient(self):
        # x * |x| has gradient 2|x|; pretend it is x**2's by rebuilding wrong f
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        calls = {"n": 0}

        def f():
            # first call (backward pass) uses x^3, probes use x^2: mismatch
            calls["n"] += 1
            p = 3 if calls["n"] == 1 else 2
            return (x ** p).sum()

        err = finite_diff_check(f, {"x": x}, eps=1e-5)
        assert err > 1e-2

    def test_probe_subset_deterministic(self):
        x = Tensor(np.random.default_rng(0).normal(size=(50,)), requires_grad=True)
        w = np.random.default_rng(1).normal(size=(50,))

        def run():
            return finite_diff_check(
                lambda: ((x ** 2) * Tensor(w)).sum(),
                {"x": x},
                max_probes=10,
                rng=np.random.default_rng(123),
            )

        assert run() == run()

    def test_hard_reorder_rejected_on_differentiated_path(self):
        rng = np.random.default_rng(2)
        bins = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        sink = sinkhorn_normalize(Tensor(rng.normal(size=(3, 3))), 4)
        with pytest.raises(NotDifferentiablePathError):
            reorder_bins(bins, sink, mode="hard")


class TestNoGrad:
    def test_model_forward_matches_graph_mode_bit_for_bit(self):
        cfg = toy_run_config(steps=0)
        weights = init_model_from_config(cfg)
        n = cfg.grid_resolution
        vol = np.random.default_rng(8).uniform(0.0, 1.0, size=(cfg.n_joints, n, n, n))
        graph = model_forward(vol, weights, cfg.attention)
        with no_grad():
            free = model_forward(vol, weights, cfg.attention)
        assert graph.requires_grad and graph._backward is not None
        assert free.data.tobytes() == graph.data.tobytes()

    def test_results_record_nothing(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        with no_grad():
            outs = [
                x + w, x * w, x @ w, -x, x ** 2.0, x.reshape(16), x.transpose((1, 0)),
                x.sum(axis=0), x.relu(), x.exp(), x.abs(), x.log_softmax(axis=1),
                x.softmax(axis=-1), concat([x, w], axis=0),
            ]
        for out in outs:
            assert not out.requires_grad
            assert out._backward is None
            assert out._children == ()
        assert x.requires_grad and w.requires_grad

    def test_nests_and_restores_after_exception(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the block")
        assert (x * 2.0).requires_grad

    def test_graph_built_after_block_backpropagates(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with no_grad():
            (x * x).sum()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_hard_reorder_runs_without_a_graph(self):
        rng = np.random.default_rng(2)
        leaf = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        sink = sinkhorn_normalize(Tensor(rng.normal(size=(3, 3))), 4)
        with pytest.raises(NotDifferentiablePathError):
            reorder_bins(leaf * 1.0, sink, mode="hard")
        with no_grad():
            out = reorder_bins(leaf * 1.0, sink, mode="hard")
        np.testing.assert_array_equal(out.data, leaf.data[np.argmax(sink.data, axis=1)])


class TestOptimizers:
    def test_sgd_zero_gradient_no_change(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        before = w.data.copy()
        sgd_step({"w": w}, lr=0.5)  # grad is None
        np.testing.assert_array_equal(w.data, before)
        w.grad = np.zeros(2)
        sgd_step({"w": w}, lr=0.5)
        np.testing.assert_array_equal(w.data, before)

    def test_sgd_quadratic_monotone_descent(self):
        # f(w) = w^2 has curvature 2; lr = 0.1 is well below the 1.0 bound
        w = Tensor(np.array([5.0]), requires_grad=True)
        losses = []
        for _ in range(100):
            w.zero_grad()
            loss = (w * w).sum()
            losses.append(float(loss.data))
            loss.backward()
            sgd_step({"w": w}, lr=0.1)
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6 * losses[0]

    def test_adam_quadratic_converges(self):
        w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam({"w": w}, lr=0.2)
        losses = []
        for _ in range(200):
            opt.zero_grad()
            loss = (w * w).sum()
            losses.append(float(loss.data))
            loss.backward()
            opt.step()
        assert losses[-1] < 1e-4 * losses[0]

    def test_adam_accepts_list_or_dict(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        for params in ([a, b], {"a": a, "b": b}):
            opt = Adam(params, lr=0.1)
            (a * b).sum().backward()
            opt.step()
            opt.zero_grad()
            assert a.grad is None and b.grad is None

    def test_adam_first_step_size_is_lr(self):
        # bias correction makes the first update exactly lr * sign(g)
        w = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.array([0.25])
        Adam({"w": w}, lr=0.01).step()
        np.testing.assert_allclose(w.data, [1.0 - 0.01], rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adam_in_place_equals_the_textbook_update(self, dtype):
        # the in-place update runs the textbook expression's ops in its
        # order, so p, m and v stay bit-identical to it step after step
        rng = np.random.default_rng(12)
        w = Tensor(rng.normal(size=(6, 5)).astype(dtype), requires_grad=True)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam({"w": w}, lr=lr, betas=(b1, b2), eps=eps)
        m_buffer, v_buffer = opt.m["w"], opt.v["w"]
        p, m, v = w.data.copy(), np.zeros_like(w.data), np.zeros_like(w.data)
        for t in range(1, 8):
            g = rng.normal(size=p.shape).astype(dtype)
            w.grad = g.copy()
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert w.data.dtype == opt.m["w"].dtype == opt.v["w"].dtype == dtype
            assert np.array_equal(w.data, p)
            assert np.array_equal(opt.m["w"], m) and np.array_equal(opt.v["w"], v)
        assert opt.m["w"] is m_buffer and opt.v["w"] is v_buffer

    def test_adam_step_holds_two_step_sized_buffers(self):
        # the textbook expression held up to four temporaries at once
        w = Tensor(np.ones((256, 256)), requires_grad=True)
        opt = Adam({"w": w}, lr=0.01)
        w.grad = np.full(w.shape, 0.5)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * w.data.nbytes

    def test_zero_grads_helper(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.array([3.0])
        zero_grads([w])
        assert w.grad is None

    def test_shape_mismatch_rejected(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w.grad = np.zeros(3)
        with pytest.raises(ValueError):
            sgd_step({"w": w}, lr=0.1)
