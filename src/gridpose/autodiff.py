"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` is a value, an ndarray, and a graph node that records how the
value was made, so that ``backward()`` on a scalar result accumulates
exact gradients into every reachable tensor with ``requires_grad=True``
(no higher orders). The primitives are the ones the pose model needs:
add, subtract, multiply, matmul, reshape/transpose/concat/split, sum/mean,
relu, exp, abs, log-softmax and softmax, plus the scalar power of the
composed layer-norm oracle. The 3D convolution (``conv.py``) and the fused
window, layer-norm and feed-forward nodes (``attention.py``) join the
graph through ``Tensor._make`` with hand-written backwards.

A node holds the gradient, the children's nodes, the backward closure
and the value's shape, dtype and strides, but not the value (the split
of PyTorch's saved tensors, Paszke et al. 2019). A closure captures its
inputs' nodes, and an input's array only if it reads it: ``*`` of two
tensors, ``**``, ``@``, the conv (x and w), the window (its five inputs
and its output), the feed-forward (x, w1, b1, w2) and layer norm (gain).
relu, abs, exp, softmax, log-softmax and layer norm keep arrays of their
own; the other ops keep shapes. So a value that no backward reads is freed
in the forward pass, once the forward code drops its ``Tensor``.

Each backward computes the gradient of every input, and a node that does
not require grad drops it, so a backward's work is fixed by its shapes;
only the conv skips its input adjoint for such an input, the feature
volume. Inside ``with no_grad():`` nothing is recorded, and every result
is a leaf; the fused nodes run the same code either way. Leaves keep
their ``requires_grad`` flag, so a graph built after the block
backpropagates. ``backward()`` drops each node's closure (with the arrays
it kept), links and non-leaf gradient once its backward has run, so a
graph is differentiated once.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no graph inside the block; nests, and restores the previous mode on exit."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _unbroadcast(grad, shape):
    """Sum `grad` over the axes numpy broadcast to reach `grad.shape` from `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """A tensor's place in the graph: all that its gradient needs, but not its value."""

    __slots__ = ("grad", "requires_grad", "children", "backward", "shape", "dtype", "strides")

    def __init__(self, requires_grad):
        self.grad, self.requires_grad, self.children, self.backward = None, requires_grad, (), None

    def accumulate(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            # a copy in the value's dtype, never g, which can be shared (same-shape
            # add, layer_norm) or read-only (sum) and so unwritable at the next +=
            self.grad = np.array(g, dtype=self.dtype)
        else:
            self.grad += g

    def accumulate_at(self, index, g):
        """Add `g` into the `index` slice of the gradient, which starts at zero in the value's
        stride order, as np.zeros_like(value) would: channels-last for the stacked conv."""
        if not self.requires_grad:
            return
        if self.grad is None:
            axes = sorted(range(len(self.shape)), key=lambda i: -abs(self.strides[i]))
            zeros = np.zeros([self.shape[i] for i in axes], dtype=self.dtype)
            self.grad = zeros.transpose(np.argsort(axes))
        self.grad[index] += g


def _node_attribute(name):  # a Tensor property that reads and assigns its node's `name`
    return property(lambda t: getattr(t._node, name), lambda t, value: setattr(t._node, name, value))


class Tensor:
    """A float ndarray value and its graph node (see the module docstring)."""

    __slots__ = ("_data", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype != np.float32 and arr.dtype != np.float64:
            arr = arr.astype(np.float64)
        self._node = _Node(requires_grad)
        self.data = arr

    @property
    def data(self):
        return self._data

    @data.setter
    def data(self, arr):
        self._data = arr
        node = self._node
        node.shape, node.dtype, node.strides = arr.shape, arr.dtype, arr.strides

    grad = _node_attribute("grad")
    requires_grad = _node_attribute("requires_grad")
    _children = _node_attribute("children")
    _backward = _node_attribute("backward")  # assignable: a wrapper runs in backward()

    @property
    def shape(self):
        return self._data.shape

    @property
    def size(self):
        return self._data.size

    @property
    def ndim(self):
        return self._data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- graph construction helper ----------------------------------------

    @staticmethod
    def _make(data, children, backward):
        out = Tensor(data)
        nodes = tuple(c._node for c in children if c.requires_grad) if _grad_mode.enabled else ()
        if nodes:
            out._node.requires_grad, out._node.children, out._node.backward = True, nodes, backward
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a = self._node
        if isinstance(other, (int, float)):

            def backward(g):
                a.accumulate(g)

            return Tensor._make(self.data + other, (self,), backward)
        other = as_tensor(other)
        b = other._node

        def backward(g):
            a.accumulate(_unbroadcast(g, a.shape))
            b.accumulate(_unbroadcast(g, b.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self._node

        def backward(g):
            a.accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        a = self._node
        if isinstance(other, (int, float)):

            def backward(g):
                a.accumulate(g * other)

            return Tensor._make(self.data * other, (self,), backward)
        other = as_tensor(other)
        b, a_data, b_data = other._node, self.data, other.data

        def backward(g):
            a.accumulate(_unbroadcast(g * b_data, a.shape))
            b.accumulate(_unbroadcast(g * a_data, b.shape))

        return Tensor._make(a_data * b_data, (self, other), backward)

    __rmul__ = __mul__

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, a_data = self._node, self.data

        def backward(g):
            a.accumulate(g * (p * a_data ** (p - 1)))

        return Tensor._make(a_data**p, (self,), backward)

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b, a_data, b_data = self._node, other._node, self.data, other.data
        if a_data.ndim < 2 or b_data.ndim < 2:
            raise ValueError("matmul requires operands with ndim >= 2")

        def backward(g):
            a.accumulate(_unbroadcast(g @ np.swapaxes(b_data, -1, -2), a.shape))
            b.accumulate(_unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b.shape))

        return Tensor._make(a_data @ b_data, (self, other), backward)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self._node

        def backward(g):
            a.accumulate(g.reshape(a.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, axes):
        a = self._node
        inverse = tuple(np.argsort(axes))

        def backward(g):
            a.accumulate(g.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self._node

        def backward(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a.accumulate(np.broadcast_to(gg, a.shape))

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    # -- nonlinearities -----------------------------------------------------

    def relu(self):
        a = self._node
        mask = self.data > 0  # subgradient at 0 is 0

        def backward(g):
            a.accumulate(g * mask)

        return Tensor._make(np.where(mask, self.data, 0.0), (self,), backward)

    def exp(self):
        a = self._node
        out_data = np.exp(self.data)

        def backward(g):
            a.accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self):
        a = self._node
        sign = np.sign(self.data)

        def backward(g):
            a.accumulate(g * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def log_softmax(self, axis):
        a = self._node
        m = self.data.max(axis=axis, keepdims=True)
        soft = np.exp(self.data - m)
        total = soft.sum(axis=axis, keepdims=True)
        soft /= total  # softmax along `axis`, cached for the backward pass

        def backward(g):
            a.accumulate(g - soft * g.sum(axis=axis, keepdims=True))

        return Tensor._make(self.data - (np.log(total) + m), (self,), backward)

    def softmax(self, axis=-1):
        a = self._node
        m = self.data.max(axis=axis, keepdims=True)
        ex = np.exp(self.data - m)
        out_data = ex / ex.sum(axis=axis, keepdims=True)

        def backward(g):
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            a.accumulate(out_data * (g - inner))

        return Tensor._make(out_data, (self,), backward)

    # -- backward pass --------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        visited = set()
        stack = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node.children:
                if id(child) not in visited:
                    stack.append((child, False))
        self._node.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.backward is not None:
                node.backward(node.grad)
                # all its consumers have run before it; leaves keep gradients
                node.backward, node.children, node.grad = None, (), None


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    nodes = [t._node for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            node.accumulate(g[tuple(idx)])

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def split(x, sizes, axis=0):
    """Cut `x` along `axis` into consecutive pieces of `sizes`, the inverse
    of `concat`. Each piece is a view of `x` and its own graph node, whose
    gradient lands in its slice of `x`'s gradient."""
    x = as_tensor(x)
    if sum(sizes) != x.shape[axis]:
        raise ValueError(f"pieces of sizes {tuple(sizes)} do not split an axis of length {x.shape[axis]}")
    node = x._node
    offsets = np.cumsum([0, *sizes])
    pieces = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        index = (slice(None),) * axis + (slice(lo, hi),)

        def backward(g, index=index):
            node.accumulate_at(index, g)

        pieces.append(Tensor._make(x.data[index], (x,), backward))
    return pieces


# -- gradient verification ------------------------------------------------


def finite_diff_check(f, leaves, eps=1e-5, max_probes=None, rng=None, atol=1e-9):
    """Compare reverse-mode gradients of scalar `f()` against central differences.

    `f` must recompute its output from the current `.data` of `leaves`
    (dict name -> Tensor). When a leaf has more entries than `max_probes`,
    a deterministic random subset of its components is probed. Returns the
    worst relative error |fd - ad| / (|fd| + |ad| + 1e-12).

    Components whose absolute difference is within `atol` count as exact:
    central differences bottom out near |f|*1e-16/eps, so a near-zero true
    gradient otherwise drowns the relative formula in rounding noise.
    """
    if isinstance(leaves, dict):
        leaf_items = list(leaves.items())
    else:
        leaf_items = [(f"leaf{i}", t) for i, t in enumerate(leaves)]
    for _, t in leaf_items:
        t.zero_grad()
    out = f()
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("finite_diff_check expects f() to return a scalar Tensor")
    out.backward()
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy()) for name, t in leaf_items}

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for name, t in leaf_items:
        if not t.data.flags["C_CONTIGUOUS"]:
            t.data = np.ascontiguousarray(t.data)
        flat = t.data.reshape(-1)
        n = flat.size
        if max_probes is not None and n > max_probes:
            idxs = rng.choice(n, size=max_probes, replace=False)
        else:
            idxs = range(n)
        an_flat = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            with no_grad():  # the probes read only values
                flat[i] = orig + eps
                f_plus = float(f().data)
                flat[i] = orig - eps
                f_minus = float(f().data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * eps)
            ad = an_flat[i]
            if abs(fd - ad) <= atol:
                continue
            err = abs(fd - ad) / (abs(fd) + abs(ad) + 1e-12)
            worst = max(worst, err)
    return worst


# -- optimizers ----------------------------------------------------------------


def _as_param_dict(params):
    """Accept {name: Tensor} or an ordered iterable of Tensors."""
    if isinstance(params, dict):
        return params
    return {str(i): t for i, t in enumerate(params)}


def _check_shapes(params):
    for name, t in params.items():
        if t.grad is not None and t.grad.shape != t.data.shape:
            raise ValueError(f"gradient shape {t.grad.shape} does not match parameter {name} {t.data.shape}")


def sgd_step(params, lr):
    """Plain gradient descent: w <- w - lr * g. Params with no gradient are left alone."""
    params = _as_param_dict(params)
    _check_shapes(params)
    for t in params.values():
        if t.grad is not None:
            t.data -= lr * t.grad


class Adam:
    """Adam with bias correction; defaults beta=(0.9, 0.999), eps=1e-8."""

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8):
        self.params = _as_param_dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        _check_shapes(self.params)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            if p.grad is None:
                continue
            # the textbook update's ops in its order, in place and in two buffers
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            denom = (1 - b2) * g
            denom *= g
            v *= b2
            v += denom
            np.sqrt(np.divide(v, 1 - b2**self.t, out=denom), out=denom)
            denom += self.eps
            step = m / (1 - b1**self.t)
            step *= self.lr
            p.data -= np.divide(step, denom, out=step)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def zero_grads(params):
    for p in _as_param_dict(params).values():
        p.zero_grad()
