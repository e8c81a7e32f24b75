"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Covers exactly the ops the dispatch policy needs: broadcasting `+`, `-`,
`*`, negation and scalar powers; matmul of a batched left operand or by a
2-D weight; sum and mean; tanh and exp; reshape, swapaxes, concat and
broadcast_to; where_const; masked softmax and log-softmax; a fused layer
norm; and gather along the last axis; plus the Adam optimizer. Softmax
and layer norm are single ops with analytic backward passes, not graphs
of the elementwise ops. Tensors form a DAG; backward() runs a single
iterative topological sweep accumulating grads into leaves. Each op
hands its value, inputs and backward closure to the Tensor constructor,
which alone decides whether the op records: one whose inputs are all
constants (no requires_grad) keeps no parents and no backward closure, so
a forward pass over constant Tensors builds no graph at all, and the
closure of a one-input op runs only when that input requires grad.

backward() releases the graph as it walks it: once a node's own backward
has run, the node drops its parents, its backward closure (and with it
the activations the closure captured) and its gradient. Only leaves, the
Tensors built with requires_grad=True and no parents, keep `.grad`. A
second backward() through a released node, from the same output or from
another output that shares part of the graph, raises InternalError.
"""

from __future__ import annotations

import numpy as np

from ..errors import InternalError


def _released(g):
    raise InternalError("backward() through a graph that an earlier "
                        "backward() has already released")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if not requires_grad:
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = parents if requires_grad else ()
        self._backward = backward if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # --- graph mechanics ---

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's `.grad`, releasing
        the graph on the way: after backward() returns, interior nodes
        hold no gradient, parents or closure, so the activations of the
        forward pass are freed with it. A graph is walked once; walking a
        released node again raises InternalError."""
        if self.data.size != 1:
            raise InternalError("backward() needs a scalar output")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
            if node._parents:
                node._parents = ()
                node._backward = _released
                node.grad = None

    def _accumulate(self, g: np.ndarray):
        # the first gradient is copied in: g may be a view of, or the very
        # array held as, another node's gradient
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    # --- arithmetic ---

    def __add__(self, other):
        other = as_tensor(other)

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))
        return Tensor(self.data + other.data, parents=(self, other),
                      backward=back)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))
        return Tensor(self.data * other.data, parents=(self, other),
                      backward=back)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise InternalError("only scalar exponents are supported")

        def back(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1.0))
        return Tensor(self.data ** exponent, parents=(self,), backward=back)

    def __matmul__(self, other):
        other = as_tensor(other)

        def back(g):
            if other.data.ndim == 2:
                # a weight applied to a batch: each gradient is one GEMM
                # over all rows, not a stack of per-row products to sum
                k, n = other.data.shape
                if self.requires_grad:
                    self._accumulate((g.reshape(-1, n) @ other.data.T)
                                     .reshape(self.data.shape))
                if other.requires_grad:
                    other._accumulate(self.data.reshape(-1, k).T
                                      @ g.reshape(-1, n))
                return
            if self.requires_grad:
                ga = np.matmul(g, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
                other._accumulate(_unbroadcast(gb, other.data.shape))
        return Tensor(np.matmul(self.data, other.data), parents=(self, other),
                      backward=back)

    # --- shape ---

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def back(g):
            self._accumulate(g.reshape(self.data.shape))
        return Tensor(self.data.reshape(shape), parents=(self,), backward=back)

    def swapaxes(self, axis1: int, axis2: int):
        """Swap two axes. The result is a C-contiguous copy, not a strided
        view: np.matmul ran the attention scores about 3.5x slower on the
        keys' double-swapped view than on a copy."""
        def back(g):
            self._accumulate(np.swapaxes(g, axis1, axis2))
        return Tensor(np.ascontiguousarray(np.swapaxes(self.data, axis1, axis2)),
                      parents=(self,), backward=back)

    # --- reductions and elementwise ---

    def sum(self, axis=None, keepdims: bool = False):
        def back(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      parents=(self,), backward=back)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def tanh(self):
        t = np.tanh(self.data)

        def back(g):
            self._accumulate(g * (1.0 - t * t))
        return Tensor(t, parents=(self,), backward=back)

    def exp(self):
        e = np.exp(self.data)

        def back(g):
            self._accumulate(g * e)
        return Tensor(e, parents=(self,), backward=back)


def as_tensor(x) -> Tensor:
    """Wrap array-likes as constant Tensors; passes Tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]

    def back(g):
        offsets = np.cumsum([0] + sizes)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  parents=tuple(tensors), backward=back)


def _shifted(x: np.ndarray, mask) -> np.ndarray:
    """Scores minus their row max; masked entries (mask False) are -inf,
    so that exp() gives them exactly 0.0."""
    if mask is None:
        return x - np.max(x, axis=-1, keepdims=True)
    if not np.broadcast_to(mask, x.shape).any(axis=-1).all():
        raise InternalError("softmax row with every entry masked")
    neg = np.where(mask, x, -np.inf)
    return neg - np.max(neg, axis=-1, keepdims=True)


def log_softmax(scores: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Log-softmax over the last axis with an optional constant boolean
    mask (True = allowed). Disallowed entries come out as -inf, receive
    exactly zero probability, and pass no gradient."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    z = _shifted(scores.data, mask)
    ez = np.exp(z)
    denom = ez.sum(axis=-1, keepdims=True)
    out = Tensor(z - np.log(denom), parents=(scores,))
    if not out.requires_grad:
        return out
    soft = ez / denom

    def back(g):
        if mask is not None:
            g = np.where(mask, g, 0.0)
        scores._accumulate(g - soft * g.sum(axis=-1, keepdims=True))
    out._backward = back
    return out


def softmax(scores: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, `ez / denom`, with the mask contract of
    `log_softmax`: masked entries get weight exactly 0.0 and pass no
    gradient, and a row with every entry masked raises InternalError."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    ez = np.exp(_shifted(scores.data, mask))
    soft = ez / ez.sum(axis=-1, keepdims=True)

    def back(g):
        # soft is 0.0 on masked entries, so they receive exactly 0.0
        gs = g * soft
        scores._accumulate(gs - soft * gs.sum(axis=-1, keepdims=True))
    return Tensor(soft, parents=(scores,), backward=back)


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """Layer norm over the last axis with gain g and bias b, both (d,).

    The forward runs the composed ops' order, `sum * (1/d)` for each mean,
    `xc * xc`, `(var + 1e-5) ** -0.5`, then `xc * inv * g + b`, so it is
    bit for bit the graph it replaces; the backward is the analytic one."""
    xd = x.data
    scale = 1.0 / xd.shape[-1]
    xc = xd - xd.sum(axis=-1, keepdims=True) * scale
    inv = ((xc * xc).sum(axis=-1, keepdims=True) * scale + 1e-5) ** -0.5
    xhat = xc * inv

    def back(gout):
        if g.requires_grad:
            g._accumulate(_unbroadcast(gout * xhat, g.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(gout, b.data.shape))
        if x.requires_grad:
            dxhat = gout * g.data
            x._accumulate(inv * (
                dxhat - dxhat.sum(axis=-1, keepdims=True) * scale
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) * scale))
    return Tensor(xhat * g.data + b.data, parents=(x, g, b), backward=back)


def broadcast_to(x: Tensor, shape: tuple) -> Tensor:
    """x broadcast to `shape`; the gradient is summed back to x's shape."""
    def back(g):
        x._accumulate(_unbroadcast(g, x.data.shape))
    return Tensor(np.broadcast_to(x.data, shape), parents=(x,), backward=back)


def where_const(mask: np.ndarray, x: Tensor, fill: float) -> Tensor:
    """x where mask else fill; gradient flows only through kept entries.
    Useful to neutralize -inf entries before arithmetic that would produce
    NaNs (e.g. 0 * -inf in entropy sums)."""
    mask = np.asarray(mask, dtype=bool)

    def back(g):
        x._accumulate(np.where(mask, g, 0.0))
    return Tensor(np.where(mask, x.data, fill), parents=(x,), backward=back)


def take_along_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis; idx is a constant integer array with the
    same leading shape as x."""
    idx = np.asarray(idx, dtype=np.int64)

    def back(g):
        full = np.zeros_like(x.data)
        np.add.at(full, (*np.indices(idx.shape)[:-1], idx), g)
        x._accumulate(full)
    return Tensor(np.take_along_axis(x.data, idx, axis=-1), parents=(x,),
                  backward=back)


# Adam's moment decays and denominator guard (Kingma & Ba, arXiv:1412.6980)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam over a name -> Tensor parameter dict."""

    def __init__(self, params: dict, lr: float = 3e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        """One update, the moments in place and in the formula's order."""
        self.t += 1
        b1, b2 = BETA1, BETA2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            m, v = self.m[k], self.v[k]
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad ** 2
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
