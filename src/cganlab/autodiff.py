"""Reverse-mode automatic differentiation over dense float64 tensors.

A :class:`Graph` is a tape for one forward/backward pass: every operation
appends a node, so parent ids always precede child ids and the reverse
sweep is a plain reversed loop. Tensors carry an optional ``(graph,
node_id)`` handle; a tensor without a graph behaves as a constant, which
is how frozen networks are evaluated without gradient bookkeeping. One
graph lives for one training step and is dropped after the optimizer
update.

Vector-Jacobian closures capture arrays and shapes, never Tensors. A
Tensor holds its graph and the graph holds the closures, so a closure
that held a Tensor would close a reference cycle and keep every
activation of the step alive until the cyclic garbage collector ran.
Without such cycles a graph and its activations are freed by reference
counting as soon as the step drops its last Tensor.

All values are 64-bit reals and no op clamps its input. Cross-entropy
terms are built from ``softplus`` on raw logits, which is exact in both
tails and never overflows, so values and gradients stay right where a
sigmoid would saturate.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes incompatible for an operation."""


class GraphMismatch(ValueError):
    """Operands belong to two different computation graphs."""


class _Node:
    __slots__ = ("op", "parents", "vjps")

    def __init__(self, op, parents, vjps):
        self.op = op
        self.parents = parents  # node ids of graph-tracked inputs
        self.vjps = vjps  # vjps[i](g) -> gradient contribution to parents[i]


class Graph:
    """Append-only operation tape; topological by construction."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __len__(self):
        return len(self._nodes)

    def _record(self, op, parents, vjps) -> int:
        self._nodes.append(_Node(op, parents, vjps))
        return len(self._nodes) - 1

    def leaf(self, values) -> "Tensor":
        """Register an input (parameter) tensor on this graph."""
        t = Tensor(values)
        t.graph = self
        t.node_id = self._record("leaf", (), ())
        return t

    def backward(self, root: "Tensor") -> dict[int, np.ndarray]:
        """Reverse sweep from a scalar root; returns node-id -> gradient.

        Gradients accumulate additively across fan-out. The root's own
        entry is all-ones.
        """
        if root.graph is not self:
            raise GraphMismatch("backward: root does not belong to this graph")
        if root.values.size != 1:
            raise ValueError(
                f"backward: root must be scalar, got shape {root.values.shape}"
            )
        grads: dict[int, np.ndarray] = {root.node_id: np.ones_like(root.values)}
        for nid in range(root.node_id, -1, -1):
            g = grads.get(nid)
            if g is None:
                continue
            node = self._nodes[nid]
            for pid, vjp in zip(node.parents, node.vjps):
                contrib = vjp(g)
                acc = grads.get(pid)
                grads[pid] = contrib if acc is None else acc + contrib
        return grads


class Tensor:
    """Dense float64 array, optionally tracked on a computation graph."""

    __slots__ = ("values", "graph", "node_id")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.graph: Graph | None = None
        self.node_id: int | None = None

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        tag = f", node={self.node_id}" if self.graph is not None else ""
        return f"Tensor(shape={self.values.shape}{tag})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def relu(self):
        return relu(self)

    def leaky_relu(self, slope=0.2):
        return leaky_relu(self, slope)

    def tanh(self):
        return tanh(self)

    def sigmoid(self):
        return sigmoid(self)

    def softmax(self):
        return softmax(self)

    def mean(self):
        return mean(self)

    def sum(self):
        return tensor_sum(self)

    def backward(self) -> dict[int, np.ndarray]:
        return backward(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(op: str, values: np.ndarray, inputs_vjps) -> Tensor:
    """Build the output tensor, recording a node when any input is tracked.

    ``inputs_vjps`` is a sequence of (tensor, vjp) pairs; vjps of
    untracked (constant) inputs are dropped.
    """
    graph = None
    for t, _ in inputs_vjps:
        if t.graph is not None:
            if graph is None:
                graph = t.graph
            elif graph is not t.graph:
                raise GraphMismatch(f"{op}: operands from two different graphs")
    out = Tensor(values)
    if graph is not None:
        parents = tuple(t.node_id for t, _ in inputs_vjps if t.graph is not None)
        vjps = tuple(vjp for t, vjp in inputs_vjps if t.graph is not None)
        out.graph = graph
        out.node_id = graph._record(op, parents, vjps)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to the pre-broadcast operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.values.shape, b.values.shape)
    except ValueError:
        raise ShapeMismatch(
            f"{op}: shapes {a.values.shape} and {b.values.shape} do not broadcast"
        ) from None


# -- elementwise and structural operations ------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    sa, sb = a.values.shape, b.values.shape
    return _result(
        "add",
        a.values + b.values,
        [
            (a, lambda g: _unbroadcast(g, sa)),
            (b, lambda g: _unbroadcast(g, sb)),
        ],
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    sa, sb = a.values.shape, b.values.shape
    return _result(
        "sub",
        a.values - b.values,
        [
            (a, lambda g: _unbroadcast(g, sa)),
            (b, lambda g: _unbroadcast(-g, sb)),
        ],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    av, bv = a.values, b.values
    return _result(
        "mul",
        av * bv,
        [
            (a, lambda g: _unbroadcast(g * bv, av.shape)),
            (b, lambda g: _unbroadcast(g * av, bv.shape)),
        ],
    )


def neg(a: Tensor) -> Tensor:
    return _result("neg", -a.values, [(a, lambda g: -g)])


def scalar_mul(a: Tensor, c: float) -> Tensor:
    return _result("scalar_mul", a.values * c, [(a, lambda g: g * c)])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatch(f"matmul: shapes {av.shape} and {bv.shape} do not contract")
    return _result(
        "matmul",
        av @ bv,
        [
            (a, lambda g: g @ bv.T),
            (b, lambda g: av.T @ g),
        ],
    )


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    return _result("relu", np.where(mask, a.values, 0.0), [(a, lambda g: g * mask)])


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    v = a.values
    d = np.where(v > 0, 1.0, slope)
    return _result("leaky_relu", np.where(v > 0, v, slope * v), [(a, lambda g: g * d)])


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    return _result("tanh", t, [(a, lambda g: g * (1.0 - t * t))])


def _sigmoid_parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-|v|) and sigmoid(v) built from it; neither overflows.

    The two branches 1/(1+e) for v >= 0 and e/(1+e) for v < 0 keep full
    relative precision in both tails.
    """
    e = np.exp(-np.abs(v))
    return e, np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    _, s = _sigmoid_parts(a.values)
    return _result("sigmoid", s, [(a, lambda g: g * s * (1.0 - s))])


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(a)) as max(a, 0) + log1p(exp(-|a|)); its gradient is sigmoid(a)."""
    v = a.values
    e, s = _sigmoid_parts(v)
    return _result("softplus", np.maximum(v, 0.0) + np.log1p(e), [(a, lambda g: g * s)])


def softmax(a: Tensor) -> Tensor:
    v = a.values
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=-1, keepdims=True))

    return _result("softmax", s, [(a, vjp)])


def mean(a: Tensor) -> Tensor:
    n, sa = a.values.size, a.values.shape
    return _result(
        "mean",
        np.asarray(a.values.mean()),
        [(a, lambda g: np.full(sa, float(g) / n))],
    )


def tensor_sum(a: Tensor) -> Tensor:
    sa = a.values.shape
    return _result(
        "sum",
        np.asarray(a.values.sum()),
        [(a, lambda g: np.full(sa, float(g)))],
    )


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    shapes = [t.values.shape for t in tensors]
    base = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(base) or any(
            s[i] != base[i] for i in range(len(base)) if i != axis
        ):
            raise ShapeMismatch(f"concat(axis={axis}): shapes {shapes} do not align")
    values = np.concatenate([t.values for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [s[axis] for s in shapes])

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return _result("concat", values, [(t, make_vjp(i)) for i, t in enumerate(tensors)])


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; gradient routes to the smaller operand (ties -> a)."""
    a, b = _wrap(a), _wrap(b)
    _check_broadcast("min_elem", a, b)
    take_a = a.values <= b.values
    sa, sb = a.values.shape, b.values.shape
    return _result(
        "min_elem",
        np.minimum(a.values, b.values),
        [
            (a, lambda g: _unbroadcast(g * take_a, sa)),
            (b, lambda g: _unbroadcast(g * ~take_a, sb)),
        ],
    )


def backward(root: Tensor) -> dict[int, np.ndarray]:
    """Gradient table of a scalar root w.r.t. every node in its graph."""
    if root.graph is None:
        raise ValueError("backward: root is a constant tensor (no graph)")
    return root.graph.backward(root)
