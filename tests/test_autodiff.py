import gc
import weakref

import numpy as np
import pytest

from cganlab import autodiff as ad
from cganlab.autodiff import Graph, Tensor, backward


def fd_max_rel_error(make_scalar, arrays, h=1e-5):
    """Central finite differences against the analytic gradient table.

    make_scalar(list of Tensors) must rebuild the same scalar expression;
    elements with |analytic| < 1e-8 are compared absolutely.
    """
    g = Graph()
    leaves = [g.leaf(a) for a in arrays]
    root = make_scalar(leaves)
    table = backward(root)
    grads = [table.get(t.node_id, np.zeros_like(t.values)) for t in leaves]

    worst = 0.0
    for ai, a in enumerate(arrays):
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = a[ix]
            a[ix] = orig + h
            up = float(make_scalar([Tensor(x) for x in arrays]).values)
            a[ix] = orig - h
            dn = float(make_scalar([Tensor(x) for x in arrays]).values)
            a[ix] = orig
            fd = (up - dn) / (2 * h)
            an = grads[ai][ix]
            err = abs(fd - an) if abs(an) < 1e-8 else abs(fd - an) / abs(an)
            worst = max(worst, err)
    return worst


def test_sigmoid_at_zero():
    assert float(Tensor(0.0).sigmoid().values) == 0.5


def test_concat_axis_arithmetic():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.ones((2, 5)))
    assert ad.concat([a, b], axis=1).shape == (2, 8)


def test_matmul_all_ones():
    # hand-evaluated dot products: each entry is a sum of three 1*1 terms
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 1)))
    out = a @ b
    assert out.shape == (2, 1)
    np.testing.assert_array_equal(out.values, np.full((2, 1), 3.0))


def test_backward_of_sum_is_ones():
    g = Graph()
    w = g.leaf(np.array([1.0, -2.0, 3.0, 0.5]))
    table = backward(w.sum())
    np.testing.assert_array_equal(table[w.node_id], np.ones(4))


def test_backward_sigmoid_dot_chain_rule():
    # sigma'(0) = 0.25, so d sigmoid(w.x)/dw at w=0 is 0.25 * x
    g = Graph()
    w = g.leaf(np.zeros((1, 2)))
    x = Tensor(np.array([[1.0], [2.0]]))
    root = (w @ x).sigmoid().sum()
    table = backward(root)
    np.testing.assert_allclose(table[w.node_id], 0.25 * np.array([[1.0, 2.0]]), rtol=1e-12)


def test_root_gradient_is_all_ones():
    g = Graph()
    w = g.leaf(np.array([2.0]))
    root = (w * 3.0).sum()
    table = backward(root)
    np.testing.assert_array_equal(table[root.node_id], np.ones(()))


def test_fanout_accumulates_additively():
    g = Graph()
    a = g.leaf(np.array([1.5]))
    table = backward((a + a).sum())
    np.testing.assert_array_equal(table[a.node_id], np.array([2.0]))


def test_non_scalar_root_rejected():
    g = Graph()
    a = g.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        backward(a + a)


def test_shape_mismatch_names_op_and_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 1)))
    with pytest.raises(ad.ShapeMismatch) as exc:
        a @ b
    assert "matmul" in str(exc.value)
    assert "(2, 3)" in str(exc.value) and "(4, 1)" in str(exc.value)


def test_log_clamps_non_positive_without_error():
    out = Tensor(np.array([-1.0, 0.0, 0.5])).log()
    assert np.all(np.isfinite(out.values))
    np.testing.assert_allclose(out.values[:2], np.log(ad.LOG_EPS))
    np.testing.assert_allclose(out.values[2], np.log(0.5))


def test_log_gradient_zero_in_clamped_region():
    g = Graph()
    p = g.leaf(np.array([-0.5, 0.5]))
    table = backward(p.log().sum())
    np.testing.assert_allclose(table[p.node_id], np.array([0.0, 2.0]))


def test_mixing_two_graphs_rejected():
    a = Graph().leaf(np.ones(2))
    b = Graph().leaf(np.ones(2))
    with pytest.raises(ad.GraphMismatch):
        a + b


def test_constants_do_not_join_the_graph():
    g = Graph()
    w = g.leaf(np.ones(3))
    out = w * Tensor(np.array([1.0, 2.0, 3.0]))
    table = backward(out.sum())
    np.testing.assert_allclose(table[w.node_id], np.array([1.0, 2.0, 3.0]))
    assert Tensor(np.ones(3)).graph is None


def test_minimum_routes_gradient_to_smaller_operand():
    g = Graph()
    a = g.leaf(np.array([0.0, 2.0]))
    b = g.leaf(np.array([1.0, 1.0]))
    table = backward(ad.minimum(a, b).sum())
    np.testing.assert_array_equal(table[a.node_id], np.array([1.0, 0.0]))
    np.testing.assert_array_equal(table[b.node_id], np.array([0.0, 1.0]))


def test_clamp_gradient_mask():
    g = Graph()
    a = g.leaf(np.array([-2.0, 0.3, 2.0]))
    table = backward(a.clamp(-1.0, 1.0).sum())
    np.testing.assert_array_equal(table[a.node_id], np.array([0.0, 1.0, 0.0]))


def test_bias_broadcast_gradient_sums_over_batch():
    g = Graph()
    h = Tensor(np.ones((4, 3)))
    b = g.leaf(np.zeros(3))
    table = backward((h + b).sum())
    np.testing.assert_array_equal(table[b.node_id], np.full(3, 4.0))


@pytest.mark.parametrize("seed", range(20))
def test_finite_differences_on_random_expressions(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 0.5, (3, 4))
    b = rng.normal(0, 0.5, (4, 2))
    c = rng.normal(0, 0.5, 2)

    def expr(ts):
        h = (ts[0] @ ts[1] + ts[2]).leaky_relu(0.2)
        return (h.tanh() * h.sigmoid()).mean()

    assert fd_max_rel_error(expr, [a, b, c]) < 1e-4


def test_finite_differences_through_softmax_and_concat():
    rng = np.random.default_rng(7)
    a = rng.normal(0, 0.5, (3, 2))
    b = rng.normal(0, 0.5, (3, 3))

    def expr(ts):
        return (ad.concat(ts, axis=1).softmax() * 0.7).log().mean()

    assert fd_max_rel_error(expr, [a, b]) < 1e-4


def test_determinism_bitwise():
    def build(seed):
        rng = np.random.default_rng(seed)
        g = Graph()
        w = g.leaf(rng.standard_normal((3, 3)))
        x = Tensor(rng.standard_normal((2, 3)))
        root = ((x @ w).sigmoid()).mean()
        table = backward(root)
        return root.values.copy(), table[w.node_id].copy()

    v1, g1 = build(11)
    v2, g2 = build(11)
    assert v1.tobytes() == v2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_values_stay_finite_at_saturation():
    big = Tensor(np.array([-1e4, 1e4]))
    assert np.all(np.isfinite(big.sigmoid().values))
    assert np.all(np.isfinite(big.tanh().values))
    assert np.all(np.isfinite(big.sigmoid().log().values))
    assert np.all(np.isfinite((1.0 - big.sigmoid()).log().values))


def _every_op(a, b):
    h = ad.concat([a, b], axis=1) @ Tensor(np.ones((4, 3)))
    h = ad.clamp(h.relu() + h.leaky_relu(0.1) - h.tanh() * h.sigmoid(), -5.0, 5.0)
    return (-(h.softmax().log() * 0.5)).mean() + ad.minimum(a, b).sum()


@pytest.mark.parametrize("build", [
    lambda a, b: (a + b).sum(),
    lambda a, b: (a - b).sum(),
    lambda a, b: a.mean(),
    lambda a, b: a.sum(),
    lambda a, b: ad.minimum(a, b).sum(),
    _every_op,
], ids=["add", "sub", "mean", "sum", "minimum", "every_op"])
def test_graph_freed_by_refcount_without_gc(build):
    # a vjp closure holding a Tensor would form graph -> node -> closure ->
    # Tensor -> graph, and only the cyclic collector could free the step
    rng = np.random.default_rng(0)
    gc.collect()
    gc.disable()
    try:
        g = Graph()
        a = g.leaf(rng.standard_normal((3, 2)))
        b = g.leaf(rng.standard_normal((3, 2)))
        root = build(a, b)
        backward(root)
        graph_ref, root_ref = weakref.ref(g), weakref.ref(root.values)
        del g, a, b, root
        assert graph_ref() is None
        assert root_ref() is None
    finally:
        gc.enable()
