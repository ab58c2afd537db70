"""Gradient checks of the closed-form backprop in `nets` and `losses`.

Hand-evaluated cases first, then central finite differences on random
networks and on hypothesis-drawn inputs. The file keeps the name it had
when these checks covered a reverse-mode tape, which the closed form
replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cganlab.losses import LossSpec, _sigmoid_parts, _softplus, d_loss_total, g_loss
from cganlab.nets import (
    HIDDEN_SLOPE,
    OUTPUT_ACTIVATIONS,
    Discriminator,
    Generator,
    MlpSpec,
    _unpack,
    disc_forward,
    gen_forward,
    init_params,
    mlp_backward,
    mlp_forward,
)

from finite_differences import central_differences


def fresh_grads(params):
    """A gradient buffer for `mlp_backward`; an entry it does not write reads NaN."""
    return [np.full_like(p, np.nan) for p in params]


def assert_gradients_match_fd(spec, params, h, weights):
    """Parameter and input gradients of sum(weights * output), analytic vs numeric."""

    def loss():
        return float((mlp_forward(spec, params, h)[0] * weights).sum())

    _, cache = mlp_forward(spec, params, h)
    grads, g_in = mlp_backward(spec, params, cache, weights,
                               grads_out=fresh_grads(params))
    for target, analytic in [(h, g_in)] + list(zip(params, grads)):
        np.testing.assert_allclose(analytic, central_differences(loss, target),
                                   rtol=1e-5, atol=1e-7)


def test_sigmoid_at_zero():
    # a zeroed discriminator's logit is 0, where D = sigmoid(0) = 0.5
    spec = MlpSpec((2, 3, 1))
    params = [np.zeros(shape) for shape in spec.param_shapes()]
    out, _ = mlp_forward(spec, params, np.ones((2, 2)))
    np.testing.assert_array_equal(_sigmoid_parts(out)[1], np.full((2, 1), 0.5))
    assert float(_sigmoid_parts(np.array(0.0))[1]) == 0.5


def test_concat_axis_arithmetic():
    # D reads [x, y] side by side, so its input gradient splits at dim_x
    disc = Discriminator.build(2, 3, hidden=(4,), seed=0)
    x, y = np.zeros((5, 2)), np.ones((5, 3))
    out, cache = mlp_forward(disc.spec, disc.params, np.concatenate([x, y], axis=1))
    _, g_in = mlp_backward(disc.spec, disc.params, cache, np.ones_like(out))
    assert cache[0].shape == (5, 5) and g_in.shape == (5, 5)
    np.testing.assert_array_equal(cache[0][:, 2:], y)


def test_matmul_all_ones():
    # hand-evaluated: each hidden unit sums three 1*1 terms, the output two 3*1 terms
    spec = MlpSpec((3, 2, 1))
    params = [np.ones((3, 2)), np.zeros(2), np.ones((2, 1)), np.zeros(1)]
    out, cache = mlp_forward(spec, params, np.ones((4, 3)))
    np.testing.assert_array_equal(cache[1], np.full((4, 2), 3.0))
    np.testing.assert_array_equal(out, np.full((4, 1), 6.0))


def test_backward_of_sum_is_ones():
    # an identity network on positive rows: d sum(out) / d h is all ones
    spec = MlpSpec((4, 4, 4))
    params = [np.eye(4), np.zeros(4), np.eye(4), np.zeros(4)]
    h = np.array([[1.0, 2.0, 3.0, 0.5]])
    out, cache = mlp_forward(spec, params, h)
    grads, g_in = mlp_backward(spec, params, cache, np.ones_like(out),
                               grads_out=fresh_grads(params))
    np.testing.assert_array_equal(out, h)
    np.testing.assert_array_equal(g_in, np.ones((1, 4)))
    np.testing.assert_array_equal(grads[1], np.ones(4))
    np.testing.assert_array_equal(grads[3], np.ones(4))


def test_fanout_accumulates_additively():
    # D sees real and generated rows in one stacked pass; each parameter's
    # gradient is the sum of what the two halves contribute
    disc = Discriminator.build(2, 1, hidden=(4, 3), seed=7)
    rng = np.random.default_rng(0)
    h, g = rng.standard_normal((6, 3)), rng.standard_normal((6, 1))

    def grads(rows):
        _, cache = mlp_forward(disc.spec, disc.params, h[rows])
        return mlp_backward(disc.spec, disc.params, cache, g[rows],
                            grads_out=fresh_grads(disc.params))[0]

    for whole, a, b in zip(grads(slice(None)), grads(slice(0, 3)), grads(slice(3, None))):
        np.testing.assert_allclose(whole, a + b, rtol=1e-12, atol=1e-15)


def test_non_scalar_root_rejected():
    # the losses take one logit per row
    with pytest.raises(ValueError, match="logits shape"):
        d_loss_total(np.zeros((2, 2)), LossSpec(), np.zeros((2, 1)))


def test_shape_mismatch_names_op_and_shapes():
    gen = Generator.build(3, 2, hidden=(4,), seed=0)
    with pytest.raises(ValueError, match=r"gen_forward: input dim 5 != spec input 3"):
        gen_forward(gen, np.ones((2, 5)))
    disc = Discriminator.build(3, 2, hidden=(4,), seed=0)
    with pytest.raises(ValueError, match=r"disc_forward: fused dim 6 != spec input 5"):
        disc_forward(disc, np.ones((2, 3)), np.ones((2, 3)))


def test_minimum_routes_gradient_to_smaller_operand():
    # the hinge cost relu(1 - s*l) is -min(s*l - 1, 0): a row whose margin is
    # met gets no gradient, a row short of it gets -s * lambda / B
    logits = np.array([[2.0], [0.5], [-2.0], [-0.5]])  # real: met, short; gen: met, short
    _, grad = d_loss_total(logits, LossSpec("hinge_classic", (1, 1, 0, 0)), np.zeros((4, 1)))
    np.testing.assert_array_equal(grad, [[0.0], [-0.5], [0.0], [0.5]])


def test_bias_broadcast_gradient_sums_over_batch():
    spec = MlpSpec((3, 4, 2))
    params = _unpack(init_params(spec, 1), spec)
    _, cache = mlp_forward(spec, params, np.ones((5, 3)))
    g_out = np.arange(10.0).reshape(5, 2)
    grads, _ = mlp_backward(spec, params, cache, g_out, grads_out=fresh_grads(params))
    np.testing.assert_array_equal(grads[-1], g_out.sum(axis=0))
    np.testing.assert_array_equal(grads[-2], cache[1].T @ g_out)


def test_softplus_exact_in_both_tails():
    # at |l| = 40 a sigmoid clamped in a log has lost everything; softplus has not
    value, slope = _softplus(np.array([-40.0, 40.0]))
    assert value[1] == 40.0
    np.testing.assert_allclose(value[0], math.exp(-40.0), rtol=1e-15)
    assert slope[1] == 1.0
    np.testing.assert_allclose(slope[0], math.exp(-40.0), rtol=1e-15)


def test_softplus_finite_far_out():
    value, slope = _softplus(np.array([-1e4, 1e4]))
    np.testing.assert_array_equal(value, [0.0, 1e4])
    np.testing.assert_array_equal(slope, [0.0, 1.0])


def test_values_stay_finite_at_saturation():
    big = np.array([-1e4, 1e4])
    for v in (big, -big):
        assert all(np.all(np.isfinite(part)) for part in _sigmoid_parts(v))
        assert all(np.all(np.isfinite(part)) for part in _softplus(v))


def test_determinism_bitwise():
    def build(seed):
        rng = np.random.default_rng(seed)
        spec = MlpSpec((3, 3, 1), output_activation="tanh")
        params = [rng.standard_normal(shape) for shape in spec.param_shapes()]
        out, cache = mlp_forward(spec, params, rng.standard_normal((2, 3)))
        grads, g_in = mlp_backward(spec, params, cache, np.full(out.shape, 0.5),
                                   grads_out=fresh_grads(params))
        return [out, g_in, *grads]

    for a, b in zip(build(11), build(11)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_finite_differences_on_random_expressions(seed):
    # each seed draws a depth, widths and output activation
    rng = np.random.default_rng(seed)
    widths = tuple(int(w) for w in rng.integers(2, 5, size=rng.integers(3, 5)))
    spec = MlpSpec(widths, output_activation=OUTPUT_ACTIVATIONS[seed % len(OUTPUT_ACTIVATIONS)])
    params = [rng.normal(0, 0.8, shape) for shape in spec.param_shapes()]
    h = rng.normal(0, 1.0, (3, widths[0]))
    assert_gradients_match_fd(spec, params, h, rng.uniform(0.5, 1.5, (3, widths[-1])))


def test_finite_differences_through_generator_and_concat():
    # a tanh G output, fused with x into D, under the non-saturating G loss
    rng = np.random.default_rng(7)
    g_spec, d_spec = MlpSpec((2, 4, 3), output_activation="tanh"), MlpSpec((5, 4, 1))
    g_params = [rng.normal(0, 0.7, shape) for shape in g_spec.param_shapes()]
    d_params = [rng.normal(0, 0.7, shape) for shape in d_spec.param_shapes()]
    x = rng.normal(0, 1.0, (3, 2))
    spec = LossSpec()

    def loss():
        y_g = mlp_forward(g_spec, g_params, x)[0]
        logit = mlp_forward(d_spec, d_params, np.concatenate([x, y_g], axis=1))[0]
        return g_loss(logit, spec)[0]["g_total"]

    y_g, g_cache = mlp_forward(g_spec, g_params, x)
    logit, d_cache = mlp_forward(d_spec, d_params, np.concatenate([x, y_g], axis=1))
    _, g_logit, _ = g_loss(logit, spec)
    _, g_fused = mlp_backward(d_spec, d_params, d_cache, g_logit)
    grads, _ = mlp_backward(g_spec, g_params, g_cache, g_fused[:, 2:],
                            grads_out=fresh_grads(g_params))
    for p, analytic in zip(g_params, grads):
        np.testing.assert_allclose(analytic, central_differences(loss, p),
                                   rtol=1e-5, atol=1e-8)


# -- property tests: each nonlinearity against central finite differences --

# name -> output activation; every hidden layer is a leaky-ReLU of slope HIDDEN_SLOPE
MLP_NONLINEARITIES = {"leaky_relu": "identity", "tanh": "tanh"}

_away_from_zero = st.floats(-1.5, -0.05) | st.floats(0.05, 1.5)


@st.composite
def _mlp_cases(draw, activation, widths=None):
    widths = widths or tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=4)))
    spec = MlpSpec(widths, output_activation=activation)
    params = [draw(hnp.arrays(np.float64, shape, elements=_away_from_zero))
              for shape in spec.param_shapes()]
    h = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)), widths[0]),
                        elements=_away_from_zero))
    weights = draw(hnp.arrays(np.float64, (h.shape[0], widths[-1]),
                              elements=st.floats(0.5, 1.5)))
    return spec, params, h, weights


def _pre_activations_clear_of_kink(spec, params, h, margin=1e-3):
    """No hidden pre-activation within `margin` of the leaky-ReLU kink at 0."""
    for i in range(len(spec.widths) - 2):
        h = h @ params[2 * i] + params[2 * i + 1]
        if np.any(np.abs(h) < margin):
            return False
        h = np.where(h > 0, h, HIDDEN_SLOPE * h)
    return True


def test_every_op_has_a_property_test():
    # every output activation of nets
    assert set(MLP_NONLINEARITIES.values()) == set(OUTPUT_ACTIVATIONS)


@pytest.mark.parametrize("name", sorted([*MLP_NONLINEARITIES, "softplus"]))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_unary_op_gradients_match_finite_differences(name, data):
    if name == "softplus":
        a = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3),
                                 elements=st.floats(-6.0, 6.0)))
        w = np.random.default_rng(0).uniform(0.5, 1.5, a.shape)
        numeric = central_differences(lambda: float((w * _softplus(a)[0]).sum()), a)
        np.testing.assert_allclose(w * _softplus(a)[1], numeric, rtol=1e-5, atol=1e-7)
        return
    spec, params, h, weights = data.draw(_mlp_cases(MLP_NONLINEARITIES[name]))
    assume(_pre_activations_clear_of_kink(spec, params, h))
    assert_gradients_match_fd(spec, params, h, weights)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), k=st.integers(1, 3), m=st.integers(1, 3))
def test_matmul_and_concat_gradients_match_finite_differences(data, n, k, m):
    # D's input gradient, split at dim_x, against differences in x and in y apart
    spec, params, _, _ = data.draw(_mlp_cases("identity", widths=(k + m, 3, 1)))
    disc = Discriminator(spec, np.concatenate([p.ravel() for p in params]))
    x = data.draw(hnp.arrays(np.float64, (n, k), elements=_away_from_zero))
    y = data.draw(hnp.arrays(np.float64, (n, m), elements=_away_from_zero))
    w = data.draw(hnp.arrays(np.float64, (n, 1), elements=st.floats(0.5, 1.5)))
    fused = np.concatenate([x, y], axis=1)
    assume(_pre_activations_clear_of_kink(spec, params, fused))

    def loss():
        return float((disc_forward(disc, x, y)[0] * w).sum())

    _, cache = mlp_forward(spec, params, fused)
    _, g_in = mlp_backward(spec, params, cache, w)
    np.testing.assert_allclose(g_in[:, :k], central_differences(loss, x), rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(g_in[:, k:], central_differences(loss, y), rtol=1e-5, atol=1e-7)
