import numpy as np
import pytest

from cganlab.nets import (
    Discriminator,
    Generator,
    MlpSpec,
    disc_forward,
    gen_forward,
    init_params,
    mlp_backward,
    mlp_forward,
    params_from_jsonable,
    params_to_jsonable,
)


def test_init_deterministic_from_seed():
    spec = MlpSpec((4, 8, 2))
    a = init_params(spec, 123)
    b = init_params(spec, 123)
    for pa, pb in zip(a, b):
        assert pa.tobytes() == pb.tobytes()


def test_init_weight_std_near_002():
    # ~1M weights: the sample std pins down the 0.02 target tightly
    spec = MlpSpec((1024, 512, 1024, 1))
    params = init_params(spec, 0)
    weights = np.concatenate([p.ravel() for p in params[::2]])
    assert weights.size >= 1_000_000
    assert 0.0195 <= weights.std() <= 0.0205


def test_init_biases_exactly_zero():
    params = init_params(MlpSpec((4, 8, 2)), 5)
    for b in params[1::2]:
        assert np.all(b == 0.0)


def test_spec_needs_hidden_layer():
    with pytest.raises(ValueError):
        MlpSpec((4, 2))


def test_spec_refuses_negative_slope():
    # the backward pass reads the leaky-ReLU mask from the layer output
    with pytest.raises(ValueError, match="hidden_slope"):
        MlpSpec((4, 8, 2), hidden_slope=-0.1)


def test_zero_generator_identity_output_is_zero():
    gen = Generator.build(3, 2, hidden=(8,), seed=0)
    gen.params = [np.zeros_like(p) for p in gen.params]
    out = gen_forward(gen, np.ones((5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_batch_size_preserved():
    gen = Generator.build(3, 2, seed=1)
    assert gen_forward(gen, np.ones((8, 3))).shape == (8, 2)


def test_gen_forward_deterministic():
    gen = Generator.build(3, 2, seed=2)
    x = np.random.default_rng(0).standard_normal((6, 3))
    a = gen_forward(gen, x)
    b = gen_forward(gen, x)
    assert a.tobytes() == b.tobytes()


def test_noise_contract():
    gen = Generator.build(3, 2, noise_dim=4, seed=0)
    x = np.ones((2, 3))
    with pytest.raises(ValueError):
        gen_forward(gen, x)  # z required
    out = gen_forward(gen, x, np.zeros((2, 4)))
    assert out.shape == (2, 2)
    no_noise = Generator.build(3, 2, seed=0)
    with pytest.raises(ValueError):
        gen_forward(no_noise, x, np.zeros((2, 4)))  # z forbidden


def test_zero_discriminator_logit_zero_prob_half():
    disc = Discriminator.build(3, 2, hidden=(8,), seed=0)
    disc.params = [np.zeros_like(p) for p in disc.params]
    x, y = np.ones((4, 3)), np.ones((4, 2))
    logit = disc_forward(disc, x, y)
    np.testing.assert_array_equal(logit, np.zeros((4, 1)))
    np.testing.assert_array_equal(1.0 / (1.0 + np.exp(-logit)), np.full((4, 1), 0.5))


def test_batch_permutation_equivariance():
    # no cross-sample coupling: permuting the batch permutes outputs
    disc = Discriminator.build(3, 2, seed=5)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((10, 3)), rng.standard_normal((10, 2))
    perm = rng.permutation(10)
    out = disc_forward(disc, x, y)
    out_p = disc_forward(disc, x[perm], y[perm])
    # blocked matmul reorders float sums, so equality holds to the ulp level
    np.testing.assert_allclose(out[perm], out_p, rtol=1e-12, atol=1e-15)


def test_discriminator_output_width_enforced():
    with pytest.raises(ValueError):
        Discriminator(MlpSpec((5, 8, 2)), init_params(MlpSpec((5, 8, 2)), 0))


def test_disc_forward_batch_mismatch():
    disc = Discriminator.build(3, 2, seed=0)
    with pytest.raises(ValueError, match="batch sizes 4 and 5"):
        disc_forward(disc, np.ones((4, 3)), np.ones((5, 2)))


def test_gradients_flow_to_generator_params():
    gen = Generator.build(3, 2, hidden=(8,), seed=6)
    out, cache = mlp_forward(gen.spec, gen.params, np.ones((4, 3)))
    grads, g_in = mlp_backward(gen.spec, gen.params, cache, np.full(out.shape, 1.0 / out.size))
    assert [g.shape for g in grads] == [p.shape for p in gen.params]
    assert all(np.any(g != 0) for g in grads)
    assert g_in.shape == (4, 3)


def test_forward_matches_mlp_forward_and_caches_layer_inputs():
    disc = Discriminator.build(3, 2, hidden=(8, 6), seed=4)
    x, y = np.ones((5, 3)), np.full((5, 2), -0.5)
    out, cache = mlp_forward(disc.spec, disc.params, np.concatenate([x, y], axis=1))
    assert out.tobytes() == disc_forward(disc, x, y).tobytes()
    assert [c.shape for c in cache] == [(5, 5), (5, 8), (5, 6), (5, 1)]
    assert cache[-1] is out


@pytest.mark.parametrize("activation", ["tanh", "sigmoid", "softmax"])
def test_outputs_and_gradients_finite_at_saturation(activation):
    # pre-activations of +-1e4 saturate every output without overflow
    spec = MlpSpec((2, 3, 2), output_activation=activation)
    params = [np.zeros((2, 3)), np.array([1.0, 1.0, 1.0]),
              np.full((3, 2), 1e4 / 3), np.array([0.0, -2e4])]
    out, cache = mlp_forward(spec, params, np.zeros((2, 2)))
    grads, g_in = mlp_backward(spec, params, cache, np.ones_like(out))
    assert np.all(np.isfinite(out))
    assert all(np.all(np.isfinite(g)) for g in grads) and np.all(np.isfinite(g_in))


def test_params_jsonable_round_trip_exact():
    params = init_params(MlpSpec((4, 8, 2)), 9)
    back = params_from_jsonable(params_to_jsonable(params))
    for a, b in zip(params, back):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
