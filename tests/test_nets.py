import numpy as np
import pytest

from cganlab.autodiff import Graph, ShapeMismatch, backward
from cganlab.nets import (
    Discriminator,
    Generator,
    MlpSpec,
    bind_params,
    disc_forward,
    gen_forward,
    init_params,
    param_count,
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


def test_param_count_closed_form():
    spec = MlpSpec((10, 128, 128, 1))
    expected = 10 * 128 + 128 + 128 * 128 + 128 + 128 * 1 + 1
    assert param_count(spec) == expected
    assert sum(p.size for p in init_params(spec, 0)) == expected


def test_spec_needs_hidden_layer():
    with pytest.raises(ValueError):
        MlpSpec((4, 2))


def test_zero_generator_identity_output_is_zero():
    gen = Generator.build(3, 2, hidden=(8,), seed=0)
    gen.params = [np.zeros_like(p) for p in gen.params]
    out = gen_forward(gen, np.ones((5, 3)))
    np.testing.assert_array_equal(out.values, np.zeros((5, 2)))


def test_batch_size_preserved():
    gen = Generator.build(3, 2, seed=1)
    assert gen_forward(gen, np.ones((8, 3))).shape == (8, 2)


def test_gen_forward_deterministic():
    gen = Generator.build(3, 2, seed=2)
    x = np.random.default_rng(0).standard_normal((6, 3))
    a = gen_forward(gen, x).values
    b = gen_forward(gen, x).values
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
    np.testing.assert_array_equal(logit.values, np.zeros((4, 1)))
    np.testing.assert_array_equal(logit.sigmoid().values, np.full((4, 1), 0.5))


def test_batch_permutation_equivariance():
    # no cross-sample coupling: permuting the batch permutes outputs
    disc = Discriminator.build(3, 2, seed=5)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((10, 3)), rng.standard_normal((10, 2))
    perm = rng.permutation(10)
    out = disc_forward(disc, x, y).values
    out_p = disc_forward(disc, x[perm], y[perm]).values
    # blocked matmul reorders float sums, so equality holds to the ulp level
    np.testing.assert_allclose(out[perm], out_p, rtol=1e-12, atol=1e-15)


def test_discriminator_output_width_enforced():
    with pytest.raises(ValueError):
        Discriminator(MlpSpec((5, 8, 2)), init_params(MlpSpec((5, 8, 2)), 0))


def test_disc_forward_batch_mismatch():
    disc = Discriminator.build(3, 2, seed=0)
    with pytest.raises(ShapeMismatch):
        disc_forward(disc, np.ones((4, 3)), np.ones((5, 2)))


def test_gradients_flow_to_generator_params():
    gen = Generator.build(3, 2, hidden=(8,), seed=6)
    g = Graph()
    ps = bind_params(gen, g)
    out = gen_forward(gen, np.ones((4, 3)), params=ps)
    table = backward(out.mean())
    assert any(np.any(table.get(p.node_id, 0) != 0) for p in ps)


def test_params_jsonable_round_trip_exact():
    params = init_params(MlpSpec((4, 8, 2)), 9)
    back = params_from_jsonable(params_to_jsonable(params))
    for a, b in zip(params, back):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
