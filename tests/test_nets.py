import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cganlab import nets
from cganlab.nets import (
    OUTPUT_ACTIVATIONS,
    Discriminator,
    Generator,
    MlpSpec,
    _leaky_relu_inplace,
    _pack,
    _unpack,
    decode_vector,
    disc_forward,
    encode_vector,
    gen_forward,
    init_params,
    mlp_backward,
    mlp_forward,
)


def fresh_grads(params):
    """A gradient buffer for `mlp_backward`; an entry it does not write reads NaN."""
    return [np.full_like(p, np.nan) for p in params]


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


@pytest.mark.parametrize("field, value, message", [
    ("hidden_slope", 1.5, "hidden_slope"),
    ("output_activation", "sigmoid", "output activation"),
    ("output_activation", "softmax", "output activation"),
], ids=["slope-1.5", "sigmoid", "softmax"])
def test_spec_refuses_slope_above_one_and_removed_outputs(field, value, message):
    # above slope 1, max(h, s * h) is no longer the leaky-ReLU
    with pytest.raises(ValueError, match=message):
        MlpSpec((4, 8, 2), **{field: value})


@pytest.mark.parametrize("width", [8.0, 8.5, True, "8"], ids=["float", "fraction", "bool", "str"])
def test_spec_refuses_a_width_that_is_not_an_integer(width):
    # int(8.5) would build an 8-wide layer from a spec that asked for 8.5
    with pytest.raises(ValueError, match="widths must be positive integers"):
        MlpSpec((4, width, 2))


def test_spec_keeps_numpy_integer_widths_as_ints():
    spec = MlpSpec((np.int64(4), np.int32(8), 2))
    assert spec.widths == (4, 8, 2) and all(type(w) is int for w in spec.widths)


@pytest.mark.parametrize("noise_dim", [2.0, True, np.int64(2), -1],
                         ids=["float", "bool", "numpy", "negative"])
def test_generator_refuses_a_noise_dim_that_is_not_a_non_negative_int(noise_dim):
    # a checkpoint stores noise_dim as a JSON int, which a numpy integer is not
    spec = MlpSpec((5, 8, 2))
    with pytest.raises(ValueError, match="noise_dim must be a non-negative int"):
        Generator(spec, _pack(init_params(spec, 0), spec, "generator params"), noise_dim)


def test_zero_generator_identity_output_is_zero():
    gen = Generator.build(3, 2, hidden=(8,), seed=0)
    gen.flat[:] = 0.0  # a network changes only through writes into its vector
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen.params = [np.zeros_like(p) for p in gen.params]
    out, _ = gen_forward(gen, np.ones((5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_batch_size_preserved():
    gen = Generator.build(3, 2, seed=1)
    assert gen_forward(gen, np.ones((8, 3)))[0].shape == (8, 2)


def test_gen_forward_deterministic():
    gen = Generator.build(3, 2, seed=2)
    x = np.random.default_rng(0).standard_normal((6, 3))
    a, _ = gen_forward(gen, x)
    b, _ = gen_forward(gen, x)
    assert a.tobytes() == b.tobytes()


def test_noise_contract():
    gen = Generator.build(3, 2, noise_dim=4, seed=0)
    x = np.ones((2, 3))
    with pytest.raises(ValueError, match="noise_dim > 0 but no rng"):
        gen_forward(gen, x)  # rng required
    out, _ = gen_forward(gen, x, np.random.default_rng(0))
    assert out.shape == (2, 2)
    no_noise = Generator.build(3, 2, seed=0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert gen_forward(no_noise, x, rng)[0].tobytes() == gen_forward(no_noise, x)[0].tobytes()
    assert rng.bit_generator.state == state  # rng unused


@settings(max_examples=40, deadline=None)
@given(noise_dim=st.sampled_from([0, 1, 3]), n=st.sampled_from([1, 2, 7, 64]),
       seed=st.integers(0, 2**32 - 1))
def test_gen_forward_is_mlp_forward_on_x_and_its_own_noise(noise_dim, n, seed):
    # gen_forward draws z from rng after nothing else, so a copy of rng
    # that draws the same shape rebuilds its input [x | z] bit for bit
    gen = Generator.build(3, 2, hidden=(8, 5), noise_dim=noise_dim, seed=seed % 97)
    x = np.random.default_rng([seed, 1]).standard_normal((n, 3))
    rng = np.random.default_rng(seed)
    rng2 = copy.deepcopy(rng)
    before = rng.bit_generator.state
    out, cache = gen_forward(gen, x, rng)
    h = np.concatenate([x, rng2.standard_normal((n, noise_dim))], axis=1)
    expected, expected_cache = mlp_forward(gen.spec, gen.params, h)
    assert out.tobytes() == expected.tobytes()
    assert [c.tobytes() for c in cache] == [c.tobytes() for c in expected_cache]
    assert rng.bit_generator.state == rng2.bit_generator.state
    if noise_dim == 0:
        assert rng.bit_generator.state == before  # nothing drawn


def test_zero_discriminator_logit_zero_prob_half():
    disc = Discriminator.build(3, 2, hidden=(8,), seed=0)
    disc.flat[:] = 0.0
    x, y = np.ones((4, 3)), np.ones((4, 2))
    logit, _ = disc_forward(disc, x, y)
    np.testing.assert_array_equal(logit, np.zeros((4, 1)))
    np.testing.assert_array_equal(1.0 / (1.0 + np.exp(-logit)), np.full((4, 1), 0.5))


def test_batch_permutation_equivariance():
    # no cross-sample coupling: permuting the batch permutes outputs
    disc = Discriminator.build(3, 2, seed=5)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((10, 3)), rng.standard_normal((10, 2))
    perm = rng.permutation(10)
    out, _ = disc_forward(disc, x, y)
    out_p, _ = disc_forward(disc, x[perm], y[perm])
    # blocked matmul reorders float sums, so equality holds to the ulp level
    np.testing.assert_allclose(out[perm], out_p, rtol=1e-12, atol=1e-15)


def test_discriminator_output_width_enforced():
    spec = MlpSpec((5, 8, 2))
    with pytest.raises(ValueError, match="output width must be 1"):
        Discriminator(spec, _pack(init_params(spec, 0), spec, "discriminator params"))


@pytest.mark.parametrize("net", [Generator, Discriminator])
@pytest.mark.parametrize("damage, message", [
    (lambda ps: ps[:-1], "params: 5 arrays, expected 6"),
    (lambda ps: [ps[0], np.zeros(1), *ps[2:]], r"params\[1\] has shape \[1\], expected \[8\]"),
    (lambda ps: [ps[0].T, *ps[1:]], r"params\[0\] has shape \[8, 3\], expected \[3, 8\]"),
], ids=["count", "bias", "transposed_weight"])
def test_params_that_do_not_fit_the_spec_refused(net, damage, message):
    # a list becomes a vector only through _pack, which names the misfit;
    # a network takes a vector of exactly the spec's parameter count
    spec = MlpSpec((3, 8, 4, 1))
    with pytest.raises(ValueError, match=message):
        _pack(damage(init_params(spec, 0)), spec, "params")
    flat = _pack(init_params(spec, 0), spec, "params")
    for bad, got in [(flat[:-1], r"float64 \[72\]"), (flat.astype(np.float32), r"float32 \[73\]"),
                     (flat.reshape(1, -1), r"float64 \[1, 73\]"), (list(flat), "list")]:
        with pytest.raises(ValueError, match=f"vector of 73 elements, got {got}"):
            net(spec, bad)


def test_disc_forward_batch_mismatch():
    disc = Discriminator.build(3, 2, seed=0)
    with pytest.raises(ValueError, match="batch sizes 4 and 5"):
        disc_forward(disc, np.ones((4, 3)), np.ones((5, 2)))


def test_gradients_flow_to_generator_params():
    gen = Generator.build(3, 2, hidden=(8,), seed=6)
    out, cache = mlp_forward(gen.spec, gen.params, np.ones((4, 3)))
    grads, g_in = mlp_backward(gen.spec, gen.params, cache, np.full(out.shape, 1.0 / out.size),
                               grads_out=fresh_grads(gen.params))
    assert [g.shape for g in grads] == [p.shape for p in gen.params]
    assert all(np.any(g != 0) for g in grads)
    assert g_in.shape == (4, 3)


def test_forward_matches_mlp_forward_and_caches_layer_inputs():
    disc = Discriminator.build(3, 2, hidden=(8, 6), seed=4)
    x, y = np.ones((5, 3)), np.full((5, 2), -0.5)
    out, cache = mlp_forward(disc.spec, disc.params, np.concatenate([x, y], axis=1))
    d_out, d_cache = disc_forward(disc, x, y)
    assert out.tobytes() == d_out.tobytes()
    assert [c.tobytes() for c in cache] == [c.tobytes() for c in d_cache]
    assert [c.shape for c in cache] == [(5, 5), (5, 8), (5, 6), (5, 1)]
    assert cache[-1] is out and d_cache[-1] is d_out


@pytest.mark.parametrize("activation", ["tanh"])
def test_outputs_and_gradients_finite_at_saturation(activation):
    # pre-activations of +-1e4 saturate every output without overflow
    spec = MlpSpec((2, 3, 2), output_activation=activation)
    params = [np.zeros((2, 3)), np.array([1.0, 1.0, 1.0]),
              np.full((3, 2), 1e4 / 3), np.array([0.0, -2e4])]
    out, cache = mlp_forward(spec, params, np.zeros((2, 2)))
    grads, g_in = mlp_backward(spec, params, cache, np.ones_like(out),
                               grads_out=fresh_grads(params))
    assert np.all(np.isfinite(out))
    assert all(np.all(np.isfinite(g)) for g in grads) and np.all(np.isfinite(g_in))


def test_params_jsonable_round_trip_exact():
    spec = MlpSpec((4, 8, 2))
    flat = _pack(init_params(spec, 9), spec, "params")
    back = decode_vector(encode_vector(flat), spec.n_params, "params")
    assert back.shape == flat.shape == (spec.n_params,)
    assert back.tobytes() == flat.tobytes()


# -- the branchless select against the np.where formulation, bit for bit --

def _where_forward(spec, params, h):
    """`mlp_forward` with the hidden select written as np.where."""
    n_layers = len(spec.widths) - 1
    cache = []
    for i in range(n_layers):
        cache.append(h)
        h = h @ params[2 * i] + params[2 * i + 1]
        if i < n_layers - 1:
            h = np.where(h > 0, h, spec.hidden_slope * h)
    if spec.output_activation == "tanh":
        h = np.tanh(h)
    cache.append(h)
    return h, cache


def _where_backward(spec, params, cache, g_out):
    """`mlp_backward` with the hidden factor written as np.where."""
    out, g = cache[-1], g_out
    if spec.output_activation == "tanh":
        g = g * (1.0 - out * out)
    n_layers = len(spec.widths) - 1
    grads = [None] * (2 * n_layers)
    for i in reversed(range(n_layers)):
        if i < n_layers - 1:
            g = g * np.where(cache[i + 1] > 0, 1.0, spec.hidden_slope)
        grads[2 * i] = cache[i].T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ params[2 * i].T
    return grads, g


def assert_same_bits(a, b):
    # assert_array_equal alone takes -0.0 == +0.0 and NaN == NaN
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


SELECT_SLOPES = (0.0, 0.2, 1.0)
# exact zeros of both signs among weights, biases and inputs give zero
# pre-activations and, at slope 0, -0.0 hidden outputs
_with_signed_zeros = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)


@pytest.mark.parametrize("activation", OUTPUT_ACTIVATIONS)
@pytest.mark.parametrize("slope", SELECT_SLOPES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_mlp_matches_where_formulation_bitwise(slope, activation, data):
    _assert_mlp_matches_where(slope, activation, data)


@pytest.mark.parametrize("activation", OUTPUT_ACTIVATIONS)
@pytest.mark.parametrize("slope", SELECT_SLOPES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mlp_matches_where_formulation_bitwise_in_blocks(slope, activation, data):
    # hidden activations of up to 30 elements, so most take the blocked path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "_BLOCK", 3)
        _assert_mlp_matches_where(slope, activation, data)


def _assert_mlp_matches_where(slope, activation, data):
    widths = tuple(data.draw(st.lists(st.integers(1, 5), min_size=3, max_size=4)))
    spec = MlpSpec(widths, hidden_slope=slope, output_activation=activation)
    params = [data.draw(hnp.arrays(np.float64, p.shape, elements=_with_signed_zeros))
              for p in init_params(spec, 0)]
    rows = data.draw(st.integers(1, 6))
    h = data.draw(hnp.arrays(np.float64, (rows, widths[0]), elements=_with_signed_zeros))
    g_out = data.draw(hnp.arrays(np.float64, (rows, widths[-1]), elements=_with_signed_zeros))

    out, cache = mlp_forward(spec, params, h)
    ref_out, ref_cache = _where_forward(spec, params, h)
    assert_same_bits(out, ref_out)
    for c, r in zip(cache, ref_cache, strict=True):
        assert_same_bits(c, r)

    # written into views of one vector, as the trainer's AdamState.grads
    flat = np.full(sum(p.size for p in params), np.nan)
    grads_out = _unpack(flat, spec)
    grads, g_in = mlp_backward(spec, params, cache, g_out, grads_out=grads_out)
    ref_grads, ref_g_in = _where_backward(spec, params, ref_cache, g_out)
    assert grads is grads_out
    assert flat.tobytes() == np.concatenate([r.ravel() for r in ref_grads]).tobytes()
    for g, r in zip(grads, ref_grads, strict=True):
        assert_same_bits(g, r)
    assert_same_bits(g_in, ref_g_in)

    # the skipped halves are None; what is computed stays the same bits
    only_params, no_input = mlp_backward(spec, params, cache, g_out,
                                         grads_out=fresh_grads(params), input_grad=False)
    no_params, only_input = mlp_backward(spec, params, cache, g_out)
    assert no_input is None and no_params is None
    for g, r in zip(only_params, ref_grads, strict=True):
        assert_same_bits(g, r)
    assert_same_bits(only_input, ref_g_in)


@pytest.mark.parametrize("slope", SELECT_SLOPES)
def test_leaky_select_exact_at_signed_zero(slope):
    # a matmul sums from +0.0, so -0.0 pre-activations are fed to the select itself
    tiny = np.finfo(np.float64).smallest_subnormal
    h = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0, 1e308, -1e308, np.nan])
    if slope > 0:  # at slope 0, 0 * inf is NaN: +inf is the one documented gap
        h = np.append(h, [np.inf, -np.inf])
    expected = np.where(h > 0, h, slope * h)
    _leaky_relu_inplace(h, slope)
    assert_same_bits(h, expected)
    assert np.signbit(h[1]) and not np.signbit(h[0])


_TINY = np.finfo(np.float64).smallest_subnormal
# quiet NaNs of both signs: the ones arithmetic makes (module docstring)
_SPECIAL = [0.0, -0.0, _TINY, -_TINY, np.nan, -np.nan, np.inf, -np.inf, 1e308, -1e308]


def _blocked_shape(case, block, draw):
    if case == "one_block":  # the one-call form
        width = draw(st.integers(1, block))
        return (draw(st.integers(1, block // width)), width)
    if case == "blocks_and_remainder":
        size = draw(st.integers(2, 4)) * block + draw(st.integers(1, block - 1))
        width = draw(st.sampled_from([w for w in range(1, block + 1) if size % w == 0]))
        return (size // width, width)
    if case == "row_wider_than_block":
        return (draw(st.integers(1, 4)), draw(st.integers(block + 1, block + 6)))
    return (draw(st.integers(block + 1, 5 * block + 3)),)  # 1-D


@pytest.mark.parametrize("block, case", [
    (1, "one_block"), (3, "one_block"), (8, "one_block"),
    (3, "blocks_and_remainder"), (8, "blocks_and_remainder"),
    (1, "row_wider_than_block"), (3, "row_wider_than_block"), (8, "row_wider_than_block"),
    (1, "1-D"), (3, "1-D"), (8, "1-D"),
])
@pytest.mark.parametrize("slope", SELECT_SLOPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_leaky_select_in_blocks_matches_where_bitwise(slope, block, case, data):
    shape = _blocked_shape(case, block, data.draw)
    special = [v for v in _SPECIAL if slope > 0 or v != np.inf]  # +inf at slope 0: the gap
    h = data.draw(hnp.arrays(np.float64, shape,
                             elements=st.sampled_from(special) | st.floats(-2.0, 2.0)))
    with np.errstate(invalid="ignore"):  # 0 * -inf
        expected = np.where(h > 0, h, slope * h)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nets, "_BLOCK", block)
            _leaky_relu_inplace(h, slope)
    assert_same_bits(h, expected)


def test_gen_forward_peak_memory_two_activations():
    # 8,192 one-hot rows through (256, 256) hidden layers: one activation
    # is 16.8 MB. A layer's input and output must coexist, which is 2;
    # a full-size slope * h beside them would make it 3.
    gen = Generator.build(32, 2, hidden=(256, 256), seed=0)
    x = np.eye(32)[np.arange(8192) % 32]
    activation_bytes = 8192 * 256 * 8
    tracemalloc.start()
    try:
        out, _ = gen_forward(gen, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * activation_bytes
    assert_same_bits(out, _where_forward(gen.spec, gen.params, x)[0])


def test_cache_free_gen_forward_peak_memory_half_an_activation_and_a_block():
    # the same pass without a cache: both hidden layers and the 2-wide
    # output layer run in blocks of 2,048 rows, so the peak is two blocks
    # (a layer's input and output, half an activation here) and no
    # full-size array; keeping the last hidden layer whole would make it 1.27
    gen = Generator.build(32, 2, hidden=(256, 256), seed=0)
    x = np.eye(32)[np.arange(8192) % 32]
    activation_bytes = 8192 * 256 * 8
    tracemalloc.start()
    try:
        out, cache = gen_forward(gen, x, cache=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache is None
    assert peak < 0.75 * activation_bytes
    assert_same_bits(out, _where_forward(gen.spec, gen.params, x)[0])


@pytest.mark.parametrize("k, w, n, n_blocks", [
    # the smallest blocks the rule admits: 10^6 // (k * w) + 1 rows each
    (256, 2, 2 * 1_954, 2), (128, 2, 2 * 3_907, 2), (128, 4, 3 * 1_954, 3),
    # the blocks `_forward_uncached` takes at the benchmark's sizes
    (256, 2, 16_000, 7), (128, 2, 8_000, 2), (128, 4, 8_000, 3),
])
def test_narrow_product_in_row_blocks_above_the_small_gemm_cutoff_keeps_its_bits(k, w, n, n_blocks):
    # the premise of the blocked output layer (`nets` module docstring):
    # above OpenBLAS's small-matrix cut-off a row block of an (n, k) @ (k, w)
    # product has the whole product's bits; a numpy or BLAS upgrade that
    # breaks this fails here first
    bounds = [i * n // n_blocks for i in range(n_blocks + 1)]  # as `_forward_uncached` splits
    assert min(np.diff(bounds)) * k * w > nets._SMALL_GEMM
    make = np.random.default_rng([k, w, n])
    a = make.standard_normal((n, k))
    _leaky_relu_inplace(a, 0.2)
    weights = make.standard_normal((k, w))
    blocked = np.empty((n, w))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        np.matmul(a[start:stop], weights, out=blocked[start:stop])
    assert_same_bits(blocked, a @ weights)


_R = nets._ROWS


@pytest.mark.parametrize("activation", OUTPUT_ACTIVATIONS)
@pytest.mark.parametrize("slope", SELECT_SLOPES)
@settings(max_examples=8, deadline=None)
@example(hidden=[128, 2], rows=2 * _R, noise_dim=2, dim_y=2, fortran=False, seed=0)
@example(hidden=[128, 1], rows=2 * _R + 1, noise_dim=0, dim_y=5, fortran=False, seed=1)
@example(hidden=[128], rows=5 * _R + 3, noise_dim=0, dim_y=2, fortran=True, seed=2)
# the output layer blocked (2 blocks of 3,907 rows), kept whole (3,906
# rows a block would be too few), and the benchmark's 256-wide generator
@example(hidden=[128], rows=7_814, noise_dim=0, dim_y=2, fortran=False, seed=3)
@example(hidden=[128], rows=7_812, noise_dim=2, dim_y=2, fortran=False, seed=4)
@example(hidden=[256, 256], rows=16_000, noise_dim=0, dim_y=2, fortran=False, seed=5)
# 1-wide outputs stay whole: in 3 blocks of 4,001 rows their gemv would change bits
@example(hidden=[256], rows=12_003, noise_dim=0, dim_y=1, fortran=False, seed=6)
@given(hidden=st.lists(st.sampled_from([1, 2, 4, 8, 16, 128]), min_size=1, max_size=2),
       rows=st.sampled_from([2 * _R - 1, 2 * _R, 2 * _R + 1, 5 * _R + 3]),
       noise_dim=st.sampled_from([0, 2]), dim_y=st.sampled_from([1, 2, 5]),
       fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_cache_free_forward_is_the_cached_output_bit_for_bit(
        slope, activation, hidden, rows, noise_dim, dim_y, fortran, seed):
    # row-blocked from 2 * _ROWS rows when every hidden layer is at least 8
    # wide; a product 1 to 4 wide changes its bits with its row count below
    # OpenBLAS's small-matrix cut-off (the examples do, on OpenBLAS 0.3.31),
    # so such an output layer is blocked only above it, and a hidden layer
    # that narrow takes the unblocked pass
    dim_x = 3
    make = np.random.default_rng(seed)
    g_spec = MlpSpec((dim_x + noise_dim, *hidden, dim_y), slope, activation)
    d_spec = MlpSpec((dim_x + dim_y, *hidden, 1), slope, activation)
    gen = Generator(g_spec, make.standard_normal(sum(map(np.prod, g_spec.param_shapes()))),
                    noise_dim)
    disc = Discriminator(d_spec, make.standard_normal(sum(map(np.prod, d_spec.param_shapes()))))
    x = make.standard_normal((rows, dim_x))
    if fortran:
        x = np.asfortranarray(x)
    rng, rng_free = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])

    y, gen_cache = gen_forward(gen, x, rng)
    y_free, none = gen_forward(gen, x, rng_free, cache=False)
    assert gen_cache is not None and none is None
    assert_same_bits(y_free, y)
    assert rng_free.bit_generator.state == rng.bit_generator.state

    logit, disc_cache = disc_forward(disc, x, y)
    logit_free, none = disc_forward(disc, x, y, cache=False)
    assert disc_cache is not None and none is None
    assert_same_bits(logit_free, logit)
