import copy
import json
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cganlab import nets
from cganlab import trainer as tr
from cganlab.losses import LossSpec, g_loss
from cganlab.nets import (
    Discriminator,
    Generator,
    MlpSpec,
    _unpack,
    decode_vector,
    disc_forward,
    encode_vector,
    gen_forward,
    init_params,
)
from cganlab.pairing import ConditionalDataset, sample_pair_batch
from cganlab.tasks import GaussModesTask, sample_dataset
from cganlab.trainer import (
    AdamState,
    CheckpointError,
    FreezeViolation,
    TrainConfig,
    TrainingDiverged,
    TrainState,
    adam_step,
    load_checkpoint,
    optimal_discriminator_phase,
    save_checkpoint,
    train,
)

from finite_differences import central_differences


def small_dataset(n=320, seed=0):
    return sample_dataset(GaussModesTask(), n, seed)


def small_nets(seed=0):
    task = GaussModesTask()
    gen = Generator.build(task.dim_x, task.dim_y, hidden=(16, 16), seed=seed * 2 + 1)
    disc = Discriminator.build(task.dim_x, task.dim_y, hidden=(16, 16), seed=seed * 2 + 2)
    return gen, disc


def small_config(epochs, formulation="acontrario", seed=0, **kw):
    lam = (1, 1, 1, 1) if "acontrario" in formulation else (1, 1, 0, 0)
    return TrainConfig(epochs=epochs, batch_size=32, seed=seed,
                       loss=LossSpec(formulation, lam), **kw)


# -- adam ----------------------------------------------------------------

def fresh_adam(n):
    return AdamState(np.zeros(n), np.zeros(n))


def test_adam_zero_gradient_is_fixed_point():
    params = np.array([1.0, -2.0, 1.0, 1.0, 1.0, 1.0])
    before = params.copy()
    adam_step(params, np.zeros(6), fresh_adam(6), 0.1, 0.5, 0.999)
    assert params.tobytes() == before.tobytes()


def test_adam_first_step_is_signed_lr():
    # first bias-corrected step reduces to -lr * sign(g), up to the epsilon
    params = np.zeros(3)
    g = np.array([3.0, -0.2, 1e-3])
    adam_step(params, g, fresh_adam(3), lr=0.01, beta1=0.5, beta2=0.999)
    np.testing.assert_allclose(params, -0.01 * np.sign(g), rtol=1e-4)


def test_adam_trajectory_deterministic():
    def run():
        params = np.full(3, 0.5)
        state = fresh_adam(3)
        rng = np.random.default_rng(4)
        for _ in range(50):
            adam_step(params, rng.standard_normal(3), state, 1e-3, 0.9, 0.999)
        return params

    assert run().tobytes() == run().tobytes()


def _reference_adam(params, m, v, t, grads, lr, beta1, beta2, eps=1e-8):
    """One Adam step array by array, in the formula `adam_step` must match bit for bit."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m_, v_ in zip(params, grads, m, v):
        m_[...] = beta1 * m_ + (1.0 - beta1) * g
        v_[...] = beta2 * v_ + (1.0 - beta2) * (g * g)
        p -= lr * (m_ / bc1) / (np.sqrt(v_ / bc2) + eps)


# signed zeros, subnormals and magnitudes whose squares overflow
_adam_values = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308])
                | st.floats(-1e200, 1e200, allow_subnormal=True))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=st.integers(1, 4),
       lr=st.sampled_from([2e-4, 1e-3, 0.1, 1.0]), beta1=st.sampled_from([0.0, 0.5, 0.9]),
       beta2=st.sampled_from([0.0, 0.9, 0.999]), t0=st.integers(0, 20) | st.just(10**6))
def test_adam_on_packed_vectors_matches_per_array_formula(data, steps, lr, beta1, beta2, t0):
    spec = MlpSpec(tuple(data.draw(st.lists(st.integers(1, 5), min_size=3, max_size=4))))

    def draw_arrays(elements=_adam_values):
        return [data.draw(hnp.arrays(np.float64, s, elements=elements))
                for s in spec.param_shapes()]

    def pack(arrays):
        return np.concatenate([a.ravel() for a in arrays])

    params = draw_arrays()
    m = draw_arrays()
    v = draw_arrays(st.floats(0.0, 1e200, allow_subnormal=True))
    ref = [[a.copy() for a in arrays] for arrays in (params, m, v)]
    packed = pack(params)
    state = AdamState(pack(m), pack(v), t=t0)
    for k in range(steps):
        grads = draw_arrays()
        with np.errstate(all="ignore"):  # squares overflow to inf, inf/inf is NaN
            _reference_adam(*ref, t0 + k + 1, grads, lr, beta1, beta2)
            adam_step(packed, pack(grads), state, lr, beta1, beta2)
    assert state.t == t0 + steps
    for got, want in zip((packed, state.m, state.v), ref, strict=True):
        assert got.tobytes() == pack(want).tobytes()


def _assert_views_of_flat(net):
    views = _unpack(net.flat, net.spec)
    for p, view in zip(net.params, views, strict=True):
        assert p.shape == view.shape and p.ctypes.data == view.ctypes.data
        assert np.shares_memory(p, net.flat)


def test_networks_and_adam_state_are_packed_however_built(tmp_path):
    d_spec = MlpSpec((3, 5, 4, 1))
    raw = [p.copy() for p in _unpack(init_params(d_spec, 1), d_spec)]
    direct = Discriminator(d_spec, np.concatenate([p.ravel() for p in raw]))
    assert not any(np.shares_memory(direct.flat, p) for p in raw)  # a copy
    assert [p.tobytes() for p in direct.params] == [p.tobytes() for p in raw]
    moments = AdamState(m=direct.flat.copy(), v=direct.flat ** 2, t=3)
    gen, disc = small_nets(2)
    fresh = AdamState.for_net(gen)
    path = tmp_path / "ck.json"
    # each network saved with moments of its own length, as a load requires
    save_checkpoint(gen, direct, TrainState(fresh, moments, np.random.default_rng(0)),
                    small_config(0), path)
    gen_l, disc_l, state_l, _ = load_checkpoint(path)
    for net in (gen, disc, direct, gen_l, disc_l):
        _assert_views_of_flat(net)
    for s, net in ((fresh, gen), (moments, direct), (state_l.adam_g, gen_l),
                   (state_l.adam_d, disc_l)):
        assert all(a.shape == net.flat.shape for a in (s.m, s.v, s.grads, *s.scratch))
    # a moment of another length, such as the other network's, is refused by name
    doc = json.loads(path.read_text())
    for key, other in (("m", gen.flat), ("v", np.zeros(direct.flat.size + 1))):
        bad = copy.deepcopy(doc)
        bad["adam_d"][key] = encode_vector(other)
        path.write_text(json.dumps(bad))
        with pytest.raises(CheckpointError, match=rf"adam_d\.{key} holds {8 * other.size} "
                                                   rf"bytes, expected {8 * direct.flat.size}"):
            load_checkpoint(path)


@pytest.mark.parametrize("shapes", [[(10, 128), (128,), (128, 128), (128,), (128, 1), (1,)],
                                    [(3, 517), (517,), (517, 1), (1,)]])
def test_mean_abs_grad_sums_array_by_array(shapes):
    # grad_norm_* goes into metrics.csv, so the flat sum keeps the per-array
    # order; one sum over the whole vector changes the mean at some seeds
    spec = MlpSpec((shapes[0][0], *[s[1] for s in shapes[::2]]))
    state = fresh_adam(sum(np.prod(s) for s in shapes))
    grads = _unpack(state.grads, spec)
    assert [g.shape for g in grads] == shapes
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for g in grads:
            g[...] = rng.standard_normal(g.shape)
        want = sum(float(np.abs(g).sum()) for g in grads) / state.grads.size
        assert tr._mean_abs_grad(state, grads) == want


def test_adam_shape_mismatch():
    for params, grads, state in [(np.zeros(3), np.zeros(4), fresh_adam(3)),
                                 (np.zeros((3, 1)), np.zeros(3), fresh_adam(3)),
                                 (np.zeros(3), np.zeros(3), AdamState(np.zeros(3), np.zeros(4)))]:
        with pytest.raises(ValueError, match="differ in shape"):
            adam_step(params, grads, state, 1e-3, 0.9, 0.999)
        assert state.t == 0 and not params.any()  # refused before any change


# -- train loop ----------------------------------------------------------

def test_zero_epochs_is_noop():
    ds = small_dataset()
    gen, disc = small_nets()
    before_g, before_d = gen.flat.tobytes(), disc.flat.tobytes()
    log, state = train(gen, disc, ds, small_config(0))
    assert log.rows == []
    assert gen.flat.tobytes() == before_g and disc.flat.tobytes() == before_d


def test_training_is_seed_deterministic():
    ds = small_dataset()

    def run():
        gen, disc = small_nets()
        log, _ = train(gen, disc, ds, small_config(2, seed=7))
        return gen.flat.tobytes(), disc.flat.tobytes(), log.rows[-1]

    assert run() == run()


def test_metrics_rows_and_csv(tmp_path):
    ds = small_dataset()
    gen, disc = small_nets()
    log, state = train(gen, disc, ds, small_config(1))
    assert len(log.rows) == len(ds) // 32
    assert [r["step"] for r in log.rows] == list(range(1, len(log.rows) + 1))
    path = tmp_path / "metrics.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(tr.METRICS_COLUMNS)
    assert len(lines) == len(log.rows) + 1
    # all four pairing components logged even for a classic run
    gen2, disc2 = small_nets(seed=1)
    log2, _ = train(gen2, disc2, ds, small_config(1, formulation="classic", seed=1))
    assert all(np.isfinite(r["d_real_ac"]) and np.isfinite(r["d_gen_ac"])
               for r in log2.rows)


def test_one_discriminator_forward_per_d_update(monkeypatch):
    # a classic step logs its zero-lambda pairings from the D update's own forward pass
    calls = []
    real_forward = nets.mlp_forward

    def counted(spec, params, h):
        calls.append(spec)
        return real_forward(spec, params, h)

    monkeypatch.setattr(nets, "mlp_forward", counted)
    ds = small_dataset()
    gen, disc = small_nets()
    config = small_config(1, formulation="classic")
    tr._step(gen, disc, ds, config, TrainState.fresh(gen, disc, config))
    assert calls == [gen.spec, disc.spec, disc.spec]  # generator, D update, G update


def test_non_finite_loss_aborts_with_term_name():
    ds = small_dataset()
    gen, disc = small_nets()
    gen.params[0][:] = np.nan
    with pytest.raises(TrainingDiverged, match="d_gen_cond") as exc:
        train(gen, disc, ds, small_config(1))
    assert exc.value.log.rows == []  # diverged at step 1


@pytest.mark.parametrize("loss", [
    LossSpec("acontrario", (1, 1, 1, 1), recon_weight=0.3),
    LossSpec("hinge_acontrario", (1, 1, 1, 1), recon_weight=0.3),
], ids=["non_saturating", "hinge"])
def test_chained_generator_gradient_matches_finite_differences(monkeypatch, loss):
    # the G update chains g_loss -> D's input gradient on the y columns (+ L1) -> G
    ds = small_dataset(n=64)
    task = GaussModesTask()
    gen = Generator.build(task.dim_x, task.dim_y, hidden=(6, 5), noise_dim=1,
                          output_activation="tanh", seed=11)
    disc = Discriminator.build(task.dim_x, task.dim_y, hidden=(5, 4), seed=12)
    for net, offset in ((gen, 0), (disc, 50)):
        for i, p in enumerate(net.params):
            p[...] = np.random.default_rng(offset + i).normal(0, 0.7, p.shape)
    config = TrainConfig(epochs=1, batch_size=8, seed=0, loss=loss)
    captured = {}

    def no_update(params, grads, *args):
        captured[id(params)] = grads  # keep the parameters fixed

    monkeypatch.setattr(tr, "adam_step", no_update)
    tr._step(gen, disc, ds, config, TrainState(adam_g=AdamState.for_net(gen),
                                               adam_d=AdamState.for_net(disc),
                                               rng=np.random.default_rng(3)))

    def g_total():
        rng = np.random.default_rng(3)  # the step's batch and noise
        batch = sample_pair_batch(ds, config.batch_size, rng, config.ac_mode)
        x = ds.xs[batch.idx]
        y_g = gen_forward(gen, x, rng)[0]
        return g_loss(disc_forward(disc, x, y_g)[0], loss, y_g, ds.ys[batch.idx])[0]["g_total"]

    for p, analytic in zip(gen.params, _unpack(captured[id(gen.flat)], gen.spec)):
        np.testing.assert_allclose(analytic, central_differences(g_total, p),
                                   rtol=1e-4, atol=1e-8)


# -- frozen-generator phase ----------------------------------------------

def _separable_setup(n=2000, seed=0):
    # real targets cluster at +1, the frozen generator emits exactly -1
    rng = np.random.default_rng(seed)
    ds = ConditionalDataset(xs=rng.standard_normal((n, 1)),
                            ys=1.0 + 0.1 * rng.standard_normal((n, 1)))
    spec = MlpSpec((1, 8, 1))
    gen = Generator(spec, np.zeros(spec.n_params))
    gen.params[-1][:] = -1.0
    disc = Discriminator.build(1, 1, hidden=(16, 16), seed=3)
    return ds, gen, disc


def test_phase_preserves_generator_bitwise():
    ds, gen, disc = _separable_setup()
    before = gen.flat.tobytes()
    cfg = TrainConfig(epochs=1, batch_size=50, seed=1, loss=LossSpec("classic"))
    optimal_discriminator_phase(gen, disc, ds, cfg, epochs=2)
    assert gen.flat.tobytes() == before


def test_phase_detects_generator_mutation(monkeypatch):
    ds, gen, disc = _separable_setup()
    cfg = TrainConfig(epochs=1, batch_size=50, seed=1, loss=LossSpec("classic"))
    real_step = tr._step

    def corrupting_step(gen_, disc_, *args, **kw):
        gen_.params[0][0] += 1e-9
        return real_step(gen_, disc_, *args, **kw)

    monkeypatch.setattr(tr, "_step", corrupting_step)
    with pytest.raises(FreezeViolation):
        optimal_discriminator_phase(gen, disc, ds, cfg, epochs=1)


def test_phase_divergence_carries_the_rows_before_it(monkeypatch):
    ds, gen, disc = _separable_setup()
    cfg = TrainConfig(epochs=1, batch_size=50, seed=1, loss=LossSpec("classic"))
    real_step = tr._step
    k = 5

    def diverging_step(gen_, disc_, ds_, config, state):
        if state.step + 1 == k:
            disc_.params[-1][:] = np.nan
        return real_step(gen_, disc_, ds_, config, state)

    monkeypatch.setattr(tr, "_step", diverging_step)
    with pytest.raises(TrainingDiverged, match=f"at step {k}") as exc:
        optimal_discriminator_phase(gen, disc, ds, cfg, epochs=1)
    assert [r["step"] for r in exc.value.log.rows] == list(range(1, k))
    assert all(r["g_total"] == 0.0 and r["grad_norm_G"] == 0.0 for r in exc.value.log.rows)


def test_negative_phase_epochs_and_checkpoint_interval_refused():
    # both once ran as 0: no phase, no mid-run checkpoints
    with pytest.raises(ValueError, match="checkpoint_every"):
        small_config(1, checkpoint_every=-1)
    gen, disc = small_nets()
    with pytest.raises(ValueError, match="epochs"):
        optimal_discriminator_phase(gen, disc, small_dataset(), small_config(1), epochs=-1)


def test_phase_separable_toy_reaches_99_percent():
    ds, gen, disc = _separable_setup()
    cfg = TrainConfig(epochs=1, batch_size=50, lr=1e-3, seed=1, loss=LossSpec("classic"))
    optimal_discriminator_phase(gen, disc, ds, cfg, epochs=10)
    real_logits = disc_forward(disc, ds.xs, ds.ys)[0]
    fake = gen_forward(gen, ds.xs)[0]
    fake_logits = disc_forward(disc, ds.xs, fake)[0]
    accuracy = 0.5 * (np.mean(real_logits > 0) + np.mean(fake_logits < 0))
    assert accuracy >= 0.99


def test_phase_loss_moving_average_non_increasing():
    ds, gen, disc = _separable_setup()
    cfg = TrainConfig(epochs=1, batch_size=50, lr=1e-3, seed=1, loss=LossSpec("classic"))
    log = optimal_discriminator_phase(gen, disc, ds, cfg, epochs=10)
    losses = np.array([row["d_total"] for row in log.rows])
    window = 100
    ma = np.convolve(losses, np.ones(window) / window, mode="valid")
    drops = np.diff(ma)
    assert ma[-1] < ma[0]
    assert np.all(drops <= 1e-3)  # monotone up to plateau jitter


# -- checkpointing -------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    ds = small_dataset()
    gen, disc = small_nets()
    cfg = small_config(1)
    _, state = train(gen, disc, ds, cfg)
    path = tmp_path / "ck.json"
    task = GaussModesTask().to_dict()
    save_checkpoint(gen, disc, state, cfg, path, task=task)
    gen2, disc2, state2, meta = load_checkpoint(path)
    for a, b in zip(gen.params + disc.params, gen2.params + disc2.params):
        assert a.tobytes() == b.tobytes()
    assert state2.step == state.step and meta["seed"] == cfg.seed
    assert meta["task"] == task
    assert state2.rng.bit_generator.state == state.rng.bit_generator.state
    for adam, adam2 in ((state.adam_g, state2.adam_g), (state.adam_d, state2.adam_d)):
        assert adam.m.tobytes() == adam2.m.tobytes() and adam.v.tobytes() == adam2.v.tobytes()


def test_resume_equals_uninterrupted(tmp_path):
    ds = small_dataset()

    gen_a, disc_a = small_nets()
    log_a, _ = train(gen_a, disc_a, ds, small_config(4, seed=5))

    gen_b, disc_b = small_nets()
    cfg = small_config(2, seed=5)
    _, state_b = train(gen_b, disc_b, ds, cfg)
    path = tmp_path / "mid.json"
    save_checkpoint(gen_b, disc_b, state_b, cfg, path)
    gen_c, disc_c, state_c, _ = load_checkpoint(path)
    log_c, _ = train(gen_c, disc_c, ds, small_config(2, seed=5), state=state_c)

    for a, c in zip(gen_a.params + disc_a.params, gen_c.params + disc_c.params):
        assert a.tobytes() == c.tobytes()
    assert log_a.rows[-1] == log_c.rows[-1]


def test_checkpoint_version_check(tmp_path):
    ds = small_dataset()
    gen, disc = small_nets()
    cfg = small_config(1)
    _, state = train(gen, disc, ds, cfg)
    path = tmp_path / "ck.json"
    save_checkpoint(gen, disc, state, cfg, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(path)
    (tmp_path / "junk.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(tmp_path / "junk.json")


def test_checkpoint_counters_must_be_non_negative_ints(tmp_path):
    # each of these once loaded: a string failed only when training resumed, a
    # negative t diverged at the first resumed step, a negative or bool step trained on
    ds = small_dataset()
    gen, disc = small_nets()
    cfg = small_config(1)
    _, state = train(gen, disc, ds, cfg)
    path = tmp_path / "ck.json"
    save_checkpoint(gen, disc, state, cfg, path)
    doc = json.loads(path.read_text())
    assert load_checkpoint(path)[3]["step"] == doc["step"] == 10
    for where, value in [(("step",), "10"), (("step",), -1), (("step",), True),
                         (("step",), 10.0), (("seed",), -3), (("seed",), None),
                         (("adam_g", "t"), False), (("adam_d", "t"), "3"),
                         (("adam_d", "t"), -5)]:
        bad = copy.deepcopy(doc)
        parent = bad
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path.write_text(json.dumps(bad))
        with pytest.raises(CheckpointError, match=rf"{'.'.join(where)} must be a non-negative "
                                                   rf"int, got {json.dumps(value)}$"):
            load_checkpoint(path)


def test_version_1_checkpoint_refused(tmp_path):
    # format 1 stored no task; it is refused by version, not by a missing key
    ds = small_dataset()
    gen, disc = small_nets()
    cfg = small_config(1)
    _, state = train(gen, disc, ds, cfg)
    path = tmp_path / "ck.json"
    save_checkpoint(gen, disc, state, cfg, path, task=GaussModesTask().to_dict())
    doc = json.loads(path.read_text())
    doc["format_version"] = 1
    del doc["task"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(path)


# every float64 value: signed zeros, subnormals, infinities, NaN
_any_float64 = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# float64 bit patterns: quiet and signaling NaNs of either sign with other
# payloads, +-0.0, the smallest and largest subnormal, +-inf; and any 64 bits
_float64_bits = st.sampled_from([0x7FF8_0000_0000_0001, 0xFFF4_0000_0000_0000,
                                 0x7FF0_0000_DEAD_BEEF, 0x0, 0x8000_0000_0000_0000, 0x1,
                                 0x000F_FFFF_FFFF_FFFF, 0x7FF0_0000_0000_0000,
                                 0xFFF0_0000_0000_0000]) | st.integers(0, 2**64 - 1)


def _same_bits(a, b):
    return a.shape == b.shape and b.dtype == np.float64 and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(bits=hnp.arrays(np.uint64, st.integers(0, 40), elements=_float64_bits))
def test_array_payload_round_trip_bit_exact(bits):
    vector = bits.view(np.float64)
    back = decode_vector(json.loads(json.dumps(encode_vector(vector))), vector.size, "vector")
    assert _same_bits(vector, back)
    assert back.flags.writeable  # Adam updates its moments in place


@st.composite
def _train_states(draw):
    """Networks of odd widths and a train state, every array holding arbitrary bits."""
    dim_x, dim_y = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    hidden = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=2)))
    gen = Generator.build(dim_x, dim_y, hidden=hidden, noise_dim=draw(st.integers(0, 2)))
    disc = Discriminator.build(dim_x, dim_y, hidden=hidden)

    def vector_like(net):
        return draw(hnp.arrays(np.float64, net.flat.shape, elements=_any_float64))

    gen.flat[:], disc.flat[:] = vector_like(gen), vector_like(disc)
    rng = np.random.default_rng(draw(st.integers(0, 2**63)))
    rng.integers(2**32, size=draw(st.integers(0, 3)), dtype=np.uint32)  # half-used 64-bit word
    state = TrainState(
        adam_g=AdamState(vector_like(gen), vector_like(gen), t=draw(st.integers(0, 10**9))),
        adam_d=AdamState(vector_like(disc), vector_like(disc), t=draw(st.integers(0, 10**9))),
        rng=rng, step=draw(st.integers(0, 10**9)))
    return gen, disc, state


@settings(max_examples=25, deadline=None)
@given(nets_and_state=_train_states(), seed=st.integers(0, 2**31))
def test_checkpoint_round_trip_bit_exact_property(nets_and_state, seed):
    gen, disc, state = nets_and_state
    config = TrainConfig(epochs=0, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.json")
        save_checkpoint(gen, disc, state, config, path, task=GaussModesTask().to_dict())
        gen2, disc2, state2, meta = load_checkpoint(path)
        with open(path) as fh:
            text = fh.read()
    # format 4 stores one vector per network and per moment, and no shapes
    doc = json.loads(text)
    assert '"shape"' not in text and set(doc["generator"]) == {"spec", "flat", "noise_dim"} \
        and set(doc["discriminator"]) == {"spec", "flat"}
    assert (gen2.spec, disc2.spec, gen2.noise_dim) == (gen.spec, disc.spec, gen.noise_dim)
    pairs = [(gen.params, gen2.params), (disc.params, disc2.params)]
    for before, after in [(state.adam_g, state2.adam_g), (state.adam_d, state2.adam_d)]:
        assert after.t == before.t
        pairs += [([before.m], [after.m]), ([before.v], [after.v])]
    for before, after in pairs:
        assert len(before) == len(after)
        assert all(_same_bits(a, b) and b.flags.writeable for a, b in zip(before, after))
    assert state2.step == state.step == meta["step"] and meta["seed"] == seed
    assert state2.rng.bit_generator.state == state.rng.bit_generator.state


@settings(max_examples=10, deadline=None)
@given(k=st.integers(0, 3), j=st.integers(1, 3), seed=st.integers(0, 2**16),
       formulation=st.sampled_from(["classic", "acontrario"]))
def test_resume_equals_uninterrupted_property(k, j, seed, formulation):
    # one batch per epoch, so epochs count steps
    ds = small_dataset(n=32, seed=seed)

    def config(steps):
        return TrainConfig(epochs=steps, batch_size=32, seed=seed,
                           loss=small_config(0, formulation).loss)

    gen_a, disc_a = small_nets(seed)
    log_a, state_a = train(gen_a, disc_a, ds, config(k + j))

    gen_b, disc_b = small_nets(seed)
    _, state_b = train(gen_b, disc_b, ds, config(k))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mid.json")
        save_checkpoint(gen_b, disc_b, state_b, config(k), path)
        gen_c, disc_c, state_c, _ = load_checkpoint(path)
    log_c, state_c = train(gen_c, disc_c, ds, config(j), state=state_c)

    assert log_c.rows == log_a.rows[k:]
    assert state_c.step == state_a.step == k + j
    arrays_a = [gen_a.flat, disc_a.flat, state_a.adam_g.m, state_a.adam_g.v,
                state_a.adam_d.m, state_a.adam_d.v]
    arrays_c = [gen_c.flat, disc_c.flat, state_c.adam_g.m, state_c.adam_g.v,
                state_c.adam_d.m, state_c.adam_d.v]
    assert all(a.tobytes() == c.tobytes() for a, c in zip(arrays_a, arrays_c, strict=True))
    assert state_c.rng.bit_generator.state == state_a.rng.bit_generator.state


def _arrays(gen, disc, state):
    """Every array the three objects hold, parameter views and Adam buffers too."""
    adams = [a for a in (state.adam_g, state.adam_d) if a is not None]
    return [gen.flat, *gen.params, disc.flat, *disc.params,
            *[x for a in adams for x in (a.m, a.v, a.grads, *a.scratch)]]


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


@settings(max_examples=15, deadline=None)
@given(hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
       noise_dim=st.sampled_from([0, 2]), seed=st.integers(0, 2**16))
def test_copied_and_unpickled_runs_train_like_the_original(hidden, noise_dim, seed):
    # networks, Adam states and a trained TrainState, copied one by one or whole
    task = GaussModesTask()
    ds = small_dataset(n=64, seed=seed)
    gen = Generator.build(task.dim_x, task.dim_y, hidden=tuple(hidden), noise_dim=noise_dim,
                          seed=2 * seed + 1)
    disc = Discriminator.build(task.dim_x, task.dim_y, hidden=tuple(hidden), seed=2 * seed + 2)
    config = small_config(1, seed=seed)
    _, state = train(gen, disc, ds, config)
    runs = []
    for copier in (copy.deepcopy, _pickled):
        runs.append((copier(gen), copier(disc), copier(state)))
        runs.append((copier(gen), copier(disc),
                     TrainState(copier(state.adam_g), copier(state.adam_d), copier(state.rng),
                                state.step)))
    originals = _arrays(gen, disc, state)
    for run in runs:
        assert not any(np.shares_memory(a, b) for a in _arrays(*run) for b in originals)
    log, _ = train(gen, disc, ds, config, state)
    for gen_c, disc_c, state_c in runs:
        log_c, _ = train(gen_c, disc_c, ds, config, state_c)
        assert log_c.rows == log.rows and state_c.step == state.step
        for net, net_c in ((gen, gen_c), (disc, disc_c)):
            assert net_c.flat.tobytes() == net.flat.tobytes()
            assert all(np.shares_memory(p, net_c.flat) for p in net_c.params)
        for adam, adam_c in ((state.adam_g, state_c.adam_g), (state.adam_d, state_c.adam_d)):
            assert adam_c.t == adam.t
            assert adam_c.m.tobytes() == adam.m.tobytes()
            assert adam_c.v.tobytes() == adam.v.tobytes()
        assert state_c.rng.bit_generator.state == state.rng.bit_generator.state


def test_intermediate_checkpoints_written(tmp_path):
    ds = small_dataset()
    gen, disc = small_nets()
    cfg = small_config(1, checkpoint_every=5)
    train(gen, disc, ds, cfg, checkpoint_dir=str(tmp_path))
    assert (tmp_path / "step_00000005.json").exists()
    assert (tmp_path / "step_00000010.json").exists()


def test_frozen_generator_checkpoint_resumes_frozen(tmp_path):
    # a frozen state's checkpoint holds "adam_g": null and loads back frozen
    ds = small_dataset()

    def frozen(disc):
        return TrainState(adam_g=None, adam_d=AdamState.for_net(disc),
                          rng=np.random.default_rng(3))

    gen_a, disc_a = small_nets()
    train(gen_a, disc_a, ds, small_config(2), frozen(disc_a))

    gen_b, disc_b = small_nets()
    before = gen_b.flat.tobytes()
    _, state_b = train(gen_b, disc_b, ds, small_config(1, checkpoint_every=2), frozen(disc_b),
                       checkpoint_dir=str(tmp_path))
    path = tmp_path / f"step_{state_b.step:08d}.json"
    assert json.loads(path.read_text())["adam_g"] is None
    gen_c, disc_c, state_c, _ = load_checkpoint(path)
    assert state_c.adam_g is None and state_c.step == state_b.step == 10
    log_c, _ = train(gen_c, disc_c, ds, small_config(1), state_c)

    assert gen_c.flat.tobytes() == before
    assert all(row["grad_norm_G"] == 0.0 for row in log_c.rows)
    for a, c in zip(disc_a.params, disc_c.params, strict=True):
        assert a.tobytes() == c.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    gen, disc = small_nets()
    config = small_config(1)
    _, state = train(gen, disc, small_dataset(), config)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(gen, disc, state, config, path)
    before = path.read_bytes()

    def broken_dumps(*args, **kwargs):
        raise RuntimeError("serialisation failed")

    monkeypatch.setattr(tr.json, "dumps", broken_dumps)
    gen.params[0] += 1.0
    with pytest.raises(RuntimeError, match="serialisation failed"):
        save_checkpoint(gen, disc, state, config, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint.json"]


def test_failed_metrics_write_keeps_previous_file(tmp_path):
    log, _ = train(*small_nets(), small_dataset(), small_config(1))
    path = tmp_path / "metrics.csv"
    log.to_csv(path)
    before = path.read_bytes()
    log.rows[3]["d_total"] = "not a number"
    with pytest.raises(ValueError):
        log.to_csv(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["metrics.csv"]
