import json
import os

import numpy as np
import pytest

from cganlab import trainer as tr
from cganlab.losses import LossSpec
from cganlab.nets import Discriminator, Generator, MlpSpec, init_params
from cganlab.pairing import ConditionalDataset
from cganlab.tasks import GaussModesTask, sample_dataset
from cganlab.trainer import (
    AdamState,
    CheckpointError,
    FreezeViolation,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    load_checkpoint,
    optimal_discriminator_phase,
    params_checksum,
    save_checkpoint,
    train,
)


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

def test_adam_zero_gradient_is_fixed_point():
    params = [np.array([1.0, -2.0]), np.ones((2, 2))]
    before = [p.copy() for p in params]
    state = AdamState.for_params(params)
    adam_step(params, [np.zeros_like(p) for p in params], state, 0.1, 0.5, 0.999)
    for p, b in zip(params, before):
        assert p.tobytes() == b.tobytes()


def test_adam_first_step_is_signed_lr():
    # first bias-corrected step reduces to -lr * sign(g), up to the epsilon
    params = [np.array([0.0, 0.0, 0.0])]
    g = np.array([3.0, -0.2, 1e-3])
    state = AdamState.for_params(params)
    adam_step(params, [g], state, lr=0.01, beta1=0.5, beta2=0.999)
    np.testing.assert_allclose(params[0], -0.01 * np.sign(g), rtol=1e-4)


def test_adam_trajectory_deterministic():
    def run():
        params = [np.full(3, 0.5)]
        state = AdamState.for_params(params)
        rng = np.random.default_rng(4)
        for _ in range(50):
            adam_step(params, [rng.standard_normal(3)], state, 1e-3, 0.9, 0.999)
        return params[0].copy()

    assert run().tobytes() == run().tobytes()


def test_adam_shape_mismatch():
    params = [np.zeros(3)]
    state = AdamState.for_params(params)
    with pytest.raises(ValueError):
        adam_step(params, [np.zeros(4)], state, 1e-3, 0.9, 0.999)


# -- train loop ----------------------------------------------------------

def test_zero_epochs_is_noop():
    ds = small_dataset()
    gen, disc = small_nets()
    before_g = params_checksum(gen.params)
    before_d = params_checksum(disc.params)
    log, state = train(gen, disc, ds, small_config(0))
    assert log.rows == []
    assert params_checksum(gen.params) == before_g
    assert params_checksum(disc.params) == before_d


def test_training_is_seed_deterministic():
    ds = small_dataset()

    def run():
        gen, disc = small_nets()
        log, _ = train(gen, disc, ds, small_config(2, seed=7))
        return params_checksum(gen.params), params_checksum(disc.params), log.rows[-1]

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


def test_epoch_snapshots_carry_rng_fingerprints():
    ds = small_dataset()
    gen, disc = small_nets()
    log, _ = train(gen, disc, ds, small_config(2))
    assert len(log.epoch_snapshots) == 2
    fps = [s["rng_fingerprint"] for s in log.epoch_snapshots]
    assert len(set(fps)) == 2 and all(len(f) == 16 for f in fps)


def test_non_finite_loss_aborts_with_term_name():
    ds = small_dataset()
    gen, disc = small_nets()
    gen.params[0][:] = np.nan
    with pytest.raises(TrainingDiverged, match="d_gen_cond"):
        train(gen, disc, ds, small_config(1))


# -- frozen-generator phase ----------------------------------------------

def _separable_setup(n=2000, seed=0):
    # real targets cluster at +1, the frozen generator emits exactly -1
    rng = np.random.default_rng(seed)
    ds = ConditionalDataset(xs=rng.standard_normal((n, 1)),
                            ys=1.0 + 0.1 * rng.standard_normal((n, 1)))
    spec = MlpSpec((1, 8, 1))
    params = [np.zeros_like(p) for p in init_params(spec, 0)]
    params[-1][:] = -1.0
    gen = Generator(spec, params)
    disc = Discriminator.build(1, 1, hidden=(16, 16), seed=3)
    return ds, gen, disc


def test_phase_preserves_generator_bitwise():
    ds, gen, disc = _separable_setup()
    before = params_checksum(gen.params)
    cfg = TrainConfig(epochs=1, batch_size=50, seed=1, loss=LossSpec("classic"))
    optimal_discriminator_phase(gen, disc, ds, cfg, epochs=2)
    assert params_checksum(gen.params) == before


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


def test_phase_separable_toy_reaches_99_percent():
    from cganlab.nets import disc_forward, gen_forward
    ds, gen, disc = _separable_setup()
    cfg = TrainConfig(epochs=1, batch_size=50, lr=1e-3, seed=1, loss=LossSpec("classic"))
    optimal_discriminator_phase(gen, disc, ds, cfg, epochs=10)
    real_logits = disc_forward(disc, ds.xs, ds.ys).values
    fake = gen_forward(gen, ds.xs).values
    fake_logits = disc_forward(disc, ds.xs, fake).values
    accuracy = 0.5 * (np.mean(real_logits > 0) + np.mean(fake_logits < 0))
    assert accuracy >= 0.99


def test_phase_loss_moving_average_non_increasing():
    ds, gen, disc = _separable_setup()
    cfg = TrainConfig(epochs=1, batch_size=50, lr=1e-3, seed=1, loss=LossSpec("classic"))
    log = optimal_discriminator_phase(gen, disc, ds, cfg, epochs=10)
    losses = log.column("d_total")
    window = 100
    ma = np.convolve(losses, np.ones(window) / window, mode="valid")
    drops = np.diff(ma)
    assert ma[-1] < ma[0]
    assert np.all(drops <= 1e-3)  # monotone up to plateau jitter


def test_phase_plateau_stop():
    ds, gen, disc = _separable_setup()
    cfg = TrainConfig(epochs=1, batch_size=50, lr=1e-3, seed=1, loss=LossSpec("classic"))
    log = optimal_discriminator_phase(gen, disc, ds, cfg, epochs=50,
                                      plateau_tol=1e-4, plateau_window=100)
    full = 50 * (len(ds) // 50)
    assert len(log.rows) < full


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
    for a, b in zip(state.adam_g.m + state.adam_d.v, state2.adam_g.m + state2.adam_d.v):
        assert a.tobytes() == b.tobytes()


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


def test_intermediate_checkpoints_written(tmp_path):
    ds = small_dataset()
    gen, disc = small_nets()
    cfg = small_config(1, checkpoint_every=5)
    train(gen, disc, ds, cfg, checkpoint_dir=str(tmp_path))
    assert (tmp_path / "step_00000005.json").exists()
    assert (tmp_path / "step_00000010.json").exists()


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
