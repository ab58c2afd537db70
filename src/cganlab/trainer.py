"""Alternating min-max training of generator and discriminator.

One training step draws a fresh pair batch, runs the generator forward
once, makes d-steps-per-g-step discriminator updates on the four pairings
built from that output, then one generator update on the same batch. Each
discriminator update is one forward pass over the pairings with a
positive lambda, stacked; the zero-lambda pairings are still logged every
step through one untracked pass (it reads the discriminator but never
writes). The optimal-discriminator phase runs the same step with the
generator frozen, verified by checksum.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import Graph, Tensor, backward
from .fileio import _atomic_open
from .losses import LossSpec, d_loss_total, g_loss
from .nets import (
    Discriminator,
    Generator,
    MlpSpec,
    bind_params,
    disc_forward,
    gen_forward,
    params_from_jsonable,
    params_to_jsonable,
)
from .pairing import ConditionalDataset, assemble_pairings, sample_pair_batch

CHECKPOINT_FORMAT_VERSION = 2

METRICS_COLUMNS = (
    "step", "d_real_cond", "d_gen_cond", "d_real_ac", "d_gen_ac", "d_total",
    "g_adv", "g_recon", "g_total", "grad_norm_G", "grad_norm_D",
)

_PHASE_STREAM = 0x0D  # decorrelates the phase rng from the training rng


class TrainingDiverged(RuntimeError):
    """A loss term went non-finite; the offending term is named."""


class FreezeViolation(RuntimeError):
    """Generator parameters changed during a frozen-generator phase."""


class CheckpointError(ValueError):
    """Malformed checkpoint file or unsupported format version."""


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    seed: int = 0
    loss: LossSpec = field(default_factory=LossSpec)
    d_steps_per_g_step: int = 1
    checkpoint_every: int = 0  # steps; 0 disables intermediate checkpoints
    ac_mode: str = "within_batch"

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.epochs < 0 or self.d_steps_per_g_step < 1:
            raise ValueError("epochs must be >= 0 and d_steps_per_g_step >= 1")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState,
              lr: float, beta1: float, beta2: float, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update, in place."""
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"param shape {p.shape} vs grad shape {g.shape}")
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


@dataclass
class TrainState:
    adam_g: AdamState
    adam_d: AdamState
    rng: np.random.Generator
    step: int = 0

    @classmethod
    def fresh(cls, gen: Generator, disc: Discriminator, config: TrainConfig) -> "TrainState":
        return cls(adam_g=AdamState.for_params(gen.params),
                   adam_d=AdamState.for_params(disc.params),
                   rng=np.random.default_rng(config.seed))


@dataclass
class RunLog:
    rows: list[dict] = field(default_factory=list)
    epoch_snapshots: list[dict] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])

    def to_csv(self, path) -> None:
        with _atomic_open(path) as fh:
            fh.write(",".join(METRICS_COLUMNS) + "\n")
            for row in self.rows:
                cells = [str(row["step"])] + [repr(float(row[c])) for c in METRICS_COLUMNS[1:]]
                fh.write(",".join(cells) + "\n")


def params_checksum(params: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for p in params:
        h.update(str(p.shape).encode())
        h.update(p.tobytes())
    return h.hexdigest()


def _mean_abs_grad(grads: list[np.ndarray]) -> float:
    total = sum(float(np.abs(g).sum()) for g in grads)
    count = sum(g.size for g in grads)
    return total / count


def _check_finite(value: float, term: str, step: int) -> None:
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite {term} at step {step}")


def _stack(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Row-stack (x, y) pairings into one (x, y) batch."""
    return np.concatenate([x for x, _ in pairs]), np.concatenate([y for _, y in pairs])


def _discriminator_update(disc, pairs, config, adam_d, step):
    """One Adam step of D on the four pairings; returns (breakdown, grad norm)."""
    lambdas = config.loss.lambdas
    d_params = bind_params(disc, Graph())
    active = [p for p, lam in zip(pairs, lambdas) if lam > 0]
    logits = disc_forward(disc, *_stack(active), params=d_params)
    idle = [p for p, lam in zip(pairs, lambdas) if lam == 0]
    logged = disc_forward(disc, *_stack(idle)) if idle else None
    total, breakdown = d_loss_total(logits, config.loss, logged)
    for name, value in asdict(breakdown).items():
        _check_finite(value, name, step)

    table = backward(total)
    grads = [table.get(p.node_id, np.zeros_like(p.values)) for p in d_params]
    adam_step(disc.params, grads, adam_d, config.lr, config.beta1, config.beta2)
    return breakdown, _mean_abs_grad(grads)


def _step(gen, disc, ds, config, rng, adam_d, step, adam_g=None) -> dict:
    """One training step on a fresh pair batch; returns its metrics row.

    The generator runs forward once, on the tape when it trains (`adam_g`
    given), and its values feed every discriminator update. With `adam_g`
    None the generator is frozen: one D update, no G update, and the G
    columns of the row read 0.
    """
    batch = sample_pair_batch(ds, config.batch_size, rng, config.ac_mode)
    z = rng.standard_normal((config.batch_size, gen.noise_dim)) if gen.noise_dim else None
    x = ds.xs[batch.idx]
    g_params = None if adam_g is None else bind_params(gen, Graph())
    y_g = gen_forward(gen, x, z, params=g_params)
    pairs = assemble_pairings(ds, batch, y_g.values)
    for _ in range(1 if adam_g is None else config.d_steps_per_g_step):
        breakdown, gnorm_d = _discriminator_update(disc, pairs, config, adam_d, step)
    row = {"step": step, **asdict(breakdown), "g_adv": 0.0, "g_recon": 0.0, "g_total": 0.0,
           "grad_norm_G": 0.0, "grad_norm_D": gnorm_d}
    if adam_g is None:
        return row

    logit = disc_forward(disc, x, y_g)
    total, g_adv, g_recon = g_loss(logit, config.loss, y_g, Tensor(ds.ys[batch.idx]))
    _check_finite(g_adv, "g_adv", step)
    _check_finite(g_recon, "g_recon", step)
    table = backward(total)
    grads = [table.get(p.node_id, np.zeros_like(p.values)) for p in g_params]
    adam_step(gen.params, grads, adam_g, config.lr, config.beta1, config.beta2)
    row.update(g_adv=g_adv, g_recon=g_recon, g_total=float(total.values),
               grad_norm_G=_mean_abs_grad(grads))
    return row


def _rng_fingerprint(rng: np.random.Generator) -> str:
    return hashlib.sha256(repr(rng.bit_generator.state).encode()).hexdigest()[:16]


def train(gen: Generator, disc: Discriminator, dataset: ConditionalDataset,
          config: TrainConfig, state: TrainState | None = None,
          checkpoint_dir=None, task: dict | None = None) -> tuple[RunLog, TrainState]:
    """Run config.epochs of additional alternating training, in place.

    Pass the state returned by a previous call (or loaded from a
    checkpoint) to resume a run deterministically. `task` is the task
    dict recorded in every intermediate checkpoint.
    """
    if state is None:
        state = TrainState.fresh(gen, disc, config)
    steps_per_epoch = len(dataset) // config.batch_size
    if config.epochs > 0 and steps_per_epoch == 0:
        raise ValueError("dataset smaller than one batch")

    log = RunLog()
    for epoch in range(config.epochs):
        for _ in range(steps_per_epoch):
            step = state.step + 1
            log.rows.append(_step(gen, disc, dataset, config, state.rng, state.adam_d, step,
                                  state.adam_g))
            state.step = step
            if checkpoint_dir is not None and config.checkpoint_every > 0 \
                    and step % config.checkpoint_every == 0:
                save_checkpoint(gen, disc, state, config,
                                f"{checkpoint_dir}/step_{step:08d}.json", task=task)
        log.epoch_snapshots.append({
            "epoch": epoch,
            "step": state.step,
            "d_total_mean": float(np.mean([r["d_total"] for r in log.rows[-steps_per_epoch:]])),
            "g_total_mean": float(np.mean([r["g_total"] for r in log.rows[-steps_per_epoch:]])),
            "rng_fingerprint": _rng_fingerprint(state.rng),
        })
    return log, state


def optimal_discriminator_phase(gen: Generator, disc: Discriminator,
                                dataset: ConditionalDataset, config: TrainConfig,
                                epochs: int = 1, plateau_tol: float | None = None,
                                plateau_window: int = 100) -> RunLog:
    """Let the discriminator converge against a frozen generator.

    Default length is one full epoch; with plateau_tol set the phase also
    stops once the windowed moving average of the loss improves by less
    than the tolerance. Any mutation of the generator fails hard.
    """
    before = params_checksum(gen.params)
    rng = np.random.default_rng([config.seed, _PHASE_STREAM])
    adam_d = AdamState.for_params(disc.params)
    steps_per_epoch = len(dataset) // config.batch_size
    if steps_per_epoch == 0:
        raise ValueError("dataset smaller than one batch")

    log = RunLog()
    losses: list[float] = []
    for step in range(1, epochs * steps_per_epoch + 1):
        log.rows.append(_step(gen, disc, dataset, config, rng, adam_d, step))
        losses.append(log.rows[-1]["d_total"])
        if plateau_tol is not None and step >= 2 * plateau_window:
            ma_now = float(np.mean(losses[-plateau_window:]))
            ma_prev = float(np.mean(losses[-2 * plateau_window:-plateau_window]))
            if abs(ma_prev - ma_now) < plateau_tol:
                break

    if params_checksum(gen.params) != before:
        raise FreezeViolation("generator parameters changed during the frozen phase")
    return log


# -- checkpointing -------------------------------------------------------

def _adam_to_jsonable(state: AdamState) -> dict:
    return {"t": state.t, "m": params_to_jsonable(state.m), "v": params_to_jsonable(state.v)}


def _adam_from_jsonable(d: dict) -> AdamState:
    return AdamState(m=params_from_jsonable(d["m"]), v=params_from_jsonable(d["v"]), t=d["t"])


def save_checkpoint(gen: Generator, disc: Discriminator, state: TrainState,
                    config: TrainConfig, path, *, task: dict | None = None) -> None:
    """Write networks, train state and the task they were trained on.

    `task` is the canonical task dict (`task.to_dict()`); it is stored as
    `"task"` (null when not given) so that a loader can refuse the
    checkpoint under another task.
    """
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "step": state.step,
        "seed": config.seed,
        "task": task,
        "generator": {
            "spec": gen.spec.to_dict(),
            "noise_dim": gen.noise_dim,
            "params": params_to_jsonable(gen.params),
        },
        "discriminator": {
            "spec": disc.spec.to_dict(),
            "params": params_to_jsonable(disc.params),
        },
        "adam_g": _adam_to_jsonable(state.adam_g),
        "adam_d": _adam_to_jsonable(state.adam_d),
        "rng_state": state.rng.bit_generator.state,
    }
    with _atomic_open(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def load_checkpoint(path) -> tuple[Generator, Discriminator, TrainState, dict]:
    """Rebuild networks and train state; returns (gen, disc, state, meta).

    `meta` holds the run's seed, its step and the task dict stored by
    `save_checkpoint` (None if none was given). Only the current format
    version is read; an older file raises `CheckpointError`.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise CheckpointError(f"malformed checkpoint {path}: {e}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"malformed checkpoint {path}: not a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format_version {version!r} unsupported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        return _checkpoint_from_doc(doc)
    except KeyError as e:
        raise CheckpointError(f"malformed checkpoint {path}: missing key {e.args[0]!r}") from None


def _checkpoint_from_doc(doc: dict) -> tuple[Generator, Discriminator, TrainState, dict]:
    gen = Generator(
        spec=MlpSpec.from_dict(doc["generator"]["spec"]),
        params=params_from_jsonable(doc["generator"]["params"]),
        noise_dim=doc["generator"]["noise_dim"],
    )
    disc = Discriminator(
        spec=MlpSpec.from_dict(doc["discriminator"]["spec"]),
        params=params_from_jsonable(doc["discriminator"]["params"]),
    )
    rng = np.random.default_rng()
    rng.bit_generator.state = doc["rng_state"]
    state = TrainState(
        adam_g=_adam_from_jsonable(doc["adam_g"]),
        adam_d=_adam_from_jsonable(doc["adam_d"]),
        rng=rng,
        step=doc["step"],
    )
    return gen, disc, state, {"seed": doc["seed"], "step": doc["step"], "task": doc["task"]}
