"""Alternating min-max training of generator and discriminator.

A training step takes its four pairings and the generator's cache from
`pairing.draw_pairings`, which draws the batch, then the generator's
noise, from the step's stream, as evaluation's `collect_logits` does.
The discriminator's input, the pairings row-stacked with the
positive-lambda ones first, is built once per step. Each of the
d-steps-per-g-step discriminator updates is one `disc_forward` over it
and one backward pass over the positive-lambda rows alone; the
zero-lambda pairings' logits are only logged. The generator update on
the same batch runs `disc_forward` on the generated-conditional pairing,
takes its input gradient on the y columns (`disc_forward`'s input is
``[x | y]``), adds the L1 gradient and backpropagates the sum through the
generator's cache. Both networks update through `_update`: a backward
pass that computes parameter gradients only, into the Adam state's
buffer, one `adam_step`, and the mean |grad| for the metrics row. The
optimal-discriminator phase runs the same loop, `train`, with the
generator frozen, verified on the bytes of its vector.

Each network stores its parameters as one vector, `flat`, and its
`AdamState` holds the moments `m`, `v` and a gradient buffer `grads` as
vectors of the same layout. The backward pass writes its parameter
gradients into views of `grads` (`nets._unpack`), and `adam_step`
updates the whole vectors with 14 in-place ufunc calls over two scratch
vectors of the state. Each of them computes
one product, quotient, sum or square root of the per-array formula
``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g);
p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)`` with the same operands, so every
element rounds as before; only the temporaries are gone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .fileio import _atomic_open
from .losses import LossSpec, d_loss_total, g_loss
from .nets import (
    Discriminator,
    Generator,
    MlpSpec,
    _unpack,
    decode_vector,
    disc_forward,
    encode_vector,
    mlp_backward,
)
from .pairing import AC_MODES, ConditionalDataset, draw_pairings

CHECKPOINT_FORMAT_VERSION = 4

METRICS_COLUMNS = (
    "step", "d_real_cond", "d_gen_cond", "d_real_ac", "d_gen_ac", "d_total",
    "g_adv", "g_recon", "g_total", "grad_norm_G", "grad_norm_D",
)

_PHASE_STREAM = 0x0D  # decorrelates the phase rng from the training rng


class TrainingDiverged(RuntimeError):
    """A loss term went non-finite; `log` holds the steps completed before it."""

    log: RunLog | None = None  # set by `train`


class FreezeViolation(RuntimeError):
    """Generator parameters changed during a frozen-generator phase."""


class CheckpointError(ValueError):
    """Malformed checkpoint file or unsupported format version."""


@dataclass
class TrainConfig:
    epochs: int = 16
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
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.ac_mode not in AC_MODES:
            raise ValueError(f"unknown ac_mode {self.ac_mode!r}, expected one of {AC_MODES}")


@dataclass
class AdamState:
    """Adam moments of one network: vectors laid out as its `flat`.

    `grads`, a vector of the same length, is where the backward pass
    writes the network's gradients, and `scratch` holds the two vectors
    `adam_step` computes in; neither is saved in a checkpoint.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    grads: np.ndarray = field(init=False, repr=False, compare=False)
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.grads = np.zeros_like(self.m)
        self.scratch = (np.empty(self.m.size), np.empty(self.m.size))

    @classmethod
    def for_net(cls, net: Generator | Discriminator) -> "AdamState":
        return cls(m=np.zeros_like(net.flat), v=np.zeros_like(net.flat))


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState,
              lr: float, beta1: float, beta2: float, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update of the parameter vector `p`, in place.

    `p`, the gradient `g`, `state.m` and `state.v` are vectors of one
    shape; anything else raises ValueError before any of them changes.
    """
    m, v = state.m, state.v
    if not p.shape == g.shape == m.shape == v.shape:
        raise ValueError(f"parameters {p.shape}, gradients {g.shape} and Adam moments "
                         f"{m.shape}, {v.shape} differ in shape")
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    s, u = state.scratch
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=s)
    m += s
    v *= beta2
    np.multiply(g, g, out=s)
    s *= 1.0 - beta2
    v += s
    np.divide(m, bc1, out=s)
    s *= lr
    np.divide(v, bc2, out=u)
    np.sqrt(u, out=u)
    u += eps
    s /= u
    p -= s


@dataclass
class TrainState:
    adam_g: AdamState | None  # None: the generator is frozen
    adam_d: AdamState
    rng: np.random.Generator
    step: int = 0

    @classmethod
    def fresh(cls, gen: Generator, disc: Discriminator, config: TrainConfig) -> "TrainState":
        return cls(adam_g=AdamState.for_net(gen), adam_d=AdamState.for_net(disc),
                   rng=np.random.default_rng(config.seed))


@dataclass
class RunLog:
    rows: list[dict] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with _atomic_open(path) as fh:
            fh.write(",".join(METRICS_COLUMNS) + "\n")
            for row in self.rows:
                cells = [str(row["step"])] + [repr(float(row[c])) for c in METRICS_COLUMNS[1:]]
                fh.write(",".join(cells) + "\n")


def _mean_abs_grad(state: AdamState, grads: list[np.ndarray]) -> float:
    """Mean |g| over `state.grads`, summed view by view of `grads` as `np.abs(g).sum()` sums."""
    a = np.abs(state.grads, out=state.scratch[0])
    total, start = 0.0, 0
    for g in grads:
        total += float(a[start:start + g.size].sum())
        start += g.size
    return total / start


def _check_finite(values: dict, step: int) -> None:
    for term, value in values.items():
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite {term} at step {step}")


def _update(net, cache, g, adam: AdamState, config: TrainConfig) -> float:
    """Backpropagate `g` through `net`'s cache into `adam.grads` and take one
    Adam step of `net`; returns the mean |grad|."""
    grads = _unpack(adam.grads, net.spec)
    mlp_backward(net.spec, net.params, cache, g, grads_out=grads, input_grad=False)
    adam_step(net.flat, adam.grads, adam, config.lr, config.beta1, config.beta2)
    return _mean_abs_grad(adam, grads)


def _step(gen, disc, ds, config, state: TrainState) -> dict:
    """Training step `state.step + 1` on a fresh pair batch; returns its metrics row.

    The generator runs forward once, and its output feeds every
    discriminator update. With `state.adam_g` None the generator is
    frozen: one D update, no G update, and the G columns of the row read 0.
    """
    step = state.step + 1
    pairs, g_cache = draw_pairings(ds, gen, config.batch_size, state.rng, config.ac_mode)
    # D's input: the pairings row-stacked, the n rows of positive-lambda ones first
    order = sorted(range(len(pairs)), key=lambda k: config.loss.lambdas[k] == 0)
    d_x, d_y = (np.concatenate([pairs[k][col] for k in order]) for col in (0, 1))
    n = config.batch_size * sum(lam > 0 for lam in config.loss.lambdas)
    for _ in range(1 if state.adam_g is None else config.d_steps_per_g_step):
        logits, d_cache = disc_forward(disc, d_x, d_y)
        breakdown, g_logits = d_loss_total(logits[:n], config.loss, logits[n:])
        _check_finite(vars(breakdown), step)
        gnorm_d = _update(disc, [c[:n] for c in d_cache], g_logits, state.adam_d, config)
    row = {"step": step, **vars(breakdown), "g_adv": 0.0, "g_recon": 0.0, "g_total": 0.0,
           "grad_norm_G": 0.0, "grad_norm_D": gnorm_d}
    if state.adam_g is None:
        return row

    (x, y), (_, y_g) = pairs[:2]
    logit, d_cache = disc_forward(disc, x, y_g)
    values, g_logit, g_y = g_loss(logit, config.loss, y_g, y)
    _check_finite(values, step)
    # disc_forward's columns are [x | y]: the generator gets the y part
    g_y_g = mlp_backward(disc.spec, disc.params, d_cache, g_logit)[1][:, x.shape[1]:]
    if g_y is not None:
        g_y_g = g_y_g + g_y
    row.update(values, grad_norm_G=_update(gen, g_cache, g_y_g, state.adam_g, config))
    return row


def train(gen: Generator, disc: Discriminator, dataset: ConditionalDataset,
          config: TrainConfig, state: TrainState | None = None,
          checkpoint_dir=None, task: dict | None = None) -> tuple[RunLog, TrainState]:
    """Run config.epochs of additional alternating training, in place.

    Pass the state returned by a previous call (or loaded from a
    checkpoint) to resume a run deterministically. A state whose `adam_g`
    is None freezes the generator: only D trains, and the G columns read 0.
    `task` is the task dict recorded in every intermediate checkpoint.
    """
    if state is None:
        state = TrainState.fresh(gen, disc, config)
    steps_per_epoch = len(dataset) // config.batch_size
    if config.epochs > 0 and steps_per_epoch == 0:
        raise ValueError("dataset smaller than one batch")

    log = RunLog()
    for _ in range(config.epochs * steps_per_epoch):
        try:
            row = _step(gen, disc, dataset, config, state)
        except TrainingDiverged as e:
            e.log = log
            raise
        log.rows.append(row)
        state.step += 1
        if checkpoint_dir is not None and config.checkpoint_every > 0 \
                and state.step % config.checkpoint_every == 0:
            save_checkpoint(gen, disc, state, config,
                            f"{checkpoint_dir}/step_{state.step:08d}.json", task=task)
    return log, state


def optimal_discriminator_phase(gen: Generator, disc: Discriminator,
                                dataset: ConditionalDataset, config: TrainConfig,
                                epochs: int = 1) -> RunLog:
    """Let the discriminator converge against a frozen generator.

    Trains the discriminator alone for `epochs` full epochs through
    `train`, from fresh Adam moments and the phase's own random stream,
    and returns the log. Any mutation of the generator fails hard.
    """
    before = gen.flat.tobytes()
    state = TrainState(adam_g=None, adam_d=AdamState.for_net(disc),
                       rng=np.random.default_rng([config.seed, _PHASE_STREAM]))
    log, _ = train(gen, disc, dataset, replace(config, epochs=epochs), state)
    if gen.flat.tobytes() != before:
        raise FreezeViolation("generator parameters changed during the frozen phase")
    return log


# -- checkpointing -------------------------------------------------------

def _adam_to_jsonable(state: AdamState) -> dict:
    return {"t": state.t, "m": encode_vector(state.m), "v": encode_vector(state.v)}


def _counter(value, name: str) -> int:
    """`value` if it is a non-negative int (a bool is not), else a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {json.dumps(value)}")
    return value


def _adam_from_jsonable(d: dict, size: int, name: str) -> AdamState:
    """The moments as vectors of `size`, their network's; a misfit raises ValueError as `name.m`."""
    m, v = (decode_vector(d[key], size, f"{name}.{key}") for key in ("m", "v"))
    return AdamState(m, v, t=_counter(d["t"], f"{name}.t"))


def save_checkpoint(gen: Generator, disc: Discriminator, state: TrainState,
                    config: TrainConfig, path, *, task: dict | None = None) -> None:
    """Write networks, train state and the task they were trained on.

    `task` is the canonical task dict (`task.to_dict()`); it is stored as
    `"task"` (null when not given) so that a loader can refuse the
    checkpoint under another task.

    Format 4 is one JSON object. `format_version`, `step`, `seed`, `task`,
    both network specs, the generator's `noise_dim`, the Adam step counts
    `t` and `rng_state` (the bit generator's state dict) are plain JSON;
    `adam_g` is null for a frozen generator. Each network's `flat` and
    each Adam moment `m` and `v` is one string, the base64 of the vector's
    little-endian float64 bytes (`nets.encode_vector`), so a load gives
    back the same bits. The spec fixes the layout, so no shapes are stored.
    """
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "step": state.step,
        "seed": config.seed,
        "task": task,
        "generator": {
            "spec": gen.spec.to_dict(),
            "noise_dim": gen.noise_dim,
            "flat": encode_vector(gen.flat),
        },
        "discriminator": {
            "spec": disc.spec.to_dict(),
            "flat": encode_vector(disc.flat),
        },
        "adam_g": None if state.adam_g is None else _adam_to_jsonable(state.adam_g),
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
    version is read; an older file, a missing key, a `step`, `seed` or Adam
    `t` that is not a non-negative int, or a vector that is not base64 or
    not as long as its network's spec requires raises `CheckpointError`.
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
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint {path}: {e}") from None


def _checkpoint_from_doc(doc: dict) -> tuple[Generator, Discriminator, TrainState, dict]:
    g_doc, d_doc = doc["generator"], doc["discriminator"]
    g_spec, d_spec = MlpSpec.from_dict(g_doc["spec"]), MlpSpec.from_dict(d_doc["spec"])
    gen = Generator(g_spec, decode_vector(g_doc["flat"], g_spec.n_params, "generator.flat"),
                    g_doc["noise_dim"])
    disc = Discriminator(d_spec, decode_vector(d_doc["flat"], d_spec.n_params,
                                               "discriminator.flat"))
    step, seed = _counter(doc["step"], "step"), _counter(doc["seed"], "seed")
    rng = np.random.default_rng()
    rng.bit_generator.state = doc["rng_state"]
    state = TrainState(
        adam_g=None if doc["adam_g"] is None
        else _adam_from_jsonable(doc["adam_g"], gen.flat.size, "adam_g"),
        adam_d=_adam_from_jsonable(doc["adam_d"], disc.flat.size, "adam_d"),
        rng=rng,
        step=step,
    )
    return gen, disc, state, {"seed": seed, "step": step, "task": doc["task"]}
