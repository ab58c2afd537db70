"""Adversarial objectives over the four data pairings, on raw logits.

All losses are written in descent form (the trainer minimizes them). With
``D = sigmoid(l)`` for the discriminator logit ``l``, the cross-entropy
discriminator objective ``-E[log D(x,y)] - E[log(1 - D(x,G(x)))]`` is
``E[softplus(-l)]`` on the real-conditional pairing plus ``E[softplus(l)]``
on the generated one, and the a-contrario extension adds ``E[softplus(l)]``
on ``(x_tilde, y)`` and ``(x_tilde, G(x))``. Hinge replaces
``softplus(-s*l)`` by ``relu(1 - s*l)``. Expectations are batch means.
``softplus`` is exact in both tails, so values and gradients stay right
where the discriminator saturates.

A pairing whose lambda is zero is logged only: its logits are evaluated
off the tape, so it adds nothing to the loss or to the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, relu, softplus, tensor_sum

FORMULATIONS = ("classic", "acontrario", "hinge_classic", "hinge_acontrario")
GEN_LOSS_MODES = ("minmax", "non_saturating")


@dataclass(frozen=True)
class LossSpec:
    """Which adversarial formulation is active, plus its weights."""

    formulation: str = "classic"
    lambdas: tuple[float, float, float, float] = (1.0, 1.0, 0.0, 0.0)
    gen_loss_mode: str = "non_saturating"
    recon_weight: float = 0.0

    def __post_init__(self):
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        if self.gen_loss_mode not in GEN_LOSS_MODES:
            raise ValueError(f"unknown gen_loss_mode {self.gen_loss_mode!r}")
        lam = tuple(float(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lam)
        if len(lam) != 4 or any(v < 0 for v in lam):
            raise ValueError(f"lambdas must be 4 non-negative reals, got {lam}")
        if not any(v > 0 for v in lam):
            raise ValueError("at least one lambda must be positive")
        if self.formulation in ("classic", "hinge_classic") and (lam[2] != 0 or lam[3] != 0):
            raise ValueError(
                f"{self.formulation} ignores the a-contrario terms; "
                f"lambda3 and lambda4 must be 0, got {lam[2]}, {lam[3]}"
            )
        if self.recon_weight < 0:
            raise ValueError("recon_weight must be non-negative")

    @property
    def is_hinge(self) -> bool:
        return self.formulation.startswith("hinge")

    def to_dict(self) -> dict:
        return {
            "formulation": self.formulation,
            "lambdas": list(self.lambdas),
            "gen_loss_mode": self.gen_loss_mode,
            "recon_weight": self.recon_weight,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LossSpec":
        return cls(d["formulation"], tuple(d["lambdas"]), d["gen_loss_mode"], d["recon_weight"])


@dataclass
class LossBreakdown:
    """Unweighted per-pairing discriminator terms plus the weighted total."""

    d_real_cond: float = 0.0
    d_gen_cond: float = 0.0
    d_real_ac: float = 0.0
    d_gen_ac: float = 0.0
    d_total: float = 0.0


def l1_loss(y_g: Tensor, y_true: Tensor) -> Tensor:
    """Mean absolute deviation, built from relu so it stays differentiable."""
    diff = y_g - y_true
    return (diff.relu() + (-diff).relu()).mean()


def d_loss_total(logits: Tensor, spec: LossSpec,
                 logged: Tensor | None = None) -> tuple[Tensor, LossBreakdown]:
    """Lambda-weighted discriminator loss on stacked logits.

    `logits` stacks the pairings whose lambda is positive, in the order
    real_cond, gen_cond, real_ac, gen_ac, with the same number of rows each;
    `logged` stacks the zero-lambda pairings the same way (None when every
    lambda is positive). A row of pairing k with logit l costs lambda_k / B
    times relu(1 - s*l) for hinge or softplus(-s*l) otherwise, where s is
    +1 on real_cond rows (pushed toward "true") and -1 on the others
    (pushed toward "false"); the loss is the sum over rows. Zero-lambda
    pairings enter only the breakdown, so the total reduces exactly to the
    classic loss when lambda3 = lambda4 = 0.
    """
    active = [k for k, lam in enumerate(spec.lambdas) if lam > 0]
    idle = [k for k, lam in enumerate(spec.lambdas) if lam == 0]
    b = logits.shape[0] // len(active)
    if logits.shape != (b * len(active), 1) or b == 0:
        raise ValueError(f"logits shape {logits.shape} is not {len(active)} stacked batches")
    n_logged = 0 if logged is None else logged.shape[0]
    if n_logged != b * len(idle):
        raise ValueError(f"{n_logged} logged rows for {len(idle)} zero-lambda pairings of {b}")

    def costs(ks, rows):
        signs = np.repeat([1.0 if k == 0 else -1.0 for k in ks], b)[:, None]
        return relu(1.0 - rows * signs) if spec.is_hinge else softplus(rows * -signs)

    cost = costs(active, logits)
    weights = np.repeat([spec.lambdas[k] / b for k in active], b)[:, None]
    total = tensor_sum(cost * weights)

    terms = np.zeros(4)
    terms[active] = cost.values.reshape(len(active), b).mean(axis=1)
    if idle:
        terms[idle] = costs(idle, logged).values.reshape(len(idle), b).mean(axis=1)
    return total, LossBreakdown(*terms.tolist(), d_total=float(total.values))


def g_loss(logit: Tensor, spec: LossSpec, y_g: Tensor | None = None,
           y_true: Tensor | None = None) -> tuple[Tensor, float, float]:
    """Generator loss on the generated-conditional logits, plus optional L1.

    The adversarial part is E[-l] for the hinge formulations, and otherwise
    E[-softplus(l)] (minmax, i.e. E[log(1 - D)]) or E[softplus(-l)]
    (non-saturating, i.e. -E[log D]). Returns (total tensor, adversarial
    value, reconstruction value).
    """
    if spec.is_hinge:
        adv = -(logit.mean())
    elif spec.gen_loss_mode == "minmax":
        adv = -(softplus(logit).mean())
    else:
        adv = softplus(-logit).mean()
    total = adv
    recon_value = 0.0
    if spec.recon_weight > 0:
        if y_g is None or y_true is None:
            raise ValueError("recon_weight > 0 requires y_g and y_true")
        recon = l1_loss(y_g, y_true) * spec.recon_weight
        recon_value = float(recon.values)
        total = total + recon
    return total, float(adv.values), recon_value
