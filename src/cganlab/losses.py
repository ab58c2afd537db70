"""Adversarial objectives over the four data pairings, on raw logits.

All losses are written in descent form (the trainer minimizes them). With
``D = sigmoid(l)`` for the discriminator logit ``l``, the cross-entropy
discriminator objective ``-E[log D(x,y)] - E[log(1 - D(x,G(x)))]`` is
``E[softplus(-l)]`` on the real-conditional pairing plus ``E[softplus(l)]``
on the generated one, and the a-contrario extension adds ``E[softplus(l)]``
on ``(x_tilde, y)`` and ``(x_tilde, G(x))``. Hinge replaces
``softplus(-s*l)`` by ``relu(1 - s*l)``. Expectations are batch means.
The generator loss is non-saturating, ``-E[log D(x,G(x))]`` as in pix2pix
(Isola et al. 2017), or ``-E[l]`` under hinge.

Each loss returns its values together with its gradient w.r.t. the
logits (and, for the generator's L1 term, w.r.t. the generated rows),
which the trainer feeds to `nets.mlp_backward`. ``softplus`` is exact in
both tails, so values and gradients stay right where the discriminator
saturates. A pairing whose lambda is zero is logged only: it adds nothing
to the loss or to the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FORMULATIONS = ("classic", "acontrario", "hinge_classic", "hinge_acontrario")

# default weighting: all four terms equal for the a-contrario
# formulations, the two conditional terms otherwise
DEFAULT_LAMBDAS = {f: [1.0, 1.0, 1.0, 1.0] if "acontrario" in f else [1.0, 1.0, 0.0, 0.0]
                   for f in FORMULATIONS}


@dataclass(frozen=True)
class LossSpec:
    """Which adversarial formulation is active, plus its weights.

    The generator loss follows the formulation: non-saturating or hinge.
    `lambdas` left None is `DEFAULT_LAMBDAS[formulation]`: (1, 1, 1, 1) for
    the a-contrario formulations, (1, 1, 0, 0) for the classic ones.
    """

    formulation: str = "classic"
    lambdas: tuple[float, float, float, float] | None = None
    recon_weight: float = 0.0

    def __post_init__(self):
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        given = DEFAULT_LAMBDAS[self.formulation] if self.lambdas is None else self.lambdas
        lam = tuple(float(v) for v in given)
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


@dataclass
class LossBreakdown:
    """Unweighted per-pairing discriminator terms plus the weighted total."""

    d_real_cond: float = 0.0
    d_gen_cond: float = 0.0
    d_real_ac: float = 0.0
    d_gen_ac: float = 0.0
    d_total: float = 0.0


def _sigmoid_parts(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-|v|) and sigmoid(v) as 1/(1+e) or e/(1+e): no overflow, exact in both tails."""
    e = np.exp(-np.abs(v))
    return e, np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + exp(v)) as max(v, 0) + log1p(exp(-|v|)), and its slope sigmoid(v)."""
    e, s = _sigmoid_parts(v)
    return np.maximum(v, 0.0) + np.log1p(e), s


def d_loss_total(logits: np.ndarray, spec: LossSpec,
                 logged: np.ndarray | None = None) -> tuple[LossBreakdown, np.ndarray]:
    """Lambda-weighted discriminator loss on stacked logits, and dL/dlogits.

    `logits` stacks the pairings whose lambda is positive, in the order
    real_cond, gen_cond, real_ac, gen_ac, with the same number of rows each;
    `logged` stacks the zero-lambda pairings the same way (empty or None
    when every lambda is positive). A row of pairing k with logit l costs
    lambda_k / B times relu(1 - s*l) for hinge or softplus(-s*l) otherwise,
    where s is +1 on real_cond rows (pushed toward "true") and -1 on the
    others (pushed toward "false"); the loss is the sum over rows, and its
    gradient w.r.t. that row is -s * [s*l < 1] or -s * sigmoid(-s*l),
    times lambda_k / B. Zero-lambda pairings enter only the breakdown, so
    the total reduces exactly to the classic loss when lambda3 = lambda4 = 0.
    """
    active = [k for k, lam in enumerate(spec.lambdas) if lam > 0]
    idle = [k for k, lam in enumerate(spec.lambdas) if lam == 0]
    b = logits.shape[0] // len(active)
    if logits.shape != (b * len(active), 1) or b == 0:
        raise ValueError(f"logits shape {logits.shape} is not {len(active)} stacked batches")
    n_logged = 0 if logged is None else logged.shape[0]
    if n_logged != b * len(idle):
        raise ValueError(f"{n_logged} logged rows for {len(idle)} zero-lambda pairings of {b}")

    def signs(ks):
        return np.repeat([1.0 if k == 0 else -1.0 for k in ks], b)[:, None]

    def costs(ks, rows):  # per-row cost, and its slope w.r.t. -s*l
        if spec.is_hinge:
            cost = np.maximum(1.0 - rows * signs(ks), 0.0)
            return cost, cost > 0
        return _softplus(rows * -signs(ks))

    cost, slope = costs(active, logits)
    weights = np.repeat([spec.lambdas[k] / b for k in active], b)[:, None]
    grad = weights * slope * -signs(active)

    terms = np.zeros(4)
    terms[active] = cost.reshape(len(active), b).mean(axis=1)
    if idle:
        terms[idle] = costs(idle, logged)[0].reshape(len(idle), b).mean(axis=1)
    return LossBreakdown(*terms.tolist(), d_total=float((cost * weights).sum())), grad


def g_loss(logit: np.ndarray, spec: LossSpec, y_g: np.ndarray | None = None,
           y_true: np.ndarray | None = None) -> tuple[dict, np.ndarray, np.ndarray | None]:
    """Generator loss on the generated-conditional logits, plus optional L1.

    The adversarial part is non-saturating, E[softplus(-l)] (-E[log D]),
    or -E[l] for hinge. With recon_weight w > 0, w * mean|y_g - y_true| is
    added. Returns (values, dL/dlogit, dL/dy_g): values maps g_adv, g_recon
    and g_total to floats; dL/dy_g is None when w is 0.
    """
    inv_b = 1.0 / logit.size
    if spec.is_hinge:
        adv = -float(logit.mean())
        g_logit = np.full(logit.shape, -inv_b)
    else:
        value, slope = _softplus(-logit)
        adv = float(value.mean())
        g_logit = -inv_b * slope
    values = {"g_adv": adv, "g_recon": 0.0, "g_total": adv}
    g_y = None
    if spec.recon_weight > 0:
        if y_g is None or y_true is None:
            raise ValueError("recon_weight > 0 requires y_g and y_true")
        diff = y_g - y_true
        recon = float(np.abs(diff).mean() * spec.recon_weight)
        values.update(g_recon=recon, g_total=adv + recon)
        g_y = (spec.recon_weight / diff.size) * np.sign(diff)
    return values, g_logit, g_y
