"""Desk-scale conditional GAN laboratory.

Classic and a-contrario conditional adversarial training on synthetic
tasks, with the tooling to check conditionality claims directly (one
`evaluate` call): optimal-discriminator logit histograms, per-pairing
AUROCs against the real-conditional pairing, oracle conditional accuracy,
and NDB mode-collapse scoring. Everything is numpy: both networks are MLPs whose
gradients are written out in closed form (`mlp_forward`, `mlp_backward`),
chained with the losses' gradients by the trainer.
"""

from .losses import LossBreakdown, LossSpec, d_loss_total, g_loss
from .nets import (Discriminator, Generator, MlpSpec, disc_forward, gen_forward, init_params,
                   mlp_backward, mlp_forward)
from .pairing import (
    ConditionalDataset,
    PairBatch,
    draw_pairings,
    make_ac_permutation,
    sample_pair_batch,
)
from .tasks import CondRegressionTask, GaussModesTask, sample_dataset
from .trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    load_checkpoint,
    optimal_discriminator_phase,
    save_checkpoint,
    train,
)
from .evalcond import (EvalConfig, auroc, build_histogram, collect_logits, evaluate, ndb_score,
                       oracle_accuracy, oracle_classify, regression_error)

__version__ = "0.1.0"
