"""Desk-scale conditional GAN laboratory.

Classic and a-contrario conditional adversarial training on synthetic
tasks, with the tooling to check conditionality claims directly: optimal-
discriminator logit histograms, per-pairing classification rates, oracle
conditional accuracy, and NDB mode-collapse scoring.
"""

from .autodiff import Graph, Tensor, backward
from .losses import LossBreakdown, LossSpec, d_loss_total, g_loss
from .nets import Discriminator, Generator, MlpSpec, disc_forward, gen_forward, init_params
from .pairing import (
    ConditionalDataset,
    PairBatch,
    assemble_pairings,
    make_ac_permutation,
    sample_pair_batch,
)
from .tasks import (
    CondRegressionTask,
    GaussModesTask,
    oracle_classify,
    regression_error,
    sample_dataset,
)
from .trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    load_checkpoint,
    optimal_discriminator_phase,
    save_checkpoint,
    train,
)
from .evalcond import (
    build_histogram,
    classification_rates,
    collect_logits,
    ndb_score,
    oracle_accuracy,
)

__version__ = "0.1.0"
